//! Cross-crate integration: simulator → training → distillation →
//! evaluation → FPGA compilation, all through the public facade.

use klinq::core::{Backend, KlinqSystem, StudentArch};
use klinq::fpga::latency::{avg_norm_stages, mf_stages, network_stages};

mod common;

fn system() -> &'static KlinqSystem {
    common::smoke_system()
}

#[test]
fn full_pipeline_trains_and_discriminates() {
    let sys = system();
    let report = sys.evaluate_on(Backend::Float);
    assert_eq!(report.per_qubit().len(), 5);
    assert!(report.geometric_mean() > 0.7, "{report}");
    // F4Q (excluding the noisy qubit 2) always dominates F5Q.
    assert!(report.f4q() >= report.geometric_mean());
}

#[test]
fn students_are_the_paper_architectures() {
    let sys = system();
    for qb in 0..5 {
        let d = sys.discriminator(qb);
        let expected = StudentArch::for_qubit(qb);
        assert_eq!(d.arch(), expected);
        assert_eq!(d.student().net.num_params(), expected.num_params());
        assert_eq!(d.student().net.input_dim(), expected.input_dim());
    }
}

#[test]
fn compression_rate_exceeds_99_percent() {
    let sys = system();
    let teacher_params: usize = sys.teachers().iter().map(|t| t.net().num_params()).sum();
    let student_params: usize = sys
        .discriminators()
        .iter()
        .map(|d| d.student().net.num_params())
        .sum();
    // Smoke-scale teachers are shrunken, so compare against the paper
    // architecture counts for the real claim ...
    let paper = klinq::core::params::CompressionReport::paper_architectures();
    assert!(paper.ncr_vs_teacher > 0.998);
    // ... and sanity-check the trained sizes ordering (the smoke teacher
    // is deliberately shrunken, so only a loose ratio is meaningful here).
    assert!(student_params * 3 < teacher_params);
}

#[test]
fn fpga_and_float_paths_agree_on_decisions() {
    let sys = system();
    let data = sys.test_data();
    let mut disagreements = 0usize;
    let mut total = 0usize;
    for s in 0..data.len().min(128) {
        let shot = data.shot(s);
        for qb in 0..5 {
            let t = &shot.traces[qb];
            let float_state = sys.discriminator(qb).measure_on(Backend::Float, &t.i, &t.q);
            let hw_state = sys.discriminator(qb).measure_on(Backend::Hardware, &t.i, &t.q);
            disagreements += (float_state != hw_state) as usize;
            total += 1;
        }
    }
    // Quantization may flip near-threshold shots only.
    assert!(
        (disagreements as f64) < 0.05 * total as f64,
        "{disagreements}/{total} disagreements"
    );
}

#[test]
fn mid_circuit_measurement_matches_batch_evaluation() {
    let sys = system();
    let data = sys.test_data();
    // measure() on each shot must reproduce the per-qubit fidelity that
    // evaluate() reports.
    let report = sys.evaluate_on(Backend::Float);
    for qb in [0usize, 2, 4] {
        let labels = data.qubit_labels(qb);
        let correct = (0..data.len())
            .filter(|&s| {
                let t = &data.shot(s).traces[qb];
                sys.measure_on(Backend::Float, qb, &t.i, &t.q) == (labels[s] == 1.0)
            })
            .count();
        let manual = correct as f64 / labels.len() as f64;
        assert!((manual - report.qubit(qb)).abs() < 1e-12, "qubit {}", qb + 1);
    }
}

#[test]
fn paper_design_point_latency_invariants() {
    // Full-duration (1 µs = 500 samples) structural facts, independent of
    // training: equal totals and the component splits of Table III.
    let a_total = mf_stages(500) + avg_norm_stages(500 / 15) + network_stages(&[31, 16, 8]);
    let b_total = mf_stages(500) + avg_norm_stages(500 / 100) + network_stages(&[201, 16, 8]);
    assert_eq!(a_total, b_total);
    for samples in [275, 375, 475, 500] {
        let a = mf_stages(samples) + avg_norm_stages(500 / 15) + network_stages(&[31, 16, 8]);
        assert_eq!(a, a_total, "{samples} samples");
    }
}

#[test]
fn per_duration_retraining_keeps_input_dims_fixed() {
    let sys = system();
    let samples = sys.test_data().samples();
    let students = sys.students_at(samples * 7 / 10).expect("retraining");
    for (qb, s) in students.iter().enumerate() {
        assert_eq!(
            s.net.input_dim(),
            StudentArch::for_qubit(qb).input_dim(),
            "qubit {}",
            qb + 1
        );
    }
}

#[test]
fn serde_round_trip_of_reports() {
    let sys = system();
    let report = sys.evaluate_on(Backend::Float);
    let json = serde_json::to_string(&report).expect("serialize");
    let back: klinq::core::FidelityReport = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(report, back);
}
