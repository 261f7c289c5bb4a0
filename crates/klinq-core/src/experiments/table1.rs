//! Table I: qubit-readout fidelity comparison in the independent-readout
//! scenario (1 µs traces).
//!
//! Rows: Baseline FNN (= the per-qubit teachers), HERQULES (matched-filter
//! feature FNN), KLiNQ (distilled students), plus two extra rows the paper
//! discusses but does not tabulate — the classical matched-filter
//! threshold floor and an 8-bit post-training-quantized baseline FNN
//! (reference \[10\], which "sacrifices accuracy").

use crate::backend::Backend;
use crate::baselines::{HerqulesConfig, HerqulesDiscriminator, MfThreshold};
use crate::discriminator::KlinqSystem;
use crate::error::KlinqError;
use crate::eval::FidelityReport;
use crate::experiments::ExperimentConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The paper's Table I reference values for comparison in reports.
pub const PAPER_ROWS: [(&str, [f64; 5], f64, f64); 3] = [
    (
        "Baseline FNN",
        [0.969, 0.748, 0.940, 0.946, 0.970],
        0.910,
        0.956,
    ),
    (
        "HERQULES",
        [0.965, 0.730, 0.908, 0.934, 0.953],
        0.893,
        0.940,
    ),
    (
        "KLiNQ",
        [0.968, 0.748, 0.929, 0.934, 0.959],
        0.904,
        0.947,
    ),
];

/// One measured row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Design name.
    pub design: String,
    /// Per-qubit fidelities.
    pub per_qubit: Vec<f64>,
    /// Five-qubit geometric mean.
    pub f5q: f64,
    /// Geometric mean excluding qubit 2.
    pub f4q: f64,
}

impl Table1Row {
    fn from_report(design: &str, report: &FidelityReport) -> Self {
        Self {
            design: design.to_string(),
            per_qubit: report.per_qubit().to_vec(),
            f5q: report.geometric_mean(),
            f4q: report.f4q(),
        }
    }
}

/// The measured Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1 {
    /// Measured rows, baseline first.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Finds a row by design name.
    pub fn row(&self, design: &str) -> Option<&Table1Row> {
        self.rows.iter().find(|r| r.design == design)
    }
}

/// Runs the full Table I experiment: trains the KLiNQ system (teachers
/// double as Baseline FNN), trains HERQULES per qubit, and evaluates all
/// designs on the shared held-out set.
///
/// # Errors
///
/// Returns [`KlinqError`] if any training stage fails.
pub fn run(config: &ExperimentConfig) -> Result<Table1, KlinqError> {
    let system = KlinqSystem::train(config)?;
    run_with_system(&system, config)
}

/// Variant reusing an already-trained system (so callers can share the
/// expensive teacher training across experiments).
///
/// # Errors
///
/// Returns [`KlinqError`] if a baseline fails to train.
pub fn run_with_system(
    system: &KlinqSystem,
    config: &ExperimentConfig,
) -> Result<Table1, KlinqError> {
    let test = system.test_data();
    let samples = test.samples();

    let baseline = system.evaluate_teachers();
    let klinq = system.evaluate_on(Backend::Float);

    // HERQULES per qubit (parallel).
    let hq_cfg = HerqulesConfig {
        train: config.student_train,
        ..HerqulesConfig::default()
    };
    let herqules_f: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..5)
            .map(|qb| {
                let hq_cfg = &hq_cfg;
                scope.spawn(move || -> Result<f64, KlinqError> {
                    let h = HerqulesDiscriminator::train(hq_cfg, system.train_data(), qb)?;
                    Ok(h.fidelity_at(test, samples))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("herqules thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let herqules = FidelityReport::new(herqules_f);

    // Matched-filter threshold floor.
    let mf_f: Vec<f64> = (0..5)
        .map(|qb| {
            MfThreshold::train(system.train_data(), qb).map(|m| m.fidelity_at(test, samples))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mf = FidelityReport::new(mf_f);

    // 8-bit post-training-quantized Baseline FNN (reference \[10\] style).
    let quant_f: Vec<f64> = system
        .teachers()
        .iter()
        .map(|t| t.fidelity_with_net(&crate::baselines::quantize_network(t.net(), 8), test))
        .collect();
    let quantized = FidelityReport::new(quant_f);

    Ok(Table1 {
        rows: vec![
            Table1Row::from_report("Baseline FNN", &baseline),
            Table1Row::from_report("HERQULES", &herqules),
            Table1Row::from_report("KLiNQ", &klinq),
            Table1Row::from_report("MF threshold", &mf),
            Table1Row::from_report("Quantized FNN (8-bit)", &quantized),
        ],
    })
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<24} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "Design", "Q1", "Q2", "Q3", "Q4", "Q5", "F5Q", "F4Q"
        )?;
        for row in &self.rows {
            write!(f, "{:<24}", row.design)?;
            for q in &row.per_qubit {
                write!(f, " {q:>7.3}")?;
            }
            writeln!(f, " {:>7.3} {:>7.3}", row.f5q, row.f4q)?;
        }
        writeln!(f, "--- paper (Table I) ---")?;
        for (name, per_qubit, f5q, f4q) in PAPER_ROWS {
            write!(f, "{name:<24}")?;
            for q in per_qubit {
                write!(f, " {q:>7.3}")?;
            }
            writeln!(f, " {f5q:>7.3} {f4q:>7.3}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table1_has_expected_structure_and_ordering() {
        let table =
            run_with_system(crate::testutil::smoke_system(), &ExperimentConfig::smoke()).unwrap();
        assert_eq!(table.rows.len(), 5);
        let klinq = table.row("KLiNQ").unwrap();
        let baseline = table.row("Baseline FNN").unwrap();
        let mf = table.row("MF threshold").unwrap();
        // Learned discriminators beat chance comfortably on smoke data.
        assert!(klinq.f5q > 0.7, "{table}");
        assert!(baseline.f5q > 0.6, "{table}");
        assert!(mf.f5q > 0.6, "{table}");
        // F4Q excludes the noisy qubit and must not be lower than F5Q.
        assert!(klinq.f4q >= klinq.f5q, "{table}");
        let rendered = table.to_string();
        assert!(rendered.contains("KLiNQ") && rendered.contains("paper"), "{rendered}");
    }
}
