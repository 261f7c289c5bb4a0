//! Quickstart: train a complete KLiNQ system and read out qubits.
//!
//! Run with `cargo run --release --example quickstart [smoke|quick|full]`.
//! Defaults to the smoke scale so it finishes in seconds.

use klinq::core::experiments::ExperimentConfig;
use klinq::core::{Backend, KlinqError, KlinqSystem};

fn main() -> Result<(), KlinqError> {
    let scale = std::env::args().nth(1).unwrap_or_else(|| "smoke".into());
    let config = match scale.as_str() {
        "smoke" => ExperimentConfig::smoke(),
        "quick" => ExperimentConfig::quick(),
        "full" => ExperimentConfig::full(),
        other => {
            eprintln!("unknown scale '{other}', using smoke");
            ExperimentConfig::smoke()
        }
    };

    println!("Training the five-qubit KLiNQ system at scale '{scale}' …");
    let start = std::time::Instant::now();
    let system = KlinqSystem::train(&config)?;
    println!("  trained in {:.1}s", start.elapsed().as_secs_f32());

    // Aggregate fidelities on the held-out set.
    let report = system.evaluate_on(Backend::Float);
    println!("\nPer-qubit assignment fidelity (float path):");
    println!("  {report}");
    let teachers = system.evaluate_teachers();
    println!("Teacher (Baseline FNN) fidelities:");
    println!("  {teachers}");

    // The FPGA datapath gives the same answers in Q16.16.
    let hw = system.evaluate_on(Backend::Hardware);
    println!("Bit-accurate FPGA datapath:");
    println!("  {hw}");

    // Read a single qubit from one shot — the independent-readout API.
    let shot = system.test_data().shot(0);
    for qb in 0..5 {
        let t = &shot.traces[qb];
        let state = system.measure_on(Backend::Float, qb, &t.i, &t.q);
        let prepared = shot.prepared[qb];
        println!(
            "qubit {}: prepared |{}⟩, read |{}⟩ {}",
            qb + 1,
            prepared as u8,
            state as u8,
            if state == prepared { "✓" } else { "✗" }
        );
    }

    // Model sizes: the paper's headline compression.
    let d = system.discriminator(0);
    println!(
        "\nstudent for qubit 1: {} parameters ({} ); teacher: {} parameters",
        d.student().net.num_params(),
        d.student().net,
        system.teachers()[0].net().num_params(),
    );
    Ok(())
}
