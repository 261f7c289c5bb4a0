//! Mid-circuit measurement with feed-forward control.
//!
//! The paper's motivation for per-qubit independent discriminators is
//! quantum error correction: an ancilla must be measured *mid-circuit*,
//! without waiting to read every qubit, and the outcome must steer the
//! next operation within the coherence window. This example emulates that
//! loop:
//!
//! 1. prepare an "ancilla" (qubit 3) in a data-dependent state,
//! 2. read it independently from a shortened trace (faster feedback),
//! 3. branch: apply a simulated correction when the ancilla reports |1⟩,
//! 4. verify the corrected logical outcome.
//!
//! Run with `cargo run --release --example mid_circuit`.

use klinq::core::experiments::ExperimentConfig;
use klinq::core::{Backend, KlinqError, KlinqSystem};

/// The ancilla qubit index (0-based; qubit 4 in paper numbering).
const ANCILLA: usize = 3;
/// Shortened readout for faster feedback: 70 % of the trace.
const FEEDBACK_FRACTION: f64 = 0.7;

fn main() -> Result<(), KlinqError> {
    println!("Training the readout system (smoke scale) …");
    let system = KlinqSystem::train(&ExperimentConfig::smoke())?;
    let data = system.test_data();
    let cut = ((data.samples() as f64) * FEEDBACK_FRACTION) as usize;
    let latency = system.discriminator(ANCILLA).hardware().latency();
    println!(
        "ancilla discriminator: {} (FPGA latency: {latency})",
        system.discriminator(ANCILLA).student().net
    );

    // Emulate a feedback experiment over many shots: whenever the ancilla
    // is read as |1⟩, the controller "applies a correction" — here that
    // simply means we expect the syndrome to have been caught.
    let mut corrections = 0usize;
    let mut missed_syndromes = 0usize;
    let mut false_triggers = 0usize;
    let shots = data.len();
    for s in 0..shots {
        let shot = data.shot(s);
        let t = &shot.traces[ANCILLA];
        // Mid-circuit: only the first `cut` samples exist yet.
        let syndrome =
            system.discriminator(ANCILLA).measure_on(Backend::Float, &t.i[..cut], &t.q[..cut]);
        match (syndrome, shot.prepared[ANCILLA]) {
            (true, true) => corrections += 1,
            (false, true) => missed_syndromes += 1,
            (true, false) => false_triggers += 1,
            (false, false) => {}
        }
    }
    let excited_shots = data
        .shots()
        .iter()
        .filter(|s| s.prepared[ANCILLA])
        .count();
    println!(
        "\nover {shots} shots ({} with a syndrome):",
        excited_shots
    );
    println!("  corrections applied:   {corrections}");
    println!("  syndromes missed:      {missed_syndromes}");
    println!("  false triggers:        {false_triggers}");
    println!(
        "  feedback readout used {cut}/{} samples ({:.0} ns of trace)",
        data.samples(),
        cut as f64 * data.config().sample_period_ns
    );

    // Crucially, the other qubits were never read — independent readout.
    // Read one of them now, later in the "circuit", from its full trace.
    let shot = data.shot(0);
    let t = &shot.traces[0];
    let late = system.measure_on(Backend::Float, 0, &t.i, &t.q);
    println!(
        "\nlate measurement of qubit 1 (full trace): |{}⟩ (prepared |{}⟩)",
        late as u8, shot.prepared[0] as u8
    );
    Ok(())
}
