//! FPGA deployment walk-through: quantize, compile, and verify.
//!
//! Shows the deployment half of the paper: the trained students are
//! compiled to a Q16.16 fixed-point datapath (quantized weights, shift
//! normalization, matched-filter MAC), the latency and resource reports
//! are produced, and the fixed-point decisions are verified against the
//! float reference — the software equivalent of signing off an RTL
//! implementation against its golden model.
//!
//! Run with `cargo run --release --example fpga_deployment`.

use klinq::core::experiments::ExperimentConfig;
use klinq::core::{Backend, KlinqError, KlinqSystem};
use klinq::fpga::report::DesignReport;
use klinq::fpga::Clock;

fn main() -> Result<(), KlinqError> {
    println!("Training the system (smoke scale) …");
    let system = KlinqSystem::train(&ExperimentConfig::smoke())?;
    let samples = system.test_data().samples();

    // Per-configuration latency breakdowns.
    for (name, qb) in [("FNN-A (Q1)", 0usize), ("FNN-B (Q2)", 1usize)] {
        let hw = system.discriminator(qb).hardware();
        println!("{name}: {}", hw.latency());
        println!(
            "  at the paper's 100 MHz system clock: {:.0} ns",
            hw.clone()
                .with_clock(Clock::system_100mhz())
                .latency()
                .total_ns()
        );
    }

    // The five-qubit design report (Table III shape).
    let report = DesignReport::from_design(
        &[
            ("Q1,4,5".to_string(), system.discriminator(0).hardware(), 3),
            ("Q2,3".to_string(), system.discriminator(1).hardware(), 2),
        ],
        samples,
    );
    println!("\n{report}");

    // Bit-accuracy sign-off: fixed-point vs float decisions over the
    // whole held-out set.
    let mut agree = 0usize;
    let mut total = 0usize;
    let mut overflows = 0usize;
    for s in 0..system.test_data().len() {
        let shot = system.test_data().shot(s);
        for qb in 0..5 {
            let t = &shot.traces[qb];
            let float_state = system.discriminator(qb).measure_on(Backend::Float, &t.i, &t.q);
            let detail = system.discriminator(qb).hardware().infer_detailed(&t.i, &t.q);
            agree += (float_state == detail.excited) as usize;
            overflows += detail.overflow_count;
            total += 1;
        }
    }
    println!(
        "\nbit-accuracy sign-off: {agree}/{total} decisions agree ({:.2}%), {overflows} accumulator overflows",
        100.0 * agree as f64 / total as f64
    );

    // Fidelity through the hardware path.
    println!("hardware-path fidelities: {}", system.evaluate_on(Backend::Hardware));
    Ok(())
}
