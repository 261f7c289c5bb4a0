//! Live recalibration under drift: detect a degrading readout chain
//! from the serving stack's own drift monitor, distill a candidate
//! model while traffic keeps flowing, audition it on a canary lane,
//! and promote it with a zero-downtime blue/green hot swap.
//!
//! Run with `cargo run --release --example live_recalibration`. The
//! first run trains the smoke-scale system and caches it; later runs
//! load it in milliseconds. The scenario then plays out four acts
//! against ONE continuously running `ReadoutServer`:
//!
//! 1. **Healthy baseline** — a calibration pass (shots whose prepared
//!    states are known) feeds the per-qubit running fidelity/confusion
//!    estimates in `ServeStats`.
//! 2. **Drift** — the "fridge" degrades: extra Gaussian noise rides on
//!    every trace (`klinq_sim::noise`), scaled per qubit off the
//!    device's calibrated σ. The analytic matched-filter model
//!    (`predict_mf_fidelity`) says what to expect, and the live
//!    calibration lane confirms it without stopping the server.
//! 3. **Canary** — a candidate re-distilled from the cached teachers at
//!    a shorter integration window (the paper's duration/fidelity
//!    trade) is staged on a canary lane: a fraction of micro-batches
//!    answer from the candidate while the primary shadows them, feeding
//!    a divergence report.
//! 4. **Promotion** — the canary is hot-swapped to primary between
//!    micro-batches; in-flight requests are never mixed across model
//!    versions.

use klinq::core::experiments::ExperimentConfig;
use klinq::core::{KlinqError, KlinqSystem};
use klinq::serve::{ReadoutServer, RequestOptions, ServeConfig, ServeStats};
use klinq::sim::device::NUM_QUBITS;
use klinq::sim::noise::GaussianSource;
use klinq::sim::{predict_mf_fidelity, FiveQubitDevice, QubitCalibration, Shot, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How much the noise floor rises in act 2: σ → DRIFT_FACTOR · σ.
const DRIFT_FACTOR: f64 = 1.8;

/// Canary fraction: half of all micro-batches audition the candidate.
const CANARY_FRACTION: f64 = 0.5;

fn main() -> Result<(), KlinqError> {
    // The serving layer has its own typed error; an example that fails
    // surfaces it through the core error's I/O-ish string variant.
    let serve = |e: klinq::serve::ServeError| KlinqError::Io(format!("serve: {e}"));

    // ── Act 0: deploy ────────────────────────────────────────────────
    let path = std::env::temp_dir().join("klinq-live-recal-system.json");
    let primary = match KlinqSystem::load(&path) {
        Ok(sys) => {
            println!("loaded cached system {}", path.display());
            Arc::new(sys)
        }
        Err(_) => {
            println!("no cached system yet — training the smoke-scale system …");
            let start = Instant::now();
            let sys = KlinqSystem::train(&ExperimentConfig::smoke())?;
            println!("  trained in {:.1}s", start.elapsed().as_secs_f32());
            sys.save(&path)?;
            Arc::new(sys)
        }
    };
    let config = primary.config().clone();
    let sim_config = SimConfig::with_duration_ns(config.duration_ns);
    let design_samples = primary.test_data().samples();
    let clean_shots = primary.test_data().shots().to_vec();

    let server = ReadoutServer::start(
        Arc::clone(&primary),
        ServeConfig {
            max_linger: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    println!(
        "serving model v{} ({} shots per calibration pass, {design_samples} samples/channel)\n",
        server.model_version(),
        clean_shots.len(),
    );

    // ── Act 1: healthy baseline ──────────────────────────────────────
    // Calibration shots carry their prepared states as ground truth;
    // serving them feeds the running fidelity/confusion estimates.
    let before_healthy = server.stats();
    client.classify_calibration_shots(clean_shots.clone()).map_err(serve)?;
    let healthy = server.stats();
    println!("act 1 — healthy calibration pass:");
    print_lane(&before_healthy, &healthy);

    // ── Act 2: the fridge drifts ─────────────────────────────────────
    // Raise each qubit's noise floor to DRIFT_FACTOR·σ by adding an
    // independent Gaussian component: σ_extra = σ·√(k²−1) on top of the
    // already-present σ gives a total of k·σ.
    let device = FiveQubitDevice::paper();
    let mut noise = GaussianSource::new(StdRng::seed_from_u64(2025));
    let drifted_shots: Vec<Shot> = clean_shots
        .iter()
        .map(|shot| {
            let mut shot = shot.clone();
            for (qb, trace) in shot.traces.iter_mut().enumerate() {
                let sigma_extra =
                    device.qubit(qb).noise_sigma * (DRIFT_FACTOR * DRIFT_FACTOR - 1.0).sqrt();
                noise.add_noise(&mut trace.i, sigma_extra);
                noise.add_noise(&mut trace.q, sigma_extra);
            }
            shot
        })
        .collect();

    // What the matched-filter physics model predicts the drift costs.
    println!("act 2 — noise floor rises to {DRIFT_FACTOR}×σ; matched-filter prediction:");
    for qb in 0..NUM_QUBITS {
        let calib = device.qubit(qb);
        let interference = device.crosstalk_interference(qb, &sim_config);
        let was = predict_mf_fidelity(calib, &sim_config, &interference);
        let drifted_calib = QubitCalibration {
            noise_sigma: calib.noise_sigma * DRIFT_FACTOR,
            ..*calib
        };
        let now = predict_mf_fidelity(&drifted_calib, &sim_config, &interference);
        println!("  qb{qb}: predicted fidelity {was:.4} -> {now:.4}");
    }

    // And what the live drift monitor actually observes.
    let before_drift = server.stats();
    client.classify_calibration_shots(drifted_shots.clone()).map_err(serve)?;
    let after_drift = server.stats();
    println!("drifted calibration pass, as seen by the running server:");
    print_lane(&before_drift, &after_drift);
    let mut alarmed = false;
    for qb in 0..NUM_QUBITS {
        let was = lane_fidelity(&before_healthy, &healthy, qb);
        let now = lane_fidelity(&before_drift, &after_drift, qb);
        if now < was - 0.01 {
            println!("  ALARM qb{qb}: fidelity {was:.4} -> {now:.4}");
            alarmed = true;
        }
    }
    if !alarmed {
        println!("  (drift below alarm threshold on every qubit this seed)");
    }
    println!();

    // ── Act 3: canary a re-distilled candidate ───────────────────────
    // The operational response: re-distill students from the cached
    // teachers — cheap next to a full retrain — at a shorter
    // integration window (the paper's Table II duration trade) and
    // stage the rebuilt system as a canary while traffic keeps flowing.
    let keep = design_samples * 3 / 4;
    println!("act 3 — re-distilling candidate at {keep}/{design_samples} samples …");
    let start = Instant::now();
    let candidate = Arc::new(primary.with_students(primary.students_at(keep)?, keep)?);
    println!("  candidate ready in {:.1}s", start.elapsed().as_secs_f32());

    let before_canary = server.stats();
    server.stage_canary(Arc::clone(&candidate), CANARY_FRACTION).map_err(serve)?;
    for _ in 0..4 {
        // Production traffic (classified, not scored) plus a trickle of
        // calibration shots — the operator's usual mix.
        client.classify_shots_opts(RequestOptions::new(), drifted_shots.clone()).map_err(serve)?;
        client.classify_calibration_shots(drifted_shots[..32].to_vec()).map_err(serve)?;
    }
    let canary = server.stats();
    let audition_shots = canary.canary_shots - before_canary.canary_shots;
    println!(
        "  canary auditioned {audition_shots} shots; divergence from primary: {}",
        canary
            .canary_divergence()
            .map_or("n/a".to_string(), |d| format!("{:.2}%", d * 100.0)),
    );

    // ── Act 4: promote ───────────────────────────────────────────────
    let v = server.promote_canary().map_err(serve)?;
    println!("act 4 — canary promoted: now serving model v{v}");
    let before_promoted = server.stats();
    client.classify_calibration_shots(drifted_shots).map_err(serve)?;
    let promoted = server.stats();
    println!("post-promotion calibration pass:");
    print_lane(&before_promoted, &promoted);

    let stats = server.shutdown();
    println!(
        "\nserved {} shots in {} requests over {} micro-batches; \
         {} model swap(s), final version v{}",
        stats.shots, stats.requests, stats.batches, stats.model_swaps, stats.model_version,
    );
    Ok(())
}

/// Per-qubit assignment fidelity over one calibration window (the
/// counter delta between two [`ServeStats`] snapshots).
fn lane_fidelity(before: &ServeStats, after: &ServeStats, qb: usize) -> f64 {
    let shots = (after.calib_shots - before.calib_shots) as f64;
    let errors = (after.calib_false_excited[qb] - before.calib_false_excited[qb])
        + (after.calib_false_ground[qb] - before.calib_false_ground[qb]);
    1.0 - errors as f64 / shots
}

/// Prints one calibration window: per-qubit fidelity and confusion.
fn print_lane(before: &ServeStats, after: &ServeStats) {
    for qb in 0..NUM_QUBITS {
        let shots = after.calib_shots - before.calib_shots;
        let fe = after.calib_false_excited[qb] - before.calib_false_excited[qb];
        let fg = after.calib_false_ground[qb] - before.calib_false_ground[qb];
        let prep_excited = after.calib_prepared_excited[qb] - before.calib_prepared_excited[qb];
        let prep_ground = shots - prep_excited;
        println!(
            "  qb{qb}: fidelity {:.4}  P(1|0) {:.4}  P(0|1) {:.4}",
            lane_fidelity(before, after, qb),
            fe as f64 / prep_ground.max(1) as f64,
            fg as f64 / prep_excited.max(1) as f64,
        );
    }
}
