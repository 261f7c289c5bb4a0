//! KLiNQ: knowledge-distillation-assisted lightweight qubit-readout
//! discriminators — the paper's primary contribution.
//!
//! This crate assembles the substrates (`klinq-sim`, `klinq-dsp`,
//! `klinq-nn`, `klinq-fpga`) into the complete system of the DAC 2025
//! paper:
//!
//! 1. Train a large per-qubit **teacher** FNN on raw 1 µs I/Q traces
//!    ([`teacher`]); the same architecture doubles as the Baseline FNN of
//!    Lienhard et al. in the comparisons.
//! 2. Fit each qubit's **feature pipeline** (interval averaging + matched
//!    filter + normalization) and **distill** the teacher into a tiny
//!    student — FNN-A (31→16→8→1) for the high-SNR qubits 1, 4, 5 and
//!    FNN-B (201→16→8→1) for the noisy qubits 2, 3 ([`student`],
//!    [`distill`]).
//! 3. Deploy the students as independent per-qubit discriminators capable
//!    of **mid-circuit measurement** ([`discriminator`]), optionally
//!    compiled to the bit-accurate FPGA datapath.
//! 4. Compare against **baselines** ([`baselines`]): the raw-trace
//!    Baseline FNN, a HERQULES-style matched-filter + FNN, a post-training
//!    quantized FNN, and a classical matched-filter threshold.
//! 5. Reproduce every table and figure of the evaluation
//!    ([`experiments`]).
//!
//! # Examples
//!
//! ```no_run
//! use klinq_core::experiments::ExperimentConfig;
//! use klinq_core::{Backend, KlinqSystem};
//!
//! let config = ExperimentConfig::smoke();
//! let system = KlinqSystem::train(&config)?;
//! let report = system.evaluate_on(Backend::Float);
//! println!("F5Q = {:.3}", report.geometric_mean());
//! // Mid-circuit: read qubit 3 alone from a fresh trace.
//! let shot = system.test_data().shot(0);
//! let state = system.measure_on(Backend::Float, 3, &shot.traces[3].i, &shot.traces[3].q);
//! println!("qubit 3 is {}", if state { "|1>" } else { "|0>" });
//! # Ok::<(), klinq_core::KlinqError>(())
//! ```

#![forbid(unsafe_code)]

pub mod backend;
pub mod baselines;
pub mod batch;
pub mod block;
pub mod discriminator;
pub mod distill;
pub mod error;
pub mod eval;
pub mod experiments;
pub mod joint;
pub mod params;
pub mod persist;
pub mod student;
pub mod teacher;
pub mod testkit;

pub use backend::Backend;
pub use batch::{BatchDiscriminator, ShotStates};
pub use block::{BlockBatch, ShotBlock, ShotSource};
pub use discriminator::{KlinqDiscriminator, KlinqSystem};
pub use error::KlinqError;
pub use eval::FidelityReport;
pub use student::StudentArch;

pub mod stat_floors {
    //! Named floors for the statistically fragile tests.
    //!
    //! Two tests sit close to their floors because their fidelity depends
    //! on the exact RNG stream at smoke scale:
    //! `baselines::herqules::tests::truncated_evaluation_works` and
    //! `joint::tests::joint_discriminator_reads_all_qubits`. The floors
    //! live here so every threshold is in one place next to the policy.
    //!
    //! **Policy (see ROADMAP "Statistical-threshold fragility"):** when a
    //! floor flakes after touching the vendored rand or any training
    //! code, raise the test's shots/epochs until the margin returns —
    //! never loosen the floor itself, which would let a real fidelity
    //! regression through.

    /// HERQULES smoke fidelity at the full trace duration.
    pub const HERQULES_SMOKE_FIDELITY: f64 = 0.68;
    /// HERQULES final training accuracy at smoke scale.
    pub const HERQULES_TRAIN_ACCURACY: f64 = 0.70;
    /// HERQULES fidelity when evaluating at half the trained duration
    /// (the filter is fit at the full duration, so truncation shifts the
    /// feature distribution — clearly-above-chance is the bar).
    pub const HERQULES_TRUNCATED_FIDELITY: f64 = 0.55;
    /// Joint-discriminator per-qubit floor (above-chance on every qubit).
    pub const JOINT_PER_QUBIT_FIDELITY: f64 = 0.55;
    /// Relaxed floor for qubit 2, the hardest qubit at smoke scale.
    pub const JOINT_WEAK_QUBIT_FIDELITY: f64 = 0.5;
    /// Joint-discriminator geometric-mean floor.
    pub const JOINT_GEOMEAN_FIDELITY: f64 = 0.6;
    /// Joint-discriminator final training accuracy.
    pub const JOINT_TRAIN_ACCURACY: f64 = 0.7;

    /// Matched-filter smoke fidelity on the hardest per-qubit split.
    pub const MF_SMOKE_FIDELITY: f64 = 0.6;
    /// Matched-filter fidelity at the full trained shot budget.
    pub const MF_FULL_SHOT_FIDELITY: f64 = 0.9;
    /// Matched-filter fidelity when evaluated at half the shot budget.
    pub const MF_HALF_SHOT_FIDELITY: f64 = 0.75;
    /// Distilled-student fidelity after teacher-guided training.
    pub const STUDENT_DISTILL_FIDELITY: f64 = 0.72;
    /// Student training accuracy in the supervised (no-teacher) ablation.
    pub const STUDENT_SUPERVISED_ACCURACY: f64 = 0.72;
    /// Teacher smoke fidelity on a held-out split.
    pub const TEACHER_SMOKE_FIDELITY: f64 = 0.72;
    /// Teacher final training accuracy at smoke scale.
    pub const TEACHER_TRAIN_ACCURACY: f64 = 0.80;

    /// End-to-end smoke floors for the workspace-level integration test
    /// (`tests/baselines.rs`), which trains on a larger shared dataset
    /// than the per-crate unit smokes.
    pub const SMOKE_E2E_MF_FIDELITY: f64 = 0.78;
    /// HERQULES floor in the workspace-level integration test.
    pub const SMOKE_E2E_HERQULES_FIDELITY: f64 = 0.68;
    /// Teacher floor in the workspace-level integration test.
    pub const SMOKE_E2E_TEACHER_FIDELITY: f64 = 0.70;
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for this crate's unit-test binary.

    use crate::discriminator::KlinqSystem;
    use std::path::PathBuf;
    use std::sync::OnceLock;

    /// One smoke-scale system shared across every test module
    /// (discriminator, batch, experiments, persist): training dominates
    /// the suite's wall clock, and all consumers take `&`-access, so
    /// each test binary trains at most once — and usually zero times,
    /// because the fixture is disk-cached across binaries through
    /// [`crate::testkit`]. Unit tests get no `CARGO_TARGET_TMPDIR`, so
    /// the cache directory is derived the way cargo derives it:
    /// `$CARGO_TARGET_DIR/tmp` when the target dir is relocated, the
    /// workspace's `target/tmp` otherwise — keeping it the same file
    /// the integration tests and benches use.
    pub(crate) fn smoke_system() -> &'static KlinqSystem {
        static SYS: OnceLock<KlinqSystem> = OnceLock::new();
        SYS.get_or_init(|| {
            let cache_dir = std::env::var_os("CARGO_TARGET_DIR")
                .map(|d| PathBuf::from(d).join("tmp"))
                .unwrap_or_else(|| {
                    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"))
                });
            crate::testkit::cached_smoke_system(&cache_dir)
        })
    }
}
