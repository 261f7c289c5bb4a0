// lint-fixture: path=crates/klinq-core/src/experiments/table1.rs
//! Experiment drivers around the engine are out of `determinism` scope:
//! they legitimately time what they run.

fn timed_run() {
    let _started = Instant::now();
}
