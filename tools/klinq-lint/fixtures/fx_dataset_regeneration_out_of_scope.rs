// lint-fixture: path=crates/klinq-sim/tests/generation_speed.rs
//! The simulator's integration tests are out of `determinism` scope:
//! only its `src/` feeds a loaded system's datasets.

fn timed_generation() {
    let _started = Instant::now();
}
