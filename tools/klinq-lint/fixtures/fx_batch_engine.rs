// lint-fixture: path=crates/klinq-core/src/batch.rs
//! The batch engine is under `determinism`: served-equals-direct rests
//! on it. It is not under `no-panic-serve` — it asserts its invariants.

fn firing() {
    let _started = Instant::now(); //~ determinism
    let _rng = thread_rng(); //~ determinism
}

fn engine_may_assert(rows: Option<&[f32]>) -> usize {
    rows.expect("matrix rows match the shot count").len()
}
