// lint-fixture: path=crates/klinq-sim/src/dataset.rs
//! The simulator is under `determinism`: a loaded system regenerates
//! its datasets from the config's seeds, and load-then-evaluate must
//! equal train-then-evaluate.

fn firing() {
    let _started = Instant::now(); //~ determinism
    let _rng = thread_rng(); //~ determinism
    let _coin: bool = rand::random(); //~ determinism
}

fn seeded_generation_is_fine(seed: u64) {
    let _rng = StdRng::seed_from_u64(seed);
}
