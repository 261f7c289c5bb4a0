// lint-fixture: path=crates/klinq-fpga/src/engine.rs
//! The Q16.16 datapath is under `determinism`: each batched lane must
//! equal the per-shot inference, bit for bit.

fn firing() {
    let _started = Instant::now(); //~ determinism
    let _rng = thread_rng(); //~ determinism
}

fn seeded_weights_are_fine(seed: u64) {
    let _rng = StdRng::seed_from_u64(seed);
}
