// lint-fixture: path=crates/klinq-core/src/teacher.rs
//! The rest of klinq-core is off the serving path: training code may
//! assert its invariants and time itself.

fn unscoped(v: Option<u32>) -> u32 {
    let _started = Instant::now();
    v.expect("trained")
}
