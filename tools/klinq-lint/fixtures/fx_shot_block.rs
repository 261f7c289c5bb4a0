// lint-fixture: path=crates/klinq-core/src/block.rs
//! The shot block is on the serving path — the reactor's decoder fills
//! it — and served-equals-direct reads it, so both `no-panic-serve` and
//! `determinism` cover it although it lives in klinq-core.

fn firing(v: Option<usize>) -> usize {
    let _stamp = Instant::now(); //~ determinism
    v.unwrap() //~ no-panic-serve
}

fn out_of_range_reads_index_like_a_slice(spans: &[usize], shot: usize) -> usize {
    spans[shot]
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_and_time() {
        let _ = Instant::now();
        assert_eq!(Some(1).unwrap(), 1);
    }
}
