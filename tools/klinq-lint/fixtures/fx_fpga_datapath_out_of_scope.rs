// lint-fixture: path=crates/klinq-fpga/src/latency.rs
//! The structural latency and resource models beside the datapath are
//! out of `determinism` scope: nothing there has a bitwise oracle.

fn timed_model() {
    let _started = Instant::now();
}
