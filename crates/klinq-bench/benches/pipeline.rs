//! End-to-end pipeline benchmarks: trace generation and feature
//! extraction throughput (the readout-rate bound of a software
//! discriminator, contrasting the FPGA's fixed 32 ns).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use klinq_core::experiments::ExperimentConfig;
use klinq_core::{Backend, KlinqSystem};
use klinq_sim::{FiveQubitDevice, ReadoutDataset, SimConfig};
use std::hint::black_box;

fn bench_simulation(c: &mut Criterion) {
    let device = FiveQubitDevice::paper();
    let config = SimConfig::default();
    let mut group = c.benchmark_group("simulation");
    group.throughput(Throughput::Elements(32));
    group.bench_function("generate_32_shots_1us", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(ReadoutDataset::generate(&device, &config, 32, seed))
        });
    });
    group.finish();
}

fn bench_feature_extraction(c: &mut Criterion) {
    let system = KlinqSystem::train(&ExperimentConfig::smoke()).expect("train smoke system");
    let shot = system.test_data().shot(0).clone();
    let mut group = c.benchmark_group("feature_pipeline");
    // FNN-A features (31-dim) and FNN-B features (201-dim).
    for (name, qb) in [("fnn_a", 0usize), ("fnn_b", 1usize)] {
        let pipe = &system.discriminator(qb).student().pipeline;
        let t = &shot.traces[qb];
        group.bench_function(name, |b| {
            b.iter(|| black_box(pipe.extract(black_box(&t.i), black_box(&t.q))));
        });
    }
    group.finish();
}

fn bench_batch_readout(c: &mut Criterion) {
    let system = KlinqSystem::train(&ExperimentConfig::smoke()).expect("train smoke system");
    let data = system.test_data();
    let mut group = c.benchmark_group("batch_readout");
    group.throughput(Throughput::Elements(data.len() as u64));
    group.bench_function("five_qubit_full_testset", |b| {
        b.iter(|| black_box(system.evaluate_on(Backend::Float)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simulation,
    bench_feature_extraction,
    bench_batch_readout
);
criterion_main!(benches);
