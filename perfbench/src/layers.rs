//! Per-layer replays: each layer timed from outside, by calling its
//! public functions on the run's own shots, payloads and batch sizes.

use crate::fixture::{Fixture, Rng};
use crate::gen::Kind;
use crate::trace::Tracer;
use klinq_core::{Backend, BatchDiscriminator};
use klinq_dsp::TraceBatch;
use klinq_fpga::{HwBatchScratch, HwScratch};
use klinq_nn::{BatchScratch, Matrix};
use klinq_serve::wire::codec;
use klinq_serve::Priority;
use klinq_sim::Shot;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall clock each replay measures for (after one warm pass).
const REPLAY: Duration = Duration::from_millis(150);
/// Four-shot blocks the kernel replays stream over.
const BLOCKS: usize = 256;

/// Repeats `f` for at least [`REPLAY`] and 5 repetitions; returns the
/// median wall time of one repetition in ns. Each repetition is a span.
fn timed(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    f();
    let begin = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < 5 || begin.elapsed() < REPLAY {
        let t = Instant::now();
        f();
        let done = Instant::now();
        tracer.span(None, name, 0, tracer.at(t), tracer.at(done));
        reps.push((done - t).as_secs_f64() * 1e9);
    }
    crate::stats::median(&reps).unwrap_or(0.0)
}

pub struct CodecCosts {
    pub req_encode_ns_per_shot: f64,
    pub req_decode_ns_per_shot: f64,
    pub resp_ns: f64,
}

/// Times the request codec on `sample` (the run's own requests: kind,
/// pool start, shot count) and the response codec on their answers.
pub fn codec(
    fx: &Fixture,
    sample: &[(Kind, usize, usize)],
    tenants: bool,
    tracer: &mut Tracer,
) -> CodecCosts {
    let shots: usize = sample.iter().map(|s| s.2).sum::<usize>().max(1);
    let encode = |&(kind, start, count): &(Kind, usize, usize)| {
        let (priority, tenant) = match kind {
            Kind::Mid => (Priority::Latency, 0),
            Kind::Bulk => (Priority::Throughput, u32::from(tenants)),
        };
        codec::encode_request_opts(
            1,
            0,
            priority,
            tenant,
            0,
            false,
            &fx.pool[start..start + count],
        )
    };
    let enc = timed(tracer, "wire.codec.req_encode", || {
        for s in sample {
            black_box(encode(s));
        }
    });
    let payloads: Vec<Vec<u8>> = sample.iter().map(encode).collect();
    let dec = timed(tracer, "wire.codec.req_decode", || {
        for p in &payloads {
            black_box(codec::decode_message(p).is_ok());
        }
    });
    let resp = timed(tracer, "wire.codec.resp", || {
        for &(_, start, count) in sample {
            let payload = codec::encode_response(1, &fx.oracle[start..start + count]);
            black_box(codec::decode_message(&payload).is_ok());
        }
    });
    CodecCosts {
        req_encode_ns_per_shot: enc / shots as f64,
        req_decode_ns_per_shot: dec / shots as f64,
        resp_ns: resp / sample.len().max(1) as f64,
    }
}

pub struct EngineCosts {
    pub batch_us: f64,
    pub shots_per_s: f64,
    pub pool_speedup: f64,
}

/// Direct `classify_shots_on` at `batch` shots, against a sequential
/// `classify_shot_on` loop over the same shots.
pub fn engine(
    fx: &Fixture,
    backend: Backend,
    batch: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> EngineCosts {
    let engine = BatchDiscriminator::new(fx.system.discriminators());
    let batch = batch.clamp(1, fx.pool.len());
    let mut rng = Rng::new(seed);
    let mut slice = || {
        let start = rng.below(fx.pool.len() - batch + 1);
        &fx.pool[start..start + batch]
    };
    let batch_ns = timed(tracer, "engine.classify_shots_on", || {
        black_box(engine.classify_shots_on(backend, slice()));
    });
    let seq_ns = timed(tracer, "engine.classify_shot_on_loop", || {
        for shot in slice() {
            black_box(engine.classify_shot_on(backend, shot));
        }
    });
    EngineCosts {
        batch_us: batch_ns / 1e3,
        shots_per_s: batch as f64 / (batch_ns * 1e-9),
        pool_speedup: seq_ns / batch_ns,
    }
}

pub struct KernelCosts {
    pub gather_ns_per_block: f64,
    pub extract_batch_fnn_a_ns: f64,
    pub extract_batch_fnn_b_ns: f64,
    /// Scalar extraction, one shot, all five qubits.
    pub extract_ns: f64,
    /// Batched logits per shot (row) at the engine's chunk size.
    pub logits_batch_fnn_a_ns: f64,
    pub logits_batch_fnn_b_ns: f64,
    /// Q16.16 batch inference, one block, all five qubits.
    pub infer_batch_ns: f64,
    /// Q16.16 scalar inference, one shot, all five qubits.
    pub infer_ns: f64,
}

/// Qubit 0 runs FNN-A (31 inputs), qubit 1 FNN-B (201 inputs).
const FNN_A_QUBIT: usize = 0;
const FNN_B_QUBIT: usize = 1;

fn quad(shots: &[Shot], qb: usize) -> [(&[f32], &[f32]); 4] {
    std::array::from_fn(|k| (&shots[k].traces[qb].i[..], &shots[k].traces[qb].q[..]))
}

/// Times the DSP, NN and Q16.16 kernels over [`BLOCKS`] four-shot
/// blocks of the pool; `batch` (the server's mean batch) sets the GEMM's
/// row count to the engine's chunk size for it.
pub fn kernels(fx: &Fixture, batch: usize, seed: u64, tracer: &mut Tracer) -> KernelCosts {
    let d = fx.system.discriminators();
    let start = 4 * Rng::new(seed).below(fx.pool.len() / 4 - BLOCKS + 1);
    let shots = &fx.pool[start..start + 4 * BLOCKS];
    let gathered = |qb: usize| -> Vec<TraceBatch> {
        shots
            .chunks_exact(4)
            .map(|q| {
                let mut tb = TraceBatch::new();
                assert!(tb.gather(quad(q, qb)), "pool shots share one trace length");
                tb
            })
            .collect()
    };
    let blocks: Vec<Vec<TraceBatch>> = (0..5).map(gathered).collect();

    let mut tb = TraceBatch::new();
    let gather = timed(tracer, "dsp.gather", || {
        for q in shots.chunks_exact(4) {
            black_box(tb.gather(quad(q, FNN_A_QUBIT)));
        }
    });

    let mut extract_batch = |qb: usize, name: &'static str| {
        let pipeline = &d[qb].student().pipeline;
        let mut rows = Matrix::zeros(4, pipeline.input_dim());
        let mut scratch = Vec::new();
        timed(tracer, name, || {
            for b in &blocks[qb] {
                let mut it = rows.iter_rows_mut();
                let out: [&mut [f32]; 4] = std::array::from_fn(|_| it.next().expect("four rows"));
                pipeline.extract_batch_into(b, out, &mut scratch);
            }
            black_box(&rows);
        }) / BLOCKS as f64
    };
    let extract_a = extract_batch(FNN_A_QUBIT, "dsp.extract_batch_fnn_a");
    let extract_b = extract_batch(FNN_B_QUBIT, "dsp.extract_batch_fnn_b");

    let mut feats: Vec<Vec<f32>> = d
        .iter()
        .map(|x| vec![0.0; x.student().pipeline.input_dim()])
        .collect();
    let extract = timed(tracer, "dsp.extract", || {
        for shot in shots {
            for (qb, f) in feats.iter_mut().enumerate() {
                d[qb]
                    .student()
                    .pipeline
                    .extract_into(&shot.traces[qb].i, &shot.traces[qb].q, f);
            }
            black_box(&feats);
        }
    }) / shots.len() as f64;

    let batch = batch.clamp(1, fx.pool.len());
    let rows = BatchDiscriminator::new(d).chunk_size_for(batch).min(batch);
    let mut logits = |qb: usize, name: &'static str| {
        let student = d[qb].student();
        let mut x = Matrix::zeros(rows, student.pipeline.input_dim());
        for (row, shot) in x.iter_rows_mut().zip(shots.iter().cycle()) {
            student
                .pipeline
                .extract_into(&shot.traces[qb].i, &shot.traces[qb].q, row);
        }
        let mut scratch = BatchScratch::new();
        timed(tracer, name, || {
            black_box(student.net.logits_batch_with(&x, &mut scratch).len());
        }) / rows as f64
    };
    let logits_a = logits(FNN_A_QUBIT, "nn.logits_batch_fnn_a");
    let logits_b = logits(FNN_B_QUBIT, "nn.logits_batch_fnn_b");

    let mut hw_batch = HwBatchScratch::new();
    let infer_batch = timed(tracer, "fpga.infer_batch", || {
        for (disc, qubit_blocks) in d.iter().zip(&blocks) {
            for b in qubit_blocks {
                black_box(disc.hardware().infer_batch_with(b, &mut hw_batch));
            }
        }
    }) / BLOCKS as f64;
    let mut hw = HwScratch::new();
    let infer = timed(tracer, "fpga.infer", || {
        for shot in shots {
            for (qb, disc) in d.iter().enumerate() {
                black_box(disc.hardware().infer_with(
                    &shot.traces[qb].i,
                    &shot.traces[qb].q,
                    &mut hw,
                ));
            }
        }
    }) / shots.len() as f64;

    KernelCosts {
        gather_ns_per_block: gather / BLOCKS as f64,
        extract_batch_fnn_a_ns: extract_a,
        extract_batch_fnn_b_ns: extract_b,
        extract_ns: extract,
        logits_batch_fnn_a_ns: logits_a,
        logits_batch_fnn_b_ns: logits_b,
        infer_batch_ns: infer_batch,
        infer_ns: infer,
    }
}

impl KernelCosts {
    /// Modelled kernel time of one `batch`-shot engine call on `backend`:
    /// the per-block and per-shot replays scaled to the batch.
    pub fn batch_us(&self, backend: Backend, batch: usize) -> f64 {
        let blocks = (batch / 4) as f64;
        let tail = (batch % 4) as f64;
        let ns = match backend {
            Backend::Float => {
                // Three FNN-A and two FNN-B qubits per shot.
                let per_block = 5.0 * self.gather_ns_per_block
                    + 3.0 * self.extract_batch_fnn_a_ns
                    + 2.0 * self.extract_batch_fnn_b_ns;
                let per_shot = 3.0 * self.logits_batch_fnn_a_ns + 2.0 * self.logits_batch_fnn_b_ns;
                blocks * per_block + tail * self.extract_ns + batch as f64 * per_shot
            }
            Backend::Hardware => {
                blocks * (5.0 * self.gather_ns_per_block + self.infer_batch_ns)
                    + tail * self.infer_ns
            }
        };
        ns / 1e3
    }
}
