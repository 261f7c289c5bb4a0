//! Batched, data-parallel readout: classify many shots across all five
//! qubits concurrently, with zero heap allocations on the hot path.
//!
//! The per-shot path ([`crate::KlinqSystem::measure_on`]) exists for mid-circuit
//! latency; evaluation and serving workloads instead see *throughput* —
//! thousands of buffered shots that all need discriminating. This module
//! chunks a shot batch over the persistent worker pool of the vendored
//! rayon work-alike and classifies each chunk with **cache-blocked fused
//! kernels over a structure-of-arrays block**: four shots at a time are
//! gathered into a lane-interleaved [`TraceBatch`], the fused front end
//! ([`klinq_dsp::FeaturePipeline::extract_batch_into`]) runs averaging,
//! matched filter and normalization while the block is L1-resident, and
//! the chunk's feature rows then go through one register-blocked GEMM per
//! qubit ([`klinq_nn::Fnn::logits_batch_with`] over
//! `Matrix::gemm_block`) instead of one network traversal per shot.
//!
//! Every buffer the chunk path touches lives in a per-worker
//! `ShotScratch` (the pool keeps its threads — and therefore these warm
//! buffers — alive across batches), so after warmup a batch classifies
//! with no allocator traffic at all. Scheduling never changes results:
//! outputs are written back in shot order and every prediction is
//! bitwise-identical to sequential [`KlinqDiscriminator::measure_on`] calls —
//! the fused kernels keep each lane's scalar summation order (see
//! `klinq_dsp::averaging` for the order policy), and the GEMM replays the
//! exact single-sample order (see `Dense::forward_infer_into`). Ragged
//! blocks (mixed trace lengths) fall back to the identical scalar path.
//!
//! The engine reads any [`ShotSource`]: a `&[Shot]` slice from simulation
//! or evaluation, a flat [`crate::ShotBlock`] decoded off the wire, or a
//! server's micro-batch of blocks ([`crate::BlockBatch`]) read in place.
//! Chunks and four-shot quads are indexed over the source as a whole, so
//! a quad may straddle two requests' blocks; the kernels see the same
//! four traces either way, and no output depends on where the source's
//! segments begin.
//!
//! The bit-accurate Q16.16 datapath is batched the same way:
//! [`BatchDiscriminator::classify_shots_on`] with [`Backend::Hardware`]
//! gathers the same SoA blocks and runs the fused fixed-point kernel
//! ([`klinq_fpga::FpgaDiscriminator::infer_batch_with`]) through
//! per-worker [`klinq_fpga::HwBatchScratch`] buffers — bitwise-identical
//! to per-shot `measure_on` because every fixed-point accumulator wraps.
//!
//! [`crate::KlinqSystem::evaluate_on`] routes through this engine, and the
//! `inference` criterion bench reports its shots/sec as the repo's
//! serving-throughput trajectory (see `BENCH_inference.json`).

use crate::backend::Backend;
use crate::block::ShotSource;
use crate::discriminator::KlinqDiscriminator;
use crate::eval::{assignment_fidelity, FidelityReport};
use klinq_dsp::TraceBatch;
use klinq_fpga::{HwBatchScratch, HwScratch};
use klinq_nn::{BatchScratch, InferenceScratch, Matrix};
use klinq_sim::{ReadoutDataset, Shot};
use rayon::prelude::*;
use std::cell::RefCell;

/// The per-shot output of the five independent discriminators,
/// qubit-ordered.
pub type ShotStates = [bool; 5];

/// Per-worker reusable buffers for the batched hot paths.
///
/// Workers of the persistent pool each own one (thread-local), so the
/// float and Q16.16 classification paths perform zero heap allocations
/// once the buffers have warmed up to the batch shape.
#[derive(Debug, Default)]
struct ShotScratch {
    /// One shot's feature row (per-shot float path).
    features: Vec<f32>,
    /// Network ping-pong buffers for the per-shot float path.
    nn: InferenceScratch,
    /// Packed feature rows of one chunk (GEMM path).
    x: Matrix,
    /// Network ping-pong matrices for the chunked GEMM path.
    batch: BatchScratch,
    /// Lane-interleaved SoA gather of one four-shot block (both backends).
    traces: TraceBatch,
    /// Interleaved intermediate features of the fused float front end.
    fused: Vec<f32>,
    /// Fixed-point buffers for the per-shot Q16.16 path.
    hw: HwScratch,
    /// Lane-interleaved fixed-point buffers for the batched Q16.16 path.
    hw_batch: HwBatchScratch,
}

thread_local! {
    /// The calling thread's scratch. Pool workers persist across batches,
    /// so these warm buffers are reused by every subsequent call.
    static SCRATCH: RefCell<ShotScratch> = RefCell::new(ShotScratch::default());
}

/// A batched front end over five per-qubit discriminators.
///
/// Borrow-only: construction is free, so building one per batch is fine.
#[derive(Debug, Clone, Copy)]
pub struct BatchDiscriminator<'a> {
    discriminators: &'a [KlinqDiscriminator],
    chunk_size: Option<usize>,
}

impl<'a> BatchDiscriminator<'a> {
    /// Wraps the five qubit-ordered discriminators of a trained system.
    ///
    /// # Panics
    ///
    /// Panics if `discriminators` does not hold exactly five entries
    /// (the device model of the paper) or if they are not qubit-ordered.
    pub fn new(discriminators: &'a [KlinqDiscriminator]) -> Self {
        assert_eq!(
            discriminators.len(),
            5,
            "BatchDiscriminator expects the five-qubit system"
        );
        for (idx, d) in discriminators.iter().enumerate() {
            assert_eq!(d.qubit(), idx, "discriminators must be qubit-ordered");
        }
        Self {
            discriminators,
            chunk_size: None,
        }
    }

    /// Overrides the scheduling chunk size (shots per parallel task).
    ///
    /// Purely a scheduling knob: results are identical for every chunk
    /// size. The default targets a few chunks per worker thread.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        self.chunk_size = Some(chunk_size);
        self
    }

    /// The chunk size that will be used for a batch of `n` shots.
    pub fn chunk_size_for(&self, n: usize) -> usize {
        if let Some(size) = self.chunk_size {
            return size;
        }
        let workers = rayon::current_num_threads();
        // Aim for ~4 chunks per worker so stragglers rebalance, with a
        // floor that keeps per-chunk overhead negligible for tiny batches
        // and a cap that bounds the per-worker scratch (the thread-local
        // buffers warm to one chunk's feature matrix and persist with the
        // pool) while keeping the GEMM working set cache-friendly.
        (n / (workers * 4)).clamp(8, 4096)
    }

    /// Classifies one shot on all five qubits through the calling
    /// thread's reusable scratch (zero allocations after warmup), on the
    /// chosen backend.
    ///
    /// Bitwise-identical to per-qubit
    /// [`KlinqDiscriminator::measure_on`] calls.
    pub fn classify_shot_on(&self, backend: Backend, shot: &Shot) -> ShotStates {
        SCRATCH.with(|s| self.classify_shot_on_with(backend, shot, &mut s.borrow_mut()))
    }

    /// [`Self::classify_shot_on`] with an explicit scratch.
    fn classify_shot_on_with(
        &self,
        backend: Backend,
        shot: &Shot,
        scratch: &mut ShotScratch,
    ) -> ShotStates {
        let mut states = [false; 5];
        for (qb, d) in self.discriminators.iter().enumerate() {
            let t = &shot.traces[qb];
            states[qb] = match backend {
                Backend::Float => {
                    let student = d.student();
                    scratch.features.clear();
                    scratch.features.resize(student.pipeline.input_dim(), 0.0);
                    student.pipeline.extract_into(&t.i, &t.q, &mut scratch.features);
                    student.net.predict_with(&scratch.features, &mut scratch.nn)
                }
                Backend::Hardware => d.hardware().infer_with(&t.i, &t.q, &mut scratch.hw),
            };
        }
        states
    }

    /// Classifies the chunk of shots `start..start + out.len()` with the
    /// fused SoA kernels and a batched forward pass per qubit: four shots
    /// at a time are gathered by index into the scratch's lane-interleaved
    /// [`TraceBatch`], the fused front end extracts their feature rows
    /// while the block is cache-resident, and the packed rows run through
    /// that qubit's student in a single register-blocked GEMM. Ragged
    /// blocks and the chunk tail take the bitwise-identical scalar path.
    fn classify_chunk_into<S: ShotSource + ?Sized>(
        &self,
        shots: &S,
        start: usize,
        out: &mut [ShotStates],
        scratch: &mut ShotScratch,
    ) {
        let (end, quads_end) = (start + out.len(), start + out.len() / 4 * 4);
        for (qb, d) in self.discriminators.iter().enumerate() {
            let student = d.student();
            scratch.x.resize(out.len(), student.pipeline.input_dim());
            let mut rows = scratch.x.iter_rows_mut();
            for base in (start..quads_end).step_by(4) {
                let traces: [(&[f32], &[f32]); 4] = std::array::from_fn(|k| shots.iq(base + k, qb));
                let mut rs: [&mut [f32]; 4] = std::array::from_fn(|_| {
                    rows.next().expect("matrix rows match the shot count")
                });
                if scratch.traces.gather(traces) {
                    student
                        .pipeline
                        .extract_batch_into(&scratch.traces, rs, &mut scratch.fused);
                } else {
                    // Ragged block: per-shot extraction, identical results.
                    for ((i, q), row) in traces.iter().zip(rs.iter_mut()) {
                        student.pipeline.extract_into(i, q, row);
                    }
                }
            }
            for (shot, row) in (quads_end..end).zip(rows) {
                let (i, q) = shots.iq(shot, qb);
                student.pipeline.extract_into(i, q, row);
            }
            let logits = student.net.logits_batch_with(&scratch.x, &mut scratch.batch);
            for (states, &logit) in out.iter_mut().zip(logits) {
                states[qb] = klinq_nn::Fnn::decide(logit);
            }
        }
    }

    /// The Q16.16 twin of [`Self::classify_chunk_into`]: the same SoA
    /// gather feeds the fused fixed-point kernel
    /// ([`klinq_fpga::FpgaDiscriminator::infer_batch_with`]) four shots at
    /// a time; ragged blocks and the chunk tail take the scalar
    /// [`klinq_fpga::FpgaDiscriminator::infer_with`] path (bitwise
    /// identical — every fixed-point accumulator wraps).
    fn classify_chunk_hw_into<S: ShotSource + ?Sized>(
        &self,
        shots: &S,
        start: usize,
        out: &mut [ShotStates],
        scratch: &mut ShotScratch,
    ) {
        let tail_start = start + out.len() / 4 * 4;
        for (qb, d) in self.discriminators.iter().enumerate() {
            let hw = d.hardware();
            let mut out_quads = out.chunks_exact_mut(4);
            for (base, out_quad) in (start..).step_by(4).zip(&mut out_quads) {
                let traces: [(&[f32], &[f32]); 4] = std::array::from_fn(|k| shots.iq(base + k, qb));
                if scratch.traces.gather(traces) {
                    let details = hw.infer_batch_with(&scratch.traces, &mut scratch.hw_batch);
                    for (states, detail) in out_quad.iter_mut().zip(details) {
                        states[qb] = detail.excited;
                    }
                } else {
                    for ((i, q), states) in traces.iter().zip(out_quad.iter_mut()) {
                        states[qb] = hw.infer_with(i, q, &mut scratch.hw);
                    }
                }
            }
            for (shot, states) in (tail_start..).zip(out_quads.into_remainder()) {
                let (i, q) = shots.iq(shot, qb);
                states[qb] = hw.infer_with(i, q, &mut scratch.hw);
            }
        }
    }

    /// Shared parallel driver: chunks the batch over the pool and lets
    /// `per_chunk` fill each output chunk — given the source and the
    /// chunk's first shot index — through the worker's scratch.
    /// Writeback is index-ordered, so output `i` is always shot `i`.
    fn classify_batch<S, F>(&self, shots: &S, per_chunk: F) -> Vec<ShotStates>
    where
        S: ShotSource + ?Sized,
        F: Fn(&S, usize, &mut [ShotStates], &mut ShotScratch) + Sync,
    {
        let n = shots.shot_count();
        if n == 0 {
            return Vec::new();
        }
        let chunk = self.chunk_size_for(n);
        let mut out = vec![[false; 5]; n];
        out.par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(ci, out_chunk)| {
                SCRATCH.with(|s| per_chunk(shots, ci * chunk, out_chunk, &mut s.borrow_mut()));
            });
        out
    }

    /// Classifies a batch of shots in parallel on the chosen backend —
    /// the single generic batch entry point, for any [`ShotSource`]: a
    /// `&[Shot]` slice, a flat [`crate::ShotBlock`], or a server's
    /// micro-batch of blocks ([`crate::BlockBatch`]).
    ///
    /// Output index `i` is always shot `i`'s states, regardless of thread
    /// scheduling or of where the source's segments begin, and every
    /// value is bitwise-identical to [`Self::classify_shot_on`] (and
    /// therefore to sequential [`KlinqDiscriminator::measure_on`]) on that
    /// shot. Both backends gather four-shot SoA blocks into per-worker
    /// scratch and run the fused cache-blocked kernels — the float
    /// backend finishing each chunk with one register-blocked GEMM per
    /// qubit, the Q16.16 backend with the fused fixed-point datapath —
    /// allocation-free after warmup.
    pub fn classify_shots_on<S: ShotSource + ?Sized>(
        &self,
        backend: Backend,
        shots: &S,
    ) -> Vec<ShotStates> {
        match backend {
            Backend::Float => self.classify_batch(shots, |s, start, out, scratch| {
                self.classify_chunk_into(s, start, out, scratch);
            }),
            Backend::Hardware => self.classify_batch(shots, |s, start, out, scratch| {
                self.classify_chunk_hw_into(s, start, out, scratch);
            }),
        }
    }

    /// Per-qubit assignment fidelities of a prediction set over a dataset.
    fn report_from(predictions: &[ShotStates], data: &ReadoutDataset) -> FidelityReport {
        let fidelities = (0..5)
            .map(|qb| {
                let labels = data.qubit_labels(qb);
                let preds: Vec<bool> = predictions.iter().map(|s| s[qb]).collect();
                assignment_fidelity(&preds, &labels)
            })
            .collect();
        FidelityReport::new(fidelities)
    }

    /// Batched assignment-fidelity evaluation over a dataset at the full
    /// trace length, on the chosen backend.
    ///
    /// Produces exactly the same report as evaluating each qubit with
    /// sequential [`KlinqDiscriminator::measure_on`] calls — the
    /// parallelism never changes a prediction, only the wall-clock cost.
    pub fn evaluate_on(&self, backend: Backend, data: &ReadoutDataset) -> FidelityReport {
        Self::report_from(&self.classify_shots_on(backend, data.shots()), data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::smoke_system;
    use crate::KlinqSystem;

    fn assert_batch_matches_sequential(backend: Backend) {
        let sys = smoke_system();
        let batch = BatchDiscriminator::new(sys.discriminators());
        let shots = sys.test_data().shots();
        let batched = batch.classify_shots_on(backend, shots);
        assert_eq!(batched.len(), shots.len());
        for (shot, states) in shots.iter().zip(&batched) {
            // The chunked result, the scratch per-shot path, and the
            // sequential allocating reference must all agree exactly.
            assert_eq!(*states, batch.classify_shot_on(backend, shot));
            for (qb, (state, t)) in states.iter().zip(&shot.traces).enumerate() {
                let sequential = sys.measure_on(backend, qb, &t.i, &t.q);
                assert_eq!(*state, sequential, "qubit {qb} diverged on {backend}");
            }
        }
    }

    #[test]
    fn batch_matches_sequential_bitwise() {
        assert_batch_matches_sequential(Backend::Float);
    }

    #[test]
    fn hw_batch_matches_sequential_measure_hw() {
        assert_batch_matches_sequential(Backend::Hardware);
    }

    #[test]
    fn chunk_size_never_changes_results() {
        let sys = smoke_system();
        let shots = sys.test_data().shots();
        for backend in Backend::ALL {
            let reference =
                BatchDiscriminator::new(sys.discriminators()).classify_shots_on(backend, shots);
            for chunk_size in [1, 3, 7, 64, shots.len() + 1] {
                let batch =
                    BatchDiscriminator::new(sys.discriminators()).with_chunk_size(chunk_size);
                assert_eq!(
                    batch.classify_shots_on(backend, shots),
                    reference,
                    "chunk size {chunk_size} diverged on {backend}"
                );
            }
        }
    }

    /// `KlinqSystem::evaluate_on` routes through the batch engine; the
    /// sequential reference is the per-discriminator `fidelity_on`.
    fn assert_batched_evaluate_matches_per_qubit_fidelity(sys: &KlinqSystem, backend: Backend) {
        let data = sys.test_data();
        let batched = sys.evaluate_on(backend);
        for qb in 0..5 {
            let sequential = sys.discriminator(qb).fidelity_on(backend, data, usize::MAX);
            assert_eq!(
                batched.qubit(qb),
                sequential,
                "qubit {qb} fidelity diverged on {backend}"
            );
        }
    }

    #[test]
    fn batched_evaluate_matches_sequential_evaluate() {
        let sys = smoke_system();
        assert_batched_evaluate_matches_per_qubit_fidelity(sys, Backend::Float);
        // `evaluate_at` at the design duration is the float sequential path.
        let samples = sys.test_data().samples();
        assert_eq!(sys.evaluate_on(Backend::Float), sys.evaluate_at(samples));
    }

    #[test]
    fn batched_evaluate_hw_matches_per_qubit_fidelity_hw() {
        let sys = smoke_system();
        assert_batched_evaluate_matches_per_qubit_fidelity(sys, Backend::Hardware);
    }

    #[test]
    fn empty_batch_is_empty() {
        let sys = smoke_system();
        let batch = BatchDiscriminator::new(sys.discriminators());
        for backend in Backend::ALL {
            assert!(batch.classify_shots_on(backend, &[] as &[Shot]).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "five-qubit system")]
    fn wrong_discriminator_count_rejected() {
        let sys = smoke_system();
        let _ = BatchDiscriminator::new(&sys.discriminators()[..3]);
    }

    #[test]
    fn ragged_trace_lengths_fall_back_to_the_scalar_path_bitwise() {
        let sys = smoke_system();
        // Chunk size 6 ⇒ one gathered quad plus a 2-shot tail per chunk.
        let batch = BatchDiscriminator::new(sys.discriminators()).with_chunk_size(6);
        // Truncate every third shot so some SoA gathers see mixed trace
        // lengths and must reject the block (the fallback is exact, so
        // predictions still match the per-shot path everywhere).
        let mut shots: Vec<Shot> = sys.test_data().shots()[..26].to_vec();
        let keep = sys.test_data().samples() * 3 / 4;
        for shot in shots.iter_mut().skip(1).step_by(3) {
            for t in &mut shot.traces {
                t.i.truncate(keep);
                t.q.truncate(keep);
            }
        }
        for backend in Backend::ALL {
            let batched = batch.classify_shots_on(backend, &shots);
            for (idx, (shot, states)) in shots.iter().zip(&batched).enumerate() {
                assert_eq!(
                    *states,
                    batch.classify_shot_on(backend, shot),
                    "shot {idx} diverged on {backend}"
                );
            }
        }
    }

    #[test]
    fn a_batch_of_blocks_is_bitwise_identical_across_request_boundaries() {
        use crate::{BlockBatch, ShotBlock};
        let sys = smoke_system();
        // Requests of 1, 3, 2, 5 and 7 shots, plus one (after the second)
        // whose shots are truncated to three different lengths: quads
        // straddle request boundaries, and every quad touching the
        // truncated request is ragged and takes the scalar fallback.
        let sizes = [1, 3, 3, 2, 5, 7];
        let truncated = 2;
        let mut shots: Vec<Shot> = sys.test_data().shots()[..sizes.iter().sum()].to_vec();
        let keep = sys.test_data().samples() * 3 / 4;
        let mut blocks = Vec::new();
        let mut at = 0;
        for (b, &n) in sizes.iter().enumerate() {
            if b == truncated {
                for (k, shot) in shots[at..at + n].iter_mut().enumerate() {
                    for t in &mut shot.traces {
                        t.i.truncate(keep - 2 * k);
                        t.q.truncate(keep - 2 * k);
                    }
                }
            }
            blocks.push(ShotBlock::from(&shots[at..at + n]));
            at += n;
        }
        let batch = BlockBatch::new(&blocks);
        let whole = ShotBlock::from(&shots[..]);
        for backend in Backend::ALL {
            for chunk in [None, Some(1), Some(3), Some(5), Some(64)] {
                let mut engine = BatchDiscriminator::new(sys.discriminators());
                if let Some(c) = chunk {
                    engine = engine.with_chunk_size(c);
                }
                let direct = engine.classify_shots_on(backend, &shots[..]);
                assert_eq!(engine.classify_shots_on(backend, &batch), direct, "{backend} {chunk:?}");
                assert_eq!(engine.classify_shots_on(backend, &whole), direct, "{backend} {chunk:?}");
                for (k, shot) in shots.iter().enumerate() {
                    assert_eq!(direct[k], engine.classify_shot_on(backend, shot), "shot {k} on {backend}");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        #[test]
        fn any_chunk_size_is_bitwise_identical_to_per_shot(chunk in 1usize..512) {
            // The fused kernels see `chunk`-row blocks whose SoA-quad /
            // scalar-tail split depends on the chunk size; none of it may
            // ever change a prediction, on either backend.
            let sys = smoke_system();
            let batch = BatchDiscriminator::new(sys.discriminators()).with_chunk_size(chunk);
            let shots = sys.test_data().shots();
            let chunked = batch.classify_shots_on(Backend::Float, shots);
            for (shot, states) in shots.iter().zip(&chunked) {
                proptest::prop_assert_eq!(*states, batch.classify_shot_on(Backend::Float, shot));
            }
            // The Q16.16 path shares the gather logic; spot-check a prefix
            // that still exercises quads and tails.
            let hw_shots = &shots[..67.min(shots.len())];
            let hw = batch.classify_shots_on(Backend::Hardware, hw_shots);
            for (shot, states) in hw_shots.iter().zip(&hw) {
                proptest::prop_assert_eq!(*states, batch.classify_shot_on(Backend::Hardware, shot));
            }
        }
    }
}
