//! Flat shot storage for the serving path, and the one trait the batch
//! engine reads shots through.
//!
//! A [`Shot`] owns one `Vec<f32>` per channel per qubit — ten heap
//! allocations for a five-qubit shot — plus simulator labels that
//! classification never reads. That shape suits simulation and training.
//! It does not suit a server that receives shots as frame bytes and hands
//! them to the kernels. A [`ShotBlock`] holds every trace's I and then Q
//! samples back to back in one `Vec<f32>`, in wire order, plus one span per
//! trace and one trace start per shot: at most three allocations per
//! request, whatever its shot count. The wire decoder fills a block straight from
//! the frame bytes, and the engine reads it in place, so a served shot's
//! samples are copied once between the socket and the kernels.
//!
//! [`ShotSource`] is the engine's input contract: `(I, Q)` slices by shot
//! and qubit. It is implemented for `[Shot]`, `Vec<Shot>`, [`ShotBlock`]
//! and [`BlockBatch`] — several blocks read back to back as one batch,
//! without concatenating them — so
//! [`BatchDiscriminator::classify_shots_on`](crate::BatchDiscriminator::classify_shots_on)
//! is one entry point for all of them, bitwise-identical across sources.
//!
//! Large sample arenas are recycled: a dropped block's arena is kept for
//! the next block to fill, so a server does not hand a request's pages
//! back to the kernel only to fault them in again for the next one.
//!
//! The decoder calls into this module on the serving path, so it keeps the
//! serve crate's no-panic discipline: out-of-range *reads* index like a
//! slice does, and nothing else can fail.

use klinq_sim::Shot;
use std::sync::Mutex;

/// `(I, Q)` trace slices by shot and qubit: what the batch engine reads.
///
/// `Sync` because the engine's workers read one source concurrently.
pub trait ShotSource: Sync {
    /// Number of shots.
    fn shot_count(&self) -> usize;

    /// The I and Q samples of `shot`'s trace for `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `shot` or `qubit` is out of range.
    fn iq(&self, shot: usize, qubit: usize) -> (&[f32], &[f32]);
}

impl ShotSource for [Shot] {
    fn shot_count(&self) -> usize {
        self.len()
    }

    fn iq(&self, shot: usize, qubit: usize) -> (&[f32], &[f32]) {
        let t = &self[shot].traces[qubit];
        (&t.i, &t.q)
    }
}

/// Callers holding a `Vec<Shot>` pass `&shots`: a generic parameter does
/// not deref-coerce to `[Shot]`.
impl ShotSource for Vec<Shot> {
    fn shot_count(&self) -> usize {
        self.len()
    }

    fn iq(&self, shot: usize, qubit: usize) -> (&[f32], &[f32]) {
        self.as_slice().iq(shot, qubit)
    }
}

/// Where one trace lives in a block's sample arena: I at
/// `offset..offset + i_len`, Q right after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    offset: usize,
    i_len: usize,
    q_len: usize,
}

/// Many shots' I/Q traces in one contiguous sample arena.
///
/// Traces may be ragged — I and Q of different lengths, shots of
/// different trace counts — exactly as a wire frame may declare them;
/// judging whether a block is classifiable is the server's intake
/// validation, not the container's.
///
/// Per shot the block keeps one `usize` (its first trace), per trace
/// three (offset and the two channel lengths), and per sample the `f32`
/// itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ShotBlock {
    samples: Vec<f32>,
    traces: Vec<Span>,
    /// Shot `k`'s traces are `traces[shot_starts[k]..shot_starts[k + 1]]`:
    /// one entry per shot plus the end of the last, never empty.
    shot_starts: Vec<usize>,
}

impl Default for ShotBlock {
    fn default() -> Self {
        Self::with_capacity(0, 0, 0)
    }
}

impl ShotBlock {
    /// An empty block with room for `shots` shots, `traces` traces and
    /// `samples` samples (I and Q together) before it reallocates.
    pub fn with_capacity(shots: usize, traces: usize, samples: usize) -> Self {
        let mut shot_starts = Vec::with_capacity(shots.saturating_add(1));
        shot_starts.push(0);
        Self {
            samples: arena(samples),
            traces: Vec::with_capacity(traces),
            shot_starts,
        }
    }

    /// Number of shots.
    pub fn len(&self) -> usize {
        self.shot_starts.len().saturating_sub(1)
    }

    /// `true` if the block holds no shots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The spans of `shot`'s traces.
    fn spans(&self, shot: usize) -> &[Span] {
        &self.traces[self.shot_starts[shot]..self.shot_starts[shot + 1]]
    }

    /// Number of traces `shot` carries.
    ///
    /// # Panics
    ///
    /// Panics if `shot >= self.len()`.
    pub fn traces_of(&self, shot: usize) -> usize {
        self.spans(shot).len()
    }

    /// The I and Q samples of `shot`'s trace `t`.
    ///
    /// # Panics
    ///
    /// Panics if `shot >= self.len()` or `t >= self.traces_of(shot)`.
    pub fn trace(&self, shot: usize, t: usize) -> (&[f32], &[f32]) {
        let Span {
            offset,
            i_len,
            q_len,
        } = self.spans(shot)[t];
        let mid = offset + i_len;
        (&self.samples[offset..mid], &self.samples[mid..mid + q_len])
    }

    /// Opens a new shot with no traces; [`Self::push_trace`] fills it.
    pub fn push_shot(&mut self) {
        self.shot_starts.push(self.traces.len());
    }

    /// Appends one trace to the last shot — opening the first shot if
    /// the block is empty. `i` and `q` are appended to the arena in that
    /// order, so a block filled in wire order is laid out in wire order.
    pub fn push_trace(
        &mut self,
        i: impl IntoIterator<Item = f32>,
        q: impl IntoIterator<Item = f32>,
    ) {
        if self.is_empty() {
            self.push_shot();
        }
        let offset = self.samples.len();
        self.samples.extend(i);
        let i_len = self.samples.len() - offset;
        self.samples.extend(q);
        let q_len = self.samples.len() - offset - i_len;
        self.traces.push(Span {
            offset,
            i_len,
            q_len,
        });
        if let Some(end) = self.shot_starts.last_mut() {
            *end = self.traces.len();
        }
    }
}

/// Sample arenas of dropped blocks, kept for the next blocks to fill.
///
/// A request-sized arena (~1.5 MB for 256 shots) is past the allocator's
/// mmap and trim thresholds: freed — on the collector thread, far from
/// the decoder that allocated it — its pages go back to the kernel, and
/// the next request's decode faults every page back in, zeroed. On the
/// perfbench `bulk` workload that was up to ~68K minor faults per second
/// on the reactor's path; reusing arenas keeps those pages mapped.
static SPARE: Mutex<Vec<Vec<f32>>> = Mutex::new(Vec::new());
/// Arenas kept at most, so a burst of large requests does not pin its
/// memory afterwards.
const SPARE_ARENAS: usize = 8;
/// Smaller arenas come from the allocator's bins without page churn.
const MIN_SPARE_SAMPLES: usize = 1 << 16;

/// An empty arena for at least `samples` samples: a spare one when one
/// is large enough, otherwise a fresh allocation.
fn arena(samples: usize) -> Vec<f32> {
    if samples >= MIN_SPARE_SAMPLES {
        if let Ok(mut spare) = SPARE.lock() {
            if let Some(at) = spare.iter().position(|a| a.capacity() >= samples) {
                return spare.swap_remove(at);
            }
        }
    }
    Vec::with_capacity(samples)
}

impl Drop for ShotBlock {
    fn drop(&mut self) {
        if self.samples.capacity() < MIN_SPARE_SAMPLES {
            return;
        }
        if let Ok(mut spare) = SPARE.lock() {
            if spare.len() < SPARE_ARENAS {
                let mut arena = std::mem::take(&mut self.samples);
                arena.clear();
                spare.push(arena);
            }
        }
    }
}

impl From<&[Shot]> for ShotBlock {
    /// Copies every trace, in order; the simulator's labels are dropped.
    fn from(shots: &[Shot]) -> Self {
        let traces = shots.iter().map(|s| s.traces.len()).sum();
        let samples = shots
            .iter()
            .flat_map(|s| &s.traces)
            .map(|t| t.i.len() + t.q.len())
            .sum();
        let mut block = Self::with_capacity(shots.len(), traces, samples);
        for shot in shots {
            block.push_shot();
            for t in &shot.traces {
                block.push_trace(t.i.iter().copied(), t.q.iter().copied());
            }
        }
        block
    }
}

impl From<Vec<Shot>> for ShotBlock {
    fn from(shots: Vec<Shot>) -> Self {
        Self::from(shots.as_slice())
    }
}

impl ShotSource for ShotBlock {
    fn shot_count(&self) -> usize {
        self.len()
    }

    fn iq(&self, shot: usize, qubit: usize) -> (&[f32], &[f32]) {
        self.trace(shot, qubit)
    }
}

/// Several blocks read as one batch, in order, without copying them:
/// batch shot `k` is found by a binary search over the blocks' first
/// batch indices. This is how a server classifies the requests of one
/// micro-batch in a single engine call while each keeps its own block.
#[derive(Debug)]
pub struct BlockBatch<'a> {
    blocks: &'a [ShotBlock],
    /// Block `b` holds batch shots `starts[b]..starts[b + 1]`.
    starts: Vec<usize>,
}

impl<'a> BlockBatch<'a> {
    /// Reads `blocks` back to back.
    pub fn new(blocks: &'a [ShotBlock]) -> Self {
        let mut starts = Vec::with_capacity(blocks.len() + 1);
        let mut total = 0;
        starts.push(total);
        for block in blocks {
            total += block.len();
            starts.push(total);
        }
        Self { blocks, starts }
    }
}

impl ShotSource for BlockBatch<'_> {
    fn shot_count(&self) -> usize {
        self.starts.last().copied().unwrap_or(0)
    }

    fn iq(&self, shot: usize, qubit: usize) -> (&[f32], &[f32]) {
        // The last block starting at or before `shot`: empty blocks share
        // their start with the next block and are skipped over.
        let b = self.starts.partition_point(|&s| s <= shot) - 1;
        self.blocks[b].trace(shot - self.starts[b], qubit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use klinq_sim::dataset::IqTrace;
    use klinq_sim::trajectory::StateEvolution;

    fn shot(traces: &[(usize, usize)], seed: f32) -> Shot {
        Shot {
            prepared: [false; 5],
            evolutions: [StateEvolution::Ground; 5],
            traces: traces
                .iter()
                .enumerate()
                .map(|(t, &(ni, nq))| IqTrace {
                    i: (0..ni).map(|k| seed + t as f32 + k as f32 * 0.25).collect(),
                    q: (0..nq).map(|k| -seed - t as f32 - k as f32 * 0.5).collect(),
                })
                .collect(),
        }
    }

    fn assert_same_traces(block: &ShotBlock, shots: &[Shot]) {
        assert_eq!(block.len(), shots.len());
        for (k, s) in shots.iter().enumerate() {
            assert_eq!(block.traces_of(k), s.traces.len(), "shot {k}");
            for (t, trace) in s.traces.iter().enumerate() {
                let (i, q) = block.trace(k, t);
                assert_eq!((i, q), (&trace.i[..], &trace.q[..]), "shot {k} trace {t}");
            }
        }
    }

    #[test]
    fn from_shots_keeps_every_trace_unchanged() {
        // Ragged channels, empty traces and a zero-trace shot included.
        let shots = vec![
            shot(&[(3, 3), (2, 2)], 1.0),
            shot(&[], 2.0),
            shot(&[(4, 1), (0, 0), (0, 5)], 3.0),
            shot(&[(6, 6)], 4.0),
        ];
        let block = ShotBlock::from(&shots[..]);
        assert_same_traces(&block, &shots);
        assert_eq!(ShotBlock::from(shots.clone()), block);
        for k in 0..shots.len() {
            for t in 0..shots[k].traces.len() {
                assert_eq!(block.iq(k, t), shots.iq(k, t));
            }
        }
    }

    #[test]
    fn samples_are_laid_out_in_wire_order() {
        let shots = [shot(&[(2, 1)], 0.0), shot(&[(1, 2)], 10.0)];
        let block = ShotBlock::from(&shots[..]);
        let wire: Vec<f32> = shots
            .iter()
            .flat_map(|s| &s.traces)
            .flat_map(|t| t.i.iter().chain(&t.q).copied())
            .collect();
        assert_eq!(block.samples, wire);
    }

    #[test]
    fn a_reused_arena_starts_empty() {
        // Large enough to be kept as a spare when dropped.
        let big = [shot(&[(MIN_SPARE_SAMPLES, MIN_SPARE_SAMPLES)], 7.0)];
        drop(ShotBlock::from(&big[..]));
        let mut block = ShotBlock::with_capacity(1, 1, MIN_SPARE_SAMPLES);
        block.push_trace([1.0], [2.0, 3.0]);
        assert_eq!(block.samples, [1.0, 2.0, 3.0]);
        assert_eq!(block.trace(0, 0), (&[1.0][..], &[2.0, 3.0][..]));
    }

    #[test]
    fn push_trace_opens_the_first_shot() {
        let mut block = ShotBlock::default();
        assert!(block.is_empty());
        block.push_trace([1.0, 2.0], [3.0]);
        block.push_shot();
        block.push_shot();
        block.push_trace([4.0], [5.0]);
        assert_eq!(block.len(), 3);
        assert_eq!(
            (block.traces_of(0), block.traces_of(1), block.traces_of(2)),
            (1, 0, 1)
        );
        assert_eq!(block.trace(0, 0), (&[1.0, 2.0][..], &[3.0][..]));
        assert_eq!(block.trace(2, 0), (&[4.0][..], &[5.0][..]));
    }

    #[test]
    #[should_panic]
    fn a_trace_past_its_shot_is_out_of_range() {
        // Shot 0 has one trace; reading its second must not return shot
        // 1's first.
        let block = ShotBlock::from(&[shot(&[(1, 1)], 0.0), shot(&[(1, 1)], 1.0)][..]);
        let _ = block.trace(0, 1);
    }

    #[test]
    fn a_block_batch_reads_its_blocks_back_to_back() {
        let all: Vec<Shot> = (0..9)
            .map(|k| shot(&[(2, 2), (k + 1, k + 1)], k as f32))
            .collect();
        let blocks = vec![
            ShotBlock::from(&all[..1]),
            ShotBlock::default(),
            ShotBlock::from(&all[1..4]),
            ShotBlock::from(&all[4..9]),
            ShotBlock::default(),
        ];
        let batch = BlockBatch::new(&blocks);
        assert_eq!(batch.shot_count(), all.len());
        for k in 0..all.len() {
            for qb in 0..2 {
                assert_eq!(batch.iq(k, qb), all.iq(k, qb), "shot {k} qubit {qb}");
            }
        }
        assert_eq!(BlockBatch::new(&[]).shot_count(), 0);
    }
}
