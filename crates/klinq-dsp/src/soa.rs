//! Structure-of-arrays trace blocks for the float batch engine.
//!
//! The serving hot path classifies shots in chunks; within a chunk, the
//! float front-end stages (averaging, matched filter, normalization) all
//! walk the same raw traces. In the array-of-structures layout each
//! shot's I and Q traces are separate heap allocations, so a four-shot
//! block touches eight scattered buffers per qubit. [`TraceBatch`]
//! gathers one block's traces into two contiguous **lane-interleaved**
//! buffers (sample `k` of lane `l` at `k * LANES + l`): every fused float
//! kernel then streams one buffer front to back, the whole block stays
//! L1-resident across pipeline stages, and the inner loops vectorize
//! across lanes while each lane keeps its scalar summation order (see
//! [`crate::averaging`] for the order policy).
//!
//! The gather itself is one linear copy per stage-*pipeline* (not per
//! stage): averaging, matched filter and normalization all reuse it, which
//! is where the cache-blocked layout pays for the copy. The Q16.16
//! datapath does not gather: its four-lane kernel reads each shot's own
//! contiguous samples, and takes a `TraceBatch` only through an adapter
//! that copies the lanes back out.

/// A gathered block of [`TraceBatch::LANES`] equal-length I/Q trace pairs
/// in lane-interleaved SoA layout.
///
/// The buffers are reusable: [`TraceBatch::gather`] reshapes in place, so
/// one batch serves any number of blocks without reallocating once it has
/// warmed up to the longest trace seen.
///
/// # Examples
///
/// ```
/// use klinq_dsp::TraceBatch;
/// let t: Vec<Vec<f32>> = (0..8).map(|l| vec![l as f32; 6]).collect();
/// let mut batch = TraceBatch::new();
/// let gathered = batch.gather([
///     (&t[0], &t[1]),
///     (&t[2], &t[3]),
///     (&t[4], &t[5]),
///     (&t[6], &t[7]),
/// ]);
/// assert!(gathered);
/// assert_eq!(batch.len(), 6);
/// // Sample 0 of lanes 0..4 on the I channel:
/// assert_eq!(&batch.i_interleaved()[..4], &[0.0, 2.0, 4.0, 6.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceBatch {
    len: usize,
    i: Vec<f32>,
    q: Vec<f32>,
}

impl TraceBatch {
    /// Shots per block. Four `f64` matched-filter accumulators fill one
    /// AVX2 register, and four lanes of `f32` averaging fill half of one —
    /// wide enough to hide FP latency, small enough that a block of
    /// full-length traces (4 × 2 × 500 samples) stays L1-resident.
    pub const LANES: usize = 4;

    /// An empty batch (buffers grow on first gather).
    pub fn new() -> Self {
        Self::default()
    }

    /// Samples per lane of the gathered block (0 before the first gather).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` before the first successful gather.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Gathers four `(i, q)` trace pairs into the interleaved buffers,
    /// reusing the existing allocations.
    ///
    /// Returns `false` — leaving the batch unchanged — when the traces are
    /// ragged (any I or Q length differing from lane 0's I length): ragged
    /// blocks take the caller's scalar path, which produces identical
    /// results, so the fused kernels never need a ragged code path.
    pub fn gather(&mut self, traces: [(&[f32], &[f32]); Self::LANES]) -> bool {
        let len = traces[0].0.len();
        if traces.iter().any(|&(i, q)| i.len() != len || q.len() != len) {
            return false;
        }
        self.len = len;
        interleave_into(&traces.map(|(i, _)| i), len, &mut self.i);
        interleave_into(&traces.map(|(_, q)| q), len, &mut self.q);
        true
    }

    /// The interleaved I channel: sample `k` of lane `l` at `k * LANES + l`.
    pub fn i_interleaved(&self) -> &[f32] {
        &self.i
    }

    /// The interleaved Q channel (same layout as the I channel).
    pub fn q_interleaved(&self) -> &[f32] {
        &self.q
    }
}

/// Transposes `LANES` equal-length slices into one lane-interleaved buffer.
fn interleave_into(lanes: &[&[f32]; TraceBatch::LANES], len: usize, out: &mut Vec<f32>) {
    // Resize without clearing: the transpose overwrites every slot, so
    // only growth beyond the warmest shape ever zero-fills (a cleared
    // resize would memset the whole buffer on every gather of the hot
    // path).
    out.resize(len * TraceBatch::LANES, 0.0);
    for (k, slot) in out.chunks_exact_mut(TraceBatch::LANES).enumerate() {
        for (s, lane) in slot.iter_mut().zip(lanes) {
            *s = lane[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes(len: usize) -> Vec<(Vec<f32>, Vec<f32>)> {
        (0..4)
            .map(|l| {
                let i: Vec<f32> = (0..len).map(|k| (k * 4 + l) as f32).collect();
                let q: Vec<f32> = (0..len).map(|k| -((k * 4 + l) as f32)).collect();
                (i, q)
            })
            .collect()
    }

    fn as_refs(t: &[(Vec<f32>, Vec<f32>)]) -> [(&[f32], &[f32]); 4] {
        std::array::from_fn(|l| (t[l].0.as_slice(), t[l].1.as_slice()))
    }

    #[test]
    fn gather_interleaves_lanes() {
        let t = lanes(5);
        let mut batch = TraceBatch::new();
        assert!(batch.is_empty());
        assert!(batch.gather(as_refs(&t)));
        assert!(!batch.is_empty());
        assert_eq!(batch.len(), 5);
        for k in 0..5 {
            for (l, lane) in t.iter().enumerate() {
                assert_eq!(batch.i_interleaved()[k * 4 + l], lane.0[k]);
                assert_eq!(batch.q_interleaved()[k * 4 + l], lane.1[k]);
            }
        }
    }

    #[test]
    fn gather_reuses_buffers_across_lengths() {
        let mut batch = TraceBatch::new();
        assert!(batch.gather(as_refs(&lanes(16))));
        assert_eq!(batch.len(), 16);
        // Shrinking reshapes in place.
        let t = lanes(3);
        assert!(batch.gather(as_refs(&t)));
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.i_interleaved().len(), 12);
        assert_eq!(batch.i_interleaved()[5], t[1].0[1]);
    }

    #[test]
    fn ragged_blocks_are_rejected_unchanged() {
        let t = lanes(8);
        let mut batch = TraceBatch::new();
        assert!(batch.gather(as_refs(&t)));
        let short = vec![0.0f32; 7];
        // Ragged I.
        assert!(!batch.gather([
            (t[0].0.as_slice(), t[0].1.as_slice()),
            (short.as_slice(), t[1].1.as_slice()),
            (t[2].0.as_slice(), t[2].1.as_slice()),
            (t[3].0.as_slice(), t[3].1.as_slice()),
        ]));
        // Ragged Q within one lane.
        assert!(!batch.gather([
            (t[0].0.as_slice(), short.as_slice()),
            (t[1].0.as_slice(), t[1].1.as_slice()),
            (t[2].0.as_slice(), t[2].1.as_slice()),
            (t[3].0.as_slice(), t[3].1.as_slice()),
        ]));
        // The previous gather is still intact.
        assert_eq!(batch.len(), 8);
        assert_eq!(batch.i_interleaved()[0], t[0].0[0]);
    }
}
