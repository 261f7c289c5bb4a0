//! Matched filters with the KLiNQ envelope `mean(T0 − T1) / var(T0 − T1)`.
//!
//! The matched filter supplies the single scalar feature that the paper
//! found necessary for qubits "with subtle qubit-state-readout signal
//! differences" (Sec. III-B2). The envelope is trained once per qubit from
//! labelled ground/excited traces; at inference it is applied as a plain dot
//! product — which is why the FPGA implements it by reusing the fully
//! connected MAC datapath.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Error produced when training a matched filter from unusable data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainFilterError {
    /// One of the two class sets contained no traces.
    EmptyClass,
    /// Traces within one class (or across classes) have differing lengths.
    LengthMismatch {
        /// Expected sample count (from the first trace seen).
        expected: usize,
        /// Offending sample count.
        got: usize,
    },
}

impl fmt::Display for TrainFilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyClass => write!(f, "matched filter training requires traces for both states"),
            Self::LengthMismatch { expected, got } => {
                write!(f, "trace length mismatch: expected {expected} samples, got {got}")
            }
        }
    }
}

impl std::error::Error for TrainFilterError {}

/// A single-channel matched filter.
///
/// `envelope[k] = (mean_0[k] − mean_1[k]) / (var_0[k] + var_1[k] + ε)` where
/// the subscripts denote the ground-/excited-state training trace sets. The
/// denominator is the per-sample variance of the difference process
/// (independent classes), regularized by a small `ε` so zero-noise samples
/// (e.g. the trace start, before the resonator rings up) stay finite.
///
/// # Examples
///
/// ```
/// use klinq_dsp::MatchedFilter;
/// let ground: Vec<Vec<f32>> = (0..64).map(|i| vec![1.0 + 0.001 * i as f32; 8]).collect();
/// let excited: Vec<Vec<f32>> = (0..64).map(|i| vec![-1.0 - 0.001 * i as f32; 8]).collect();
/// let g: Vec<&[f32]> = ground.iter().map(|t| t.as_slice()).collect();
/// let e: Vec<&[f32]> = excited.iter().map(|t| t.as_slice()).collect();
/// let mf = MatchedFilter::train(&g, &e)?;
/// // Ground traces score positive, excited negative:
/// assert!(mf.apply(&ground[0]) > 0.0);
/// assert!(mf.apply(&excited[0]) < 0.0);
/// # Ok::<(), klinq_dsp::matched_filter::TrainFilterError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchedFilter {
    envelope: Vec<f32>,
}

/// Per-sample mean and population variance over a set of equal-length traces.
fn per_sample_moments(traces: &[&[f32]]) -> Result<(Vec<f64>, Vec<f64>), TrainFilterError> {
    let first = traces.first().ok_or(TrainFilterError::EmptyClass)?;
    let len = first.len();
    let mut mean = vec![0.0f64; len];
    for t in traces {
        if t.len() != len {
            return Err(TrainFilterError::LengthMismatch {
                expected: len,
                got: t.len(),
            });
        }
        for (m, &x) in mean.iter_mut().zip(t.iter()) {
            *m += x as f64;
        }
    }
    let n = traces.len() as f64;
    for m in &mut mean {
        *m /= n;
    }
    let mut var = vec![0.0f64; len];
    for t in traces {
        for ((v, &x), m) in var.iter_mut().zip(t.iter()).zip(mean.iter()) {
            let d = x as f64 - m;
            *v += d * d;
        }
    }
    for v in &mut var {
        *v /= n;
    }
    Ok((mean, var))
}

impl MatchedFilter {
    /// Regularizer added to the variance denominator.
    const EPS: f64 = 1e-9;

    /// Trains the envelope from ground-state (`t0`) and excited-state (`t1`)
    /// traces.
    ///
    /// # Errors
    ///
    /// Returns [`TrainFilterError::EmptyClass`] if either set is empty and
    /// [`TrainFilterError::LengthMismatch`] if any trace length differs.
    pub fn train(t0: &[&[f32]], t1: &[&[f32]]) -> Result<Self, TrainFilterError> {
        let (mean0, var0) = per_sample_moments(t0)?;
        let (mean1, var1) = per_sample_moments(t1)?;
        if mean0.len() != mean1.len() {
            return Err(TrainFilterError::LengthMismatch {
                expected: mean0.len(),
                got: mean1.len(),
            });
        }
        let envelope = mean0
            .iter()
            .zip(&mean1)
            .zip(var0.iter().zip(&var1))
            .map(|((m0, m1), (v0, v1))| ((m0 - m1) / (v0 + v1 + Self::EPS)) as f32)
            .collect();
        Ok(Self { envelope })
    }

    /// Builds a filter from a precomputed envelope (e.g. deserialized
    /// weights destined for the FPGA).
    pub fn from_envelope(envelope: Vec<f32>) -> Self {
        Self { envelope }
    }

    /// The trained envelope coefficients.
    pub fn envelope(&self) -> &[f32] {
        &self.envelope
    }

    /// Number of samples the filter expects.
    pub fn len(&self) -> usize {
        self.envelope.len()
    }

    /// `true` if the envelope is empty.
    pub fn is_empty(&self) -> bool {
        self.envelope.is_empty()
    }

    /// Applies the filter: the dot product of the envelope with the trace.
    ///
    /// # Panics
    ///
    /// Panics if `trace.len() != self.len()`; use [`Self::apply_prefix`]
    /// when evaluating shortened readout traces.
    pub fn apply(&self, trace: &[f32]) -> f64 {
        assert_eq!(
            trace.len(),
            self.envelope.len(),
            "matched filter length mismatch"
        );
        self.envelope
            .iter()
            .zip(trace)
            .map(|(&e, &x)| e as f64 * x as f64)
            .sum()
    }

    /// Applies the filter to the common prefix of the envelope and trace —
    /// the paper's shortened-trace evaluation, where a filter trained at one
    /// duration is applied to fewer samples.
    pub fn apply_prefix(&self, trace: &[f32]) -> f64 {
        let n = trace.len().min(self.envelope.len());
        self.envelope[..n]
            .iter()
            .zip(&trace[..n])
            .map(|(&e, &x)| e as f64 * x as f64)
            .sum()
    }

    /// Lane-interleaved SoA form of [`Self::apply_prefix`] for the
    /// cache-blocked batch engine: `channel` holds `len × 4` samples with
    /// sample `k` of lane `l` at `k * 4 + l` (see
    /// [`crate::soa::TraceBatch`]).
    ///
    /// Each lane accumulates in exactly the single-trace sample order, so
    /// lane `l` is bitwise-identical to [`Self::apply_prefix`] on that
    /// lane's de-interleaved trace; the interleaved layout turns the four
    /// chains into contiguous vector loads.
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != len * 4`.
    pub fn apply_prefix_batch(&self, channel: &[f32], len: usize) -> [f64; 4] {
        assert_eq!(channel.len(), len * 4, "interleaved channel length mismatch");
        let n = len.min(self.envelope.len());
        let mut acc = [0.0f64; 4];
        for (sample, &e) in channel[..n * 4].chunks_exact(4).zip(&self.envelope) {
            mac_x4(&mut acc, e, sample);
        }
        acc
    }

    /// Windowed partial outputs: splits the trace into `windows` contiguous
    /// chunks and returns the filter's partial dot product over each.
    ///
    /// This is the feature bank used by the HERQULES baseline, which feeds
    /// time-resolved matched-filter outputs into a compact FNN.
    ///
    /// # Panics
    ///
    /// Panics if `windows == 0` or the trace length differs from the
    /// envelope length.
    pub fn apply_windowed(&self, trace: &[f32], windows: usize) -> Vec<f64> {
        assert_eq!(
            trace.len(),
            self.envelope.len(),
            "matched filter length mismatch"
        );
        self.windowed_over(trace, trace.len(), windows)
    }

    /// Windowed outputs over the common prefix of the envelope and trace —
    /// keeps the feature count fixed when evaluating shortened readout
    /// traces (later windows shrink with the trace).
    ///
    /// # Panics
    ///
    /// Panics if `windows == 0` or the common prefix is shorter than
    /// `windows` samples.
    pub fn apply_windowed_prefix(&self, trace: &[f32], windows: usize) -> Vec<f64> {
        let n = trace.len().min(self.envelope.len());
        self.windowed_over(trace, n, windows)
    }

    fn windowed_over(&self, trace: &[f32], n: usize, windows: usize) -> Vec<f64> {
        assert!(windows > 0, "windows must be positive");
        assert!(
            n >= windows,
            "trace prefix of {n} samples cannot fill {windows} windows"
        );
        let base = n / windows;
        let mut out = Vec::with_capacity(windows);
        for w in 0..windows {
            let start = w * base;
            let end = if w == windows - 1 { n } else { start + base };
            let sum: f64 = self.envelope[start..end]
                .iter()
                .zip(&trace[start..end])
                .map(|(&e, &x)| e as f64 * x as f64)
                .sum();
            out.push(sum);
        }
        out
    }
}

/// One interleaved sample of four lanes into their four accumulators:
/// `acc[l] += e * sample[l]` in `f64`, the single-trace operation.
#[inline]
fn mac_x4(acc: &mut [f64; 4], e: f32, sample: &[f32]) {
    let e = f64::from(e);
    for (a, &x) in acc.iter_mut().zip(sample) {
        *a += e * f64::from(x);
    }
}

/// A matched filter over both readout quadratures (I and Q), producing the
/// single scalar feature appended to the student-network input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IqMatchedFilter {
    i: MatchedFilter,
    q: MatchedFilter,
}

impl IqMatchedFilter {
    /// Trains both quadrature envelopes from labelled (I, Q) trace pairs.
    ///
    /// `ground` and `excited` are slices of `(i_samples, q_samples)` pairs.
    ///
    /// # Errors
    ///
    /// Propagates [`TrainFilterError`] from either channel.
    pub fn train(
        ground: &[(&[f32], &[f32])],
        excited: &[(&[f32], &[f32])],
    ) -> Result<Self, TrainFilterError> {
        let g_i: Vec<&[f32]> = ground.iter().map(|&(i, _)| i).collect();
        let g_q: Vec<&[f32]> = ground.iter().map(|&(_, q)| q).collect();
        let e_i: Vec<&[f32]> = excited.iter().map(|&(i, _)| i).collect();
        let e_q: Vec<&[f32]> = excited.iter().map(|&(_, q)| q).collect();
        Ok(Self {
            i: MatchedFilter::train(&g_i, &e_i)?,
            q: MatchedFilter::train(&g_q, &e_q)?,
        })
    }

    /// The I-channel filter.
    pub fn i_filter(&self) -> &MatchedFilter {
        &self.i
    }

    /// The Q-channel filter.
    pub fn q_filter(&self) -> &MatchedFilter {
        &self.q
    }

    /// Applies both envelopes and sums: one scalar per shot.
    ///
    /// # Panics
    ///
    /// Panics if the sample counts differ from the trained lengths.
    pub fn apply(&self, i: &[f32], q: &[f32]) -> f64 {
        self.i.apply(i) + self.q.apply(q)
    }

    /// Prefix variant for shortened traces (see
    /// [`MatchedFilter::apply_prefix`]).
    pub fn apply_prefix(&self, i: &[f32], q: &[f32]) -> f64 {
        self.i.apply_prefix(i) + self.q.apply_prefix(q)
    }

    /// Four-shot SoA form of [`Self::apply_prefix`] over lane-interleaved
    /// channels (see [`MatchedFilter::apply_prefix_batch`]); lane `l` is
    /// bitwise-identical to [`Self::apply_prefix`] on that lane's traces.
    ///
    /// # Panics
    ///
    /// Panics if either channel's length differs from `len * 4`.
    ///
    /// The two channels run in one loop over their shared prefix: each
    /// lane's I and Q sums keep their sample order, so the bits are
    /// those of two separate passes, while the two dependency chains
    /// overlap instead of running one after the other.
    pub fn apply_prefix_batch(&self, i: &[f32], q: &[f32], len: usize) -> [f64; 4] {
        assert_eq!(i.len(), len * 4, "interleaved channel length mismatch");
        assert_eq!(q.len(), len * 4, "interleaved channel length mismatch");
        let (env_i, env_q) = (self.i.envelope(), self.q.envelope());
        let (n_i, n_q) = (len.min(env_i.len()), len.min(env_q.len()));
        let both = n_i.min(n_q);
        let (mut acc_i, mut acc_q) = ([0.0f64; 4], [0.0f64; 4]);
        let samples = i[..both * 4].chunks_exact(4).zip(q[..both * 4].chunks_exact(4));
        for ((si, sq), (&ei, &eq)) in samples.zip(env_i.iter().zip(env_q)) {
            mac_x4(&mut acc_i, ei, si);
            mac_x4(&mut acc_q, eq, sq);
        }
        // The rest of the longer envelope's prefix, when the two differ.
        for (sample, &e) in i[both * 4..n_i * 4].chunks_exact(4).zip(&env_i[both..]) {
            mac_x4(&mut acc_i, e, sample);
        }
        for (sample, &e) in q[both * 4..n_q * 4].chunks_exact(4).zip(&env_q[both..]) {
            mac_x4(&mut acc_q, e, sample);
        }
        std::array::from_fn(|l| acc_i[l] + acc_q[l])
    }

    /// Windowed variant returning `2 * windows` features (I windows then Q
    /// windows) for the HERQULES baseline.
    pub fn apply_windowed(&self, i: &[f32], q: &[f32], windows: usize) -> Vec<f64> {
        let mut out = self.i.apply_windowed(i, windows);
        out.extend(self.q.apply_windowed(q, windows));
        out
    }

    /// Prefix variant of [`Self::apply_windowed`] for shortened traces.
    pub fn apply_windowed_prefix(&self, i: &[f32], q: &[f32], windows: usize) -> Vec<f64> {
        let mut out = self.i.apply_windowed_prefix(i, windows);
        out.extend(self.q.apply_windowed_prefix(q, windows));
        out
    }

    /// Expected per-channel sample count.
    pub fn len(&self) -> usize {
        self.i.len()
    }

    /// `true` if the filter was trained on empty traces.
    pub fn is_empty(&self) -> bool {
        self.i.is_empty() && self.q.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds n constant traces at the given level plus deterministic ripple.
    fn traces(n: usize, len: usize, level: f32) -> Vec<Vec<f32>> {
        (0..n)
            .map(|k| {
                (0..len)
                    .map(|t| level + 0.01 * ((k * 7 + t * 13) % 11) as f32)
                    .collect()
            })
            .collect()
    }

    fn slices(v: &[Vec<f32>]) -> Vec<&[f32]> {
        v.iter().map(|t| t.as_slice()).collect()
    }

    #[test]
    fn envelope_points_from_excited_to_ground() {
        let g = traces(32, 16, 2.0);
        let e = traces(32, 16, -2.0);
        let mf = MatchedFilter::train(&slices(&g), &slices(&e)).unwrap();
        assert_eq!(mf.len(), 16);
        assert!(mf.envelope().iter().all(|&w| w > 0.0));
    }

    #[test]
    fn separates_classes() {
        let g = traces(64, 32, 1.0);
        let e = traces(64, 32, -1.0);
        let mf = MatchedFilter::train(&slices(&g), &slices(&e)).unwrap();
        for t in &g {
            assert!(mf.apply(t) > 0.0);
        }
        for t in &e {
            assert!(mf.apply(t) < 0.0);
        }
    }

    #[test]
    fn high_variance_samples_are_downweighted() {
        // Sample 0: clean separation; sample 1: same separation, huge noise.
        let g: Vec<Vec<f32>> = (0..100)
            .map(|k| vec![1.0, 1.0 + 10.0 * ((k % 2) as f32 - 0.5)])
            .collect();
        let e: Vec<Vec<f32>> = (0..100)
            .map(|k| vec![-1.0, -1.0 + 10.0 * ((k % 2) as f32 - 0.5)])
            .collect();
        let mf = MatchedFilter::train(&slices(&g), &slices(&e)).unwrap();
        assert!(
            mf.envelope()[0] > 10.0 * mf.envelope()[1],
            "envelope = {:?}",
            mf.envelope()
        );
    }

    #[test]
    fn empty_class_is_an_error() {
        let g = traces(4, 8, 1.0);
        let err = MatchedFilter::train(&slices(&g), &[]).unwrap_err();
        assert_eq!(err, TrainFilterError::EmptyClass);
        assert!(err.to_string().contains("both states"));
    }

    #[test]
    fn ragged_traces_are_an_error() {
        let a = vec![1.0f32; 8];
        let b = vec![1.0f32; 7];
        let err = MatchedFilter::train(&[&a, &b], &[&a]).unwrap_err();
        assert_eq!(
            err,
            TrainFilterError::LengthMismatch {
                expected: 8,
                got: 7
            }
        );
    }

    #[test]
    fn cross_class_length_mismatch_is_an_error() {
        let a = vec![1.0f32; 8];
        let b = vec![-1.0f32; 6];
        let err = MatchedFilter::train(&[&a], &[&b]).unwrap_err();
        assert!(matches!(err, TrainFilterError::LengthMismatch { .. }));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn apply_panics_on_wrong_length() {
        let g = traces(4, 8, 1.0);
        let e = traces(4, 8, -1.0);
        let mf = MatchedFilter::train(&slices(&g), &slices(&e)).unwrap();
        let _ = mf.apply(&[0.0; 4]);
    }

    #[test]
    fn apply_prefix_uses_common_prefix() {
        let g = traces(16, 8, 1.0);
        let e = traces(16, 8, -1.0);
        let mf = MatchedFilter::train(&slices(&g), &slices(&e)).unwrap();
        let short = vec![1.0f32; 4];
        let manual: f64 = mf.envelope()[..4].iter().map(|&w| w as f64).sum();
        assert!((mf.apply_prefix(&short) - manual).abs() < 1e-9);
        // Longer trace than envelope also works (extra samples ignored).
        let long = vec![1.0f32; 20];
        let full: f64 = mf.envelope().iter().map(|&w| w as f64).sum();
        assert!((mf.apply_prefix(&long) - full).abs() < 1e-9);
    }

    #[test]
    fn windowed_sums_to_full_output() {
        let g = traces(16, 10, 1.0);
        let e = traces(16, 10, -1.0);
        let mf = MatchedFilter::train(&slices(&g), &slices(&e)).unwrap();
        let t = &g[3];
        for windows in [1, 2, 3, 5, 10] {
            let parts = mf.apply_windowed(t, windows);
            assert_eq!(parts.len(), windows);
            let total: f64 = parts.iter().sum();
            assert!(
                (total - mf.apply(t)).abs() < 1e-9,
                "windows={windows}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "windows must be positive")]
    fn windowed_rejects_zero_windows() {
        let mf = MatchedFilter::from_envelope(vec![1.0; 4]);
        let _ = mf.apply_windowed(&[0.0; 4], 0);
    }

    #[test]
    fn apply_prefix_batch_is_bitwise_identical_per_lane() {
        let g = traces(16, 24, 1.0);
        let e = traces(16, 24, -1.0);
        let mf = MatchedFilter::train(&slices(&g), &slices(&e)).unwrap();
        // Cover prefixes shorter than, equal to, and longer than the envelope.
        for len in [8usize, 24, 30] {
            let lanes: Vec<Vec<f32>> = (0..4)
                .map(|l| (0..len).map(|k| ((k * 3 + l) as f32 * 0.21).cos()).collect())
                .collect();
            let mut channel = vec![0.0f32; len * 4];
            for k in 0..len {
                for l in 0..4 {
                    channel[k * 4 + l] = lanes[l][k];
                }
            }
            let batched = mf.apply_prefix_batch(&channel, len);
            for l in 0..4 {
                assert_eq!(batched[l], mf.apply_prefix(&lanes[l]), "lane {l} len {len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "interleaved channel length mismatch")]
    fn apply_prefix_batch_rejects_bad_length() {
        let mf = MatchedFilter::from_envelope(vec![1.0; 4]);
        let _ = mf.apply_prefix_batch(&[0.0; 9], 4);
    }

    #[test]
    fn iq_apply_prefix_batch_is_bitwise_identical_per_lane() {
        let envelope = |n: usize, phase: f32| -> Vec<f32> {
            (0..n).map(|k| ((k as f32 + phase) * 0.37).sin()).collect()
        };
        // Equal envelopes, and I longer or shorter than Q; prefixes shorter
        // than both, between the two, and longer than both.
        for (n_i, n_q) in [(24, 24), (24, 17), (17, 24)] {
            let mf = IqMatchedFilter {
                i: MatchedFilter::from_envelope(envelope(n_i, 0.5)),
                q: MatchedFilter::from_envelope(envelope(n_q, 2.0)),
            };
            for len in [8usize, 17, 20, 24, 30] {
                let lane = |l: usize, c: f32| -> Vec<f32> {
                    (0..len).map(|k| ((k * 3 + l) as f32 * 0.21 + c).cos() * 1.7).collect()
                };
                let (i, q): (Vec<_>, Vec<_>) = (0..4).map(|l| (lane(l, 0.0), lane(l, 1.3))).unzip();
                let interleave = |lanes: &[Vec<f32>]| -> Vec<f32> {
                    (0..len * 4).map(|x| lanes[x % 4][x / 4]).collect()
                };
                let batched = mf.apply_prefix_batch(&interleave(&i), &interleave(&q), len);
                for l in 0..4 {
                    let want = mf.apply_prefix(&i[l], &q[l]);
                    assert_eq!(
                        batched[l].to_bits(),
                        want.to_bits(),
                        "lane {l}, {n_i}/{n_q}, len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn iq_filter_combines_channels() {
        let gi = traces(32, 8, 1.0);
        let gq = traces(32, 8, 0.5);
        let ei = traces(32, 8, -1.0);
        let eq = traces(32, 8, -0.5);
        let ground: Vec<(&[f32], &[f32])> = gi
            .iter()
            .zip(&gq)
            .map(|(i, q)| (i.as_slice(), q.as_slice()))
            .collect();
        let excited: Vec<(&[f32], &[f32])> = ei
            .iter()
            .zip(&eq)
            .map(|(i, q)| (i.as_slice(), q.as_slice()))
            .collect();
        let mf = IqMatchedFilter::train(&ground, &excited).unwrap();
        assert_eq!(mf.len(), 8);
        assert!(!mf.is_empty());
        assert!(mf.apply(&gi[0], &gq[0]) > 0.0);
        assert!(mf.apply(&ei[0], &eq[0]) < 0.0);
        // apply == i.apply + q.apply
        let want = mf.i_filter().apply(&gi[0]) + mf.q_filter().apply(&gq[0]);
        assert!((mf.apply(&gi[0], &gq[0]) - want).abs() < 1e-12);
        // Windowed returns 2 * windows features.
        assert_eq!(mf.apply_windowed(&gi[0], &gq[0], 4).len(), 8);
        // Prefix variant accepts shortened traces.
        let _ = mf.apply_prefix(&gi[0][..4], &gq[0][..4]);
    }
}
