//! Wide-accumulator dot products: the software model of the FPGA MAC path.
//!
//! In the KLiNQ datapath each neuron multiplies its inputs by weights in DSP
//! blocks (full-precision products) and reduces them through an adder tree
//! together with the bias. The products of two Q16.16 numbers are Q32.32
//! values held in 64-bit accumulators; only the final sum is renormalized
//! (shifted back to Q16.16) and range-checked. This matches hardware
//! behaviour where intermediate precision is wider than the storage format.

use crate::q16::{clamp_i64, Q16_16, FRAC_BITS};
use serde::{Deserialize, Serialize};

/// A Q32.32 accumulator (i64) for summing products of [`Q16_16`] values.
///
/// # Examples
///
/// ```
/// use klinq_fixed::{Q16_16, WideAccumulator};
/// let mut acc = WideAccumulator::new();
/// acc.mac(Q16_16::from_f64(2.0), Q16_16::from_f64(3.0));
/// acc.add_fixed(Q16_16::from_f64(0.5)); // bias
/// assert_eq!(acc.to_fixed_saturating().to_f64(), 6.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WideAccumulator(i64);

impl WideAccumulator {
    /// Creates a zeroed accumulator.
    pub fn new() -> Self {
        Self(0)
    }

    /// Creates an accumulator pre-loaded with a Q16.16 value (e.g. a bias).
    pub fn from_fixed(q: Q16_16) -> Self {
        Self((q.to_bits() as i64) << FRAC_BITS)
    }

    /// Multiply-accumulate: adds the full-precision product `a * b`.
    ///
    /// Uses wrapping i64 addition; a Q32.32 accumulator overflows only after
    /// ~2^31 worst-case products, far beyond any layer width in this system,
    /// but tests exercise the boundary explicitly.
    #[inline]
    pub fn mac(&mut self, a: Q16_16, b: Q16_16) {
        self.0 = self
            .0
            .wrapping_add(a.to_bits() as i64 * b.to_bits() as i64);
    }

    /// Adds a Q16.16 value (promoted to Q32.32).
    #[inline]
    pub fn add_fixed(&mut self, q: Q16_16) {
        self.0 = self.0.wrapping_add((q.to_bits() as i64) << FRAC_BITS);
    }

    /// Merges another accumulator (adder-tree node join).
    #[inline]
    pub fn merge(&mut self, other: WideAccumulator) {
        self.0 = self.0.wrapping_add(other.0);
    }

    /// An accumulator holding raw Q32.32 bits (the inverse of
    /// [`Self::to_raw`]).
    pub fn from_raw(bits: i64) -> Self {
        Self(bits)
    }

    /// The raw Q32.32 bits.
    pub fn to_raw(self) -> i64 {
        self.0
    }

    /// Renormalizes to Q16.16 with saturation (the hardware write-back).
    #[inline]
    pub fn to_fixed_saturating(self) -> Q16_16 {
        self.to_fixed_flagged().0
    }

    /// Renormalizes to Q16.16 with saturation and reports whether it
    /// saturated: the neuron write-back, with no branch, so the batched
    /// layers' write-backs vectorize.
    #[inline]
    pub fn to_fixed_flagged(self) -> (Q16_16, bool) {
        let shifted = round_shift_i64(self.0, FRAC_BITS);
        let clamped = clamp_i64(shifted);
        (Q16_16::from_bits(clamped), i64::from(clamped) != shifted)
    }

    /// Value as f64 (exact for |raw| < 2^53).
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / (1u64 << (2 * FRAC_BITS)) as f64
    }
}

/// Round-to-nearest arithmetic right shift, ties away from zero —
/// branchless (sign-mask magnitude trick) so the per-neuron write-backs
/// of the batched kernels and the averaging unit's reciprocal multiply
/// never mispredict on mixed-sign values. The crate's one rounding
/// shift: the [`Q16_16`] multiplies round with it too. Bit-for-bit
/// identical to the branching
/// `if v >= 0 { (v + half) >> bits } else { -((-v + half) >> bits) }`
/// for every `|v| <= 2^62` (any `i32 × i32` product; tested).
#[inline]
pub(crate) fn round_shift_i64(v: i64, bits: u32) -> i64 {
    let half = 1i64 << (bits - 1);
    let sign = v >> 63; // 0 for non-negative, -1 for negative
    let magnitude = (v ^ sign).wrapping_sub(sign);
    let rounded = magnitude.wrapping_add(half) >> bits;
    (rounded ^ sign).wrapping_sub(sign)
}

/// Full-precision dot product of two fixed-point slices, returned as a wide
/// accumulator (no intermediate rounding — what the DSP + adder tree
/// computes before write-back).
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use klinq_fixed::{dot_wide, Q16_16};
/// let a = [Q16_16::ONE, Q16_16::from_f64(2.0)];
/// let b = [Q16_16::from_f64(3.0), Q16_16::from_f64(4.0)];
/// assert_eq!(dot_wide(&a, &b).to_fixed_saturating().to_f64(), 11.0);
/// ```
pub fn dot_wide(a: &[Q16_16], b: &[Q16_16]) -> WideAccumulator {
    assert_eq!(
        a.len(),
        b.len(),
        "dot_wide: length mismatch ({} vs {})",
        a.len(),
        b.len()
    );
    let mut acc = WideAccumulator::new();
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc.mac(x, y);
    }
    acc
}

/// Dot product renormalized to Q16.16 with saturation.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[Q16_16], b: &[Q16_16]) -> Q16_16 {
    dot_wide(a, b).to_fixed_saturating()
}

/// Four lane-interleaved wide dot products sharing one coefficient vector.
///
/// `lanes` holds four interleaved operand vectors (element `k` of lane `l`
/// at `lanes[k * 4 + l]`); the return value's lane `l` equals
/// [`dot_wide`] of `coeffs` with that lane's de-interleaved vector,
/// **bitwise** — the accumulators are wrapping `i64`, so the blocked
/// evaluation order cannot change a single bit. The four independent
/// accumulator chains overlap the multiply-add latency that serializes a
/// single wide dot, and the interleaved layout turns the lane loads into
/// one contiguous block per coefficient.
///
/// # Panics
///
/// Panics if `lanes.len() != coeffs.len() * 4`.
///
/// # Examples
///
/// ```
/// use klinq_fixed::{dot_wide, dot_wide_x4, Q16_16};
/// let coeffs: Vec<Q16_16> = (0..6).map(|k| Q16_16::from_f64(k as f64 * 0.5)).collect();
/// let lanes: Vec<Q16_16> = (0..24).map(|v| Q16_16::from_f64(v as f64 * 0.25)).collect();
/// let acc = dot_wide_x4(&coeffs, &lanes);
/// let lane2: Vec<Q16_16> = (0..6).map(|k| lanes[k * 4 + 2]).collect();
/// assert_eq!(acc[2], dot_wide(&coeffs, &lane2));
/// ```
pub fn dot_wide_x4(coeffs: &[Q16_16], lanes: &[Q16_16]) -> [WideAccumulator; 4] {
    assert_eq!(
        lanes.len(),
        coeffs.len() * 4,
        "dot_wide_x4: interleaved length mismatch ({} vs {} * 4)",
        lanes.len(),
        coeffs.len()
    );
    let mut acc = [WideAccumulator::new(); 4];
    for (&c, sample) in coeffs.iter().zip(lanes.chunks_exact(4)) {
        acc[0].mac(c, sample[0]);
        acc[1].mac(c, sample[1]);
        acc[2].mac(c, sample[2]);
        acc[3].mac(c, sample[3]);
    }
    acc
}

/// Two coefficient rows against four operand rows: the 2-neuron ×
/// 4-lane MAC tile of the batched dense layers.
///
/// Entry `[r][l]` of the result equals [`dot_wide`]`(rows[r], lanes[l])`
/// **bitwise**: each of the eight accumulators is a wrapping `i64` sum,
/// so the order in which its products are added cannot change a bit.
/// One pass over the six rows loads each weight once for all four lanes
/// and each input once for both neurons; the eight independent scalar
/// sums vectorize along the rows (sign-extending `i32 × i32 → i64`
/// multiplies), where fixed-size accumulator arrays did not.
///
/// # Panics
///
/// Panics if the six rows differ in length.
///
/// # Examples
///
/// ```
/// use klinq_fixed::{dot_wide, dot_wide_2x4, Q16_16};
/// let row = |k: i32| -> Vec<Q16_16> { (0..5).map(|i| Q16_16::from_bits(i * k - 7)).collect() };
/// let (w, x) = ([row(3), row(-2)], [row(1), row(5), row(-4), row(9)]);
/// let acc = dot_wide_2x4([&w[0], &w[1]], [&x[0], &x[1], &x[2], &x[3]]);
/// assert_eq!(acc[1][2], dot_wide(&w[1], &x[2]));
/// ```
#[inline]
pub fn dot_wide_2x4(rows: [&[Q16_16]; 2], lanes: [&[Q16_16]; 4]) -> [[WideAccumulator; 4]; 2] {
    let n = rows[0].len();
    assert!(
        rows[1].len() == n && lanes.iter().all(|x| x.len() == n),
        "dot_wide_2x4: row length mismatch"
    );
    let (mut a00, mut a01, mut a02, mut a03) = (0i64, 0i64, 0i64, 0i64);
    let (mut a10, mut a11, mut a12, mut a13) = (0i64, 0i64, 0i64, 0i64);
    // Re-sliced to one length, so the indexing below has no bounds checks.
    let (r0, r1) = (&rows[0][..n], &rows[1][..n]);
    let (l0, l1, l2, l3) = (
        &lanes[0][..n],
        &lanes[1][..n],
        &lanes[2][..n],
        &lanes[3][..n],
    );
    let wide = |q: Q16_16| q.to_bits() as i64;
    for k in 0..n {
        let (w0, w1) = (wide(r0[k]), wide(r1[k]));
        let (x0, x1, x2, x3) = (wide(l0[k]), wide(l1[k]), wide(l2[k]), wide(l3[k]));
        a00 = a00.wrapping_add(w0 * x0);
        a01 = a01.wrapping_add(w0 * x1);
        a02 = a02.wrapping_add(w0 * x2);
        a03 = a03.wrapping_add(w0 * x3);
        a10 = a10.wrapping_add(w1 * x0);
        a11 = a11.wrapping_add(w1 * x1);
        a12 = a12.wrapping_add(w1 * x2);
        a13 = a13.wrapping_add(w1 * x3);
    }
    let acc = WideAccumulator;
    [
        [acc(a00), acc(a01), acc(a02), acc(a03)],
        [acc(a10), acc(a11), acc(a12), acc(a13)],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(v: f64) -> Q16_16 {
        Q16_16::from_f64(v)
    }

    #[test]
    fn empty_dot_is_zero() {
        assert_eq!(dot(&[], &[]), Q16_16::ZERO);
    }

    #[test]
    fn dot_matches_float_reference() {
        let a: Vec<Q16_16> = [1.0, -2.5, 0.125, 7.0].iter().map(|&v| q(v)).collect();
        let b: Vec<Q16_16> = [0.5, 4.0, -8.0, 0.25].iter().map(|&v| q(v)).collect();
        let want: f64 = 1.0 * 0.5 + (-2.5) * 4.0 + 0.125 * (-8.0) + 7.0 * 0.25;
        assert!((dot(&a, &b).to_f64() - want).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_mismatched_lengths() {
        let _ = dot(&[Q16_16::ONE], &[]);
    }

    #[test]
    fn no_intermediate_rounding() {
        // Sum of many tiny products: each product underflows Q16.16 on its
        // own (EPSILON * EPSILON = 2^-32), but the wide accumulator keeps
        // full precision so 2^16 of them sum to exactly one EPSILON.
        let n = 1 << 16;
        let a = vec![Q16_16::EPSILON; n];
        let acc = dot_wide(&a, &a);
        assert_eq!(acc.to_fixed_saturating(), Q16_16::EPSILON);
        // Naive per-product rounding would give zero:
        let naive: Q16_16 = a.iter().map(|&x| x * x).sum();
        assert_eq!(naive, Q16_16::ZERO);
    }

    #[test]
    fn dot_wide_x4_matches_per_lane_dot_wide_bitwise() {
        for n in [0usize, 1, 3, 8, 65] {
            let coeffs: Vec<Q16_16> = (0..n).map(|k| q(k as f64 * 0.31 - 4.0)).collect();
            let lanes: Vec<Q16_16> = (0..n * 4)
                .map(|v| q((v as f64 * 0.177).sin() * 30.0))
                .collect();
            let acc = dot_wide_x4(&coeffs, &lanes);
            for l in 0..4 {
                let lane: Vec<Q16_16> = (0..n).map(|k| lanes[k * 4 + l]).collect();
                assert_eq!(acc[l], dot_wide(&coeffs, &lane), "lane {l}, n {n}");
            }
        }
    }

    #[test]
    fn dot_wide_2x4_matches_dot_wide_bitwise() {
        // Large values, so the wide accumulators wrap.
        for n in [0usize, 1, 2, 7, 31, 201] {
            let row = |k: usize| -> Vec<Q16_16> {
                (0..n)
                    .map(|i| ((i * 7919 + k * 104_729) as i32).wrapping_mul(-0x2f1d_3a77))
                    .map(Q16_16::from_bits)
                    .collect()
            };
            let (w, x) = ([row(1), row(2)], [row(3), row(4), row(5), row(6)]);
            let acc = dot_wide_2x4([&w[0], &w[1]], [&x[0], &x[1], &x[2], &x[3]]);
            for (r, w) in w.iter().enumerate() {
                for (l, x) in x.iter().enumerate() {
                    assert_eq!(acc[r][l], dot_wide(w, x), "row {r}, lane {l}, n {n}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn dot_wide_2x4_rejects_ragged_rows() {
        let (a, b) = ([Q16_16::ONE; 3], [Q16_16::ONE; 2]);
        let _ = dot_wide_2x4([&a, &a], [&a, &a, &b, &a]);
    }

    #[test]
    #[should_panic(expected = "interleaved length mismatch")]
    fn dot_wide_x4_rejects_bad_length() {
        let _ = dot_wide_x4(&[Q16_16::ONE; 2], &[Q16_16::ONE; 7]);
    }

    #[test]
    fn accumulator_bias_preload() {
        let acc = WideAccumulator::from_fixed(q(-3.5));
        assert_eq!(acc.to_fixed_saturating(), q(-3.5));
        assert_eq!(acc.to_f64(), -3.5);
    }

    #[test]
    fn saturating_writeback_clamps() {
        let mut acc = WideAccumulator::new();
        for _ in 0..10 {
            acc.mac(q(30000.0), q(30000.0));
        }
        assert_eq!(acc.to_fixed_saturating(), Q16_16::MAX);
        assert_eq!(acc.to_fixed_flagged(), (Q16_16::MAX, true));
        let mut neg = WideAccumulator::new();
        for _ in 0..10 {
            neg.mac(q(30000.0), q(-30000.0));
        }
        assert_eq!(neg.to_fixed_saturating(), Q16_16::MIN);
        assert_eq!(neg.to_fixed_flagged(), (Q16_16::MIN, true));
    }

    #[test]
    fn merge_equals_combined_sum() {
        let a: Vec<Q16_16> = (0..16).map(|i| q(i as f64 * 0.3 - 2.0)).collect();
        let b: Vec<Q16_16> = (0..16).map(|i| q(1.7 - i as f64 * 0.11)).collect();
        let full = dot_wide(&a, &b);
        let mut left = dot_wide(&a[..8], &b[..8]);
        let right = dot_wide(&a[8..], &b[8..]);
        left.merge(right);
        assert_eq!(left, full);
    }

    #[test]
    fn checked_writeback_in_range() {
        let mut acc = WideAccumulator::new();
        acc.mac(q(100.0), q(2.0));
        assert_eq!(acc.to_fixed_flagged(), (q(200.0), false));
        // The range ends themselves are in range, not overflow.
        for end in [Q16_16::MAX, Q16_16::MIN] {
            assert_eq!(WideAccumulator::from_fixed(end).to_fixed_flagged(), (end, false));
        }
    }

    #[test]
    fn negative_rounding_symmetry() {
        // -1.5 * EPSILON in the accumulator should round away from zero,
        // mirroring the positive case.
        let mut pos = WideAccumulator::new();
        pos.mac(Q16_16::EPSILON, q(1.5));
        let mut neg = WideAccumulator::new();
        neg.mac(Q16_16::EPSILON, q(-1.5));
        assert_eq!(
            pos.to_fixed_saturating().to_bits(),
            -neg.to_fixed_saturating().to_bits()
        );
    }
}
