//! Power-of-two division: the hardware normalization trick.
//!
//! The KLiNQ normalization layer computes `(x - x_min) / sigma`. A real
//! divider is expensive on an FPGA, so the paper approximates `sigma` by the
//! nearest power of two **at training time** and replaces the division with
//! an arithmetic shift, completing in two clock cycles. This module provides
//! the training-time snap ([`nearest_pow2_exponent`]) and the inference-time
//! shift ([`shift_divide`] / [`Pow2Divisor`]).

use crate::q16::{clamp_i64, Q16_16};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Returns the exponent `e` such that `2^e` is the power of two nearest to
/// `x` in log space (i.e. `e = round(log2(x))`).
///
/// This is the training-time preparation step for the shift-based
/// normalizer: the measured trace standard deviation is snapped to `2^e`.
///
/// # Panics
///
/// Panics if `x` is not finite and strictly positive — a standard deviation
/// of zero or below has no power-of-two approximation and indicates a
/// degenerate calibration set.
///
/// # Examples
///
/// ```
/// use klinq_fixed::nearest_pow2_exponent;
/// assert_eq!(nearest_pow2_exponent(1.0), 0);
/// assert_eq!(nearest_pow2_exponent(3.0), 2);  // log2(3) ≈ 1.58 → 2
/// assert_eq!(nearest_pow2_exponent(0.3), -2); // log2(0.3) ≈ -1.74 → -2
/// ```
pub fn nearest_pow2_exponent(x: f64) -> i32 {
    assert!(
        x.is_finite() && x > 0.0,
        "nearest_pow2_exponent requires a finite positive input, got {x}"
    );
    x.log2().round() as i32
}

/// Divides `q` by `2^exponent` using shifts, exactly as the FPGA does.
///
/// Negative exponents multiply (shift left, saturating): the result is
/// `q >> exponent` for `exponent >= 0` and `q << -exponent` otherwise,
/// bit for bit. It is computed without a branch — an arithmetic right
/// shift by `max(e, 0)`, a widening left shift by `max(-e, 0)` and a
/// clamp, at most one of the two shifts non-zero — so a loop of it over
/// per-feature exponents vectorizes.
///
/// # Examples
///
/// ```
/// use klinq_fixed::{shift_divide, Q16_16};
/// let x = Q16_16::from_f64(12.0);
/// assert_eq!(shift_divide(x, 2).to_f64(), 3.0);
/// assert_eq!(shift_divide(x, -1).to_f64(), 24.0);
/// ```
#[inline]
pub fn shift_divide(q: Q16_16, exponent: i32) -> Q16_16 {
    // The shift caps of `Shr` (31) and `Shl` (32).
    let right = exponent.clamp(0, 31) as u32;
    let left = exponent.saturating_neg().clamp(0, 32) as u32;
    let wide = ((q.to_bits() >> right) as i64) << left;
    Q16_16::from_bits(clamp_i64(wide))
}

/// A divisor snapped to a power of two, carrying both the exact value it
/// approximates and the shift exponent the hardware will use.
///
/// # Examples
///
/// ```
/// use klinq_fixed::{Pow2Divisor, Q16_16};
/// let d = Pow2Divisor::from_value(3.1); // snaps to 2^2 = 4
/// assert_eq!(d.exponent(), 2);
/// assert_eq!(d.apply(Q16_16::from_f64(8.0)).to_f64(), 2.0);
/// assert!((d.relative_error() - (4.0 - 3.1) / 3.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pow2Divisor {
    exact: f64,
    exponent: i32,
}

impl Pow2Divisor {
    /// Snaps `value` to the nearest power of two.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite and strictly positive.
    pub fn from_value(value: f64) -> Self {
        let exponent = nearest_pow2_exponent(value);
        Self {
            exact: value,
            exponent,
        }
    }

    /// Builds directly from a shift exponent (exact power of two).
    pub fn from_exponent(exponent: i32) -> Self {
        Self {
            exact: (exponent as f64).exp2(),
            exponent,
        }
    }

    /// The shift exponent `e` (divides by `2^e`).
    pub fn exponent(&self) -> i32 {
        self.exponent
    }

    /// The power-of-two divisor value `2^e`.
    pub fn pow2_value(&self) -> f64 {
        (self.exponent as f64).exp2()
    }

    /// The exact (pre-snap) value this divisor approximates.
    pub fn exact_value(&self) -> f64 {
        self.exact
    }

    /// Signed relative error introduced by the snap:
    /// `(2^e - exact) / exact`. Bounded by ±41 % in the worst case
    /// (`x = 3·2^k/2`), typically far less.
    pub fn relative_error(&self) -> f64 {
        (self.pow2_value() - self.exact) / self.exact
    }

    /// Applies the division as the hardware shift.
    pub fn apply(&self, q: Q16_16) -> Q16_16 {
        shift_divide(q, self.exponent)
    }

    /// Applies the division in floating point (reference semantics, used to
    /// bound the fixed-point model's error in tests).
    pub fn apply_f64(&self, x: f64) -> f64 {
        x / self.pow2_value()
    }
}

impl fmt::Display for Pow2Divisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "2^{} (≈{:.6})", self.exponent, self.exact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_of_exact_powers() {
        for e in -10..=10 {
            let x = (e as f64).exp2();
            assert_eq!(nearest_pow2_exponent(x), e, "2^{e}");
        }
    }

    #[test]
    fn exponent_rounds_in_log_space() {
        // Geometric midpoint between 2^1 and 2^2 is 2*sqrt(2) ≈ 2.828;
        // below it snaps to 1, above to 2.
        assert_eq!(nearest_pow2_exponent(2.8), 1);
        assert_eq!(nearest_pow2_exponent(2.9), 2);
    }

    #[test]
    #[should_panic(expected = "finite positive")]
    fn exponent_rejects_zero() {
        nearest_pow2_exponent(0.0);
    }

    #[test]
    #[should_panic(expected = "finite positive")]
    fn exponent_rejects_negative() {
        nearest_pow2_exponent(-1.0);
    }

    #[test]
    fn shift_divide_both_directions() {
        let x = Q16_16::from_f64(-8.0);
        assert_eq!(shift_divide(x, 3).to_f64(), -1.0);
        assert_eq!(shift_divide(x, 0), x);
        assert_eq!(shift_divide(x, -2).to_f64(), -32.0);
        // Exponents at and below -33 saturate by the sign (σ < 2^-32.5).
        for e in [-33, -47, -62, -63, -64, -1000, i32::MIN] {
            assert_eq!(shift_divide(Q16_16::ONE, e), Q16_16::MAX, "e {e}");
            assert_eq!(shift_divide(Q16_16::EPSILON, e), Q16_16::MAX, "e {e}");
            assert_eq!(shift_divide(x, e), Q16_16::MIN, "e {e}");
            assert_eq!(shift_divide(Q16_16::ZERO, e), Q16_16::ZERO, "e {e}");
        }
        // Large positive exponents leave the sign: 0 or -ε.
        assert_eq!(shift_divide(Q16_16::MAX, 40), Q16_16::ZERO);
        assert_eq!(shift_divide(x, i32::MAX), Q16_16::from_bits(-1));
    }

    #[test]
    fn shift_divide_equals_the_shift_operators() {
        let values = [0, 1, -1, 3, -3, 0x7fff, -0x8000, 1 << 16, 0x1234_5678];
        for bits in values.into_iter().chain([i32::MAX, i32::MIN]) {
            let q = Q16_16::from_bits(bits);
            for e in -70i32..=70 {
                let want = if e >= 0 {
                    q >> e as u32
                } else {
                    q << e.unsigned_abs()
                };
                assert_eq!(shift_divide(q, e), want, "{bits} by 2^{e}");
            }
        }
    }

    #[test]
    fn divisor_round_trips_exponent() {
        let d = Pow2Divisor::from_exponent(-3);
        assert_eq!(d.exponent(), -3);
        assert_eq!(d.pow2_value(), 0.125);
        assert_eq!(d.apply(Q16_16::ONE).to_f64(), 8.0);
    }

    #[test]
    fn divisor_relative_error_is_bounded() {
        // Worst case in log space is sqrt(2) away: |err| <= sqrt(2)-1.
        for i in 1..1000 {
            let x = i as f64 * 0.0137;
            let d = Pow2Divisor::from_value(x);
            assert!(
                d.relative_error().abs() <= std::f64::consts::SQRT_2 - 1.0 + 1e-9,
                "x={x} err={}",
                d.relative_error()
            );
        }
    }

    #[test]
    fn fixed_and_float_paths_agree() {
        let d = Pow2Divisor::from_value(4.0);
        for v in [-100.0, -1.5, 0.0, 0.25, 7.75, 1000.0] {
            let fx = d.apply(Q16_16::from_f64(v)).to_f64();
            let fl = d.apply_f64(v);
            assert!((fx - fl).abs() <= 1.0 / 65536.0, "v={v}: {fx} vs {fl}");
        }
    }

    #[test]
    fn display_is_informative() {
        let d = Pow2Divisor::from_value(3.1);
        let s = d.to_string();
        assert!(s.contains("2^2"), "{s}");
    }
}
