//! The [`Q16_16`] fixed-point number type.

use crate::vector::round_shift_i64;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Shl, Shr, Sub, SubAssign};
use std::str::FromStr;

/// Number of fractional bits in the representation.
pub const FRAC_BITS: u32 = 16;
/// Scaling factor between the raw integer and the represented value.
pub const SCALE: i64 = 1 << FRAC_BITS;

/// A signed 32-bit fixed-point number with 16 integer and 16 fractional bits.
///
/// This is the data format the KLiNQ FPGA implementation uses throughout its
/// datapath ("a 32-bit fixed-point format ... allocating 16 bits for the
/// integer and 16 bits for the fractional part", Sec. IV of the paper).
///
/// The raw representation is an `i32` holding `value * 2^16`, so the
/// representable range is `[-32768.0, 32767.99998474]` with a resolution of
/// `2^-16 ≈ 1.5e-5`.
///
/// Arithmetic through the std operator traits (`+`, `-`, `*`, `/`) uses
/// **saturating** semantics, matching the overflow handling of the hardware
/// activation layer. Explicit `checked_*` and `wrapping_*` variants are
/// provided for modelling other policies.
///
/// # Examples
///
/// ```
/// use klinq_fixed::Q16_16;
/// let x = Q16_16::from_f64(2.25);
/// assert_eq!(x.to_bits(), 2 << 16 | 0x4000);
/// assert_eq!((x >> 1).to_f64(), 1.125); // shift = divide by 2
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Q16_16(i32);

/// How arithmetic that exceeds the representable range should behave.
///
/// The KLiNQ hardware saturates in the activation layer; `Wrap` models a
/// naive implementation without overflow handling (used in failure-injection
/// tests to show why saturation is needed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum OverflowPolicy {
    /// Clamp to [`Q16_16::MIN`] / [`Q16_16::MAX`].
    #[default]
    Saturate,
    /// Two's-complement wrap-around.
    Wrap,
}

impl Q16_16 {
    /// The value `0.0`.
    pub const ZERO: Self = Self(0);
    /// The value `1.0`.
    pub const ONE: Self = Self(1 << FRAC_BITS);
    /// The value `-1.0`.
    pub const NEG_ONE: Self = Self(-(1 << FRAC_BITS));
    /// The value `0.5`.
    pub const HALF: Self = Self(1 << (FRAC_BITS - 1));
    /// Largest representable value, `32767 + 65535/65536`.
    pub const MAX: Self = Self(i32::MAX);
    /// Smallest representable value, `-32768.0`.
    pub const MIN: Self = Self(i32::MIN);
    /// Smallest positive step, `2^-16`.
    pub const EPSILON: Self = Self(1);

    /// Creates a fixed-point number from its raw bit pattern.
    ///
    /// ```
    /// use klinq_fixed::Q16_16;
    /// assert_eq!(Q16_16::from_bits(1 << 16), Q16_16::ONE);
    /// ```
    #[inline]
    pub const fn from_bits(bits: i32) -> Self {
        Self(bits)
    }

    /// Returns the raw two's-complement bit pattern.
    #[inline]
    pub const fn to_bits(self) -> i32 {
        self.0
    }

    /// Converts from an `i16` integer value (exact).
    #[inline]
    pub const fn from_int(v: i16) -> Self {
        Self((v as i32) << FRAC_BITS)
    }

    /// Converts an `f64` to fixed point, rounding to nearest (ties away
    /// from zero) and saturating at the representable range. NaN maps to
    /// zero.
    ///
    /// Branchless: the half-adjust `trunc(x + copysign(0.5, x))` with
    /// a float-space NaN guard and clamp lowers to plain SIMD ops, so a
    /// loop of it vectorizes. The datapath's ADC quantization of `f32`
    /// samples goes through [`Self::from_f32`], which computes the same
    /// bits in `f32`.
    ///
    /// Rounding contract: exact ties (`v * 2^16` landing on `k + 0.5`)
    /// round away from zero like `f64::round`; a value within 1 ulp
    /// *below* an exact tie additionally rounds away (the `+0.5` sum
    /// rounds up), where `f64::round` would round toward zero — a
    /// 1-ulp fixed-point difference on adversarially chosen inputs
    /// only. The workspace's own quantization never produces such
    /// values (power-of-two scaling is exact, f32-sourced samples and
    /// weights carry 24 significand bits, and the averaging reciprocals
    /// `1/group` are small-integer quotients never that close to a
    /// half), but callers feeding arbitrary `f64`s — e.g. through the
    /// [`FromStr`] parser — get this half-adjust behaviour, not
    /// `f64::round`'s.
    #[inline]
    pub fn from_f64(v: f64) -> Self {
        let scaled = v * SCALE as f64;
        let adjusted = scaled + 0.5f64.copysign(scaled);
        // NaN → 0 as a float select, then saturate in float space: both
        // lower to vector compare/blend/min/max, where the saturating
        // `as i32` cast would force a scalar conversion per sample.
        let guarded = if adjusted.is_nan() { 0.0 } else { adjusted };
        let clamped = guarded.clamp(i32::MIN as f64, i32::MAX as f64);
        // SAFETY: `clamped` is finite and lies in [i32::MIN, i32::MAX]
        // (both bounds exactly representable in f64), so the truncating
        // conversion cannot overflow.
        Self(unsafe { clamped.to_int_unchecked::<i32>() })
    }

    /// Converts an `f32` to fixed point, rounding to nearest (ties away
    /// from zero) and saturating at the representable range. NaN maps to
    /// zero.
    ///
    /// Bit for bit [`Self::from_f64`]`(v as f64)` for every `f32`, but
    /// computed in `f32`, so a vector register holds twice the lanes —
    /// the ADC quantization of the datapath runs this over every raw
    /// sample. The scaling by `2^16` is exact, `f32::round` breaks ties
    /// away from zero like the half-adjust, and an `f32` has too few
    /// significand bits to sit within 1 ulp below a tie in `f64`, so
    /// the two roundings agree (checked on all 2^32 bit patterns).
    #[inline]
    pub fn from_f32(v: f32) -> Self {
        // 2^31, the first scaled value past `i32::MAX`; the largest f32
        // below it is 2^31 − 128.
        const LIMIT: f32 = 2_147_483_648.0;
        let rounded = (v * SCALE as f32).round();
        // NaN → 0 and the clamp as float selects, then the out-of-range
        // top as an integer select: all vector ops, where the saturating
        // `as i32` cast would convert one sample at a time.
        let guarded = if rounded.is_nan() { 0.0 } else { rounded };
        let clamped = guarded.clamp(-LIMIT, LIMIT - 128.0);
        // SAFETY: `clamped` is finite and lies in [-2^31, 2^31 − 128],
        // inside `i32`'s range, so the truncating conversion cannot
        // overflow (and it is exact: `clamped` is already an integer).
        let bits = unsafe { clamped.to_int_unchecked::<i32>() };
        Self(if guarded >= LIMIT { i32::MAX } else { bits })
    }

    /// Converts to `f64` (exact: every Q16.16 value fits in an f64).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / SCALE as f64
    }

    /// Converts to `f32` (may round: 32 significand bits vs f32's 24).
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.to_f64() as f32
    }

    /// Truncates to the integer part (rounds toward negative infinity).
    #[inline]
    pub const fn floor_int(self) -> i32 {
        self.0 >> FRAC_BITS
    }

    /// `true` if the sign bit is set.
    ///
    /// This mirrors the hardware ReLU, which only inspects the sign bit.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Self) -> Option<Self> {
        self.0.checked_add(rhs.0).map(Self)
    }

    /// Checked subtraction; `None` on overflow.
    #[inline]
    pub fn checked_sub(self, rhs: Self) -> Option<Self> {
        self.0.checked_sub(rhs.0).map(Self)
    }

    /// Checked multiplication; `None` if the product is unrepresentable.
    ///
    /// The product is computed at 64-bit width (as the FPGA DSP blocks do)
    /// and rounded to nearest before the range check.
    pub fn checked_mul(self, rhs: Self) -> Option<Self> {
        let wide = self.0 as i64 * rhs.0 as i64;
        let rounded = round_shift_i64(wide, FRAC_BITS);
        if rounded > i32::MAX as i64 || rounded < i32::MIN as i64 {
            None
        } else {
            Some(Self(rounded as i32))
        }
    }

    /// Checked division; `None` on division by zero or overflow.
    pub fn checked_div(self, rhs: Self) -> Option<Self> {
        if rhs.0 == 0 {
            return None;
        }
        let wide = ((self.0 as i64) << FRAC_BITS) / rhs.0 as i64;
        if wide > i32::MAX as i64 || wide < i32::MIN as i64 {
            None
        } else {
            Some(Self(wide as i32))
        }
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Self) -> Self {
        Self(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication (64-bit intermediate, round to nearest).
    #[inline]
    pub fn saturating_mul(self, rhs: Self) -> Self {
        let wide = self.0 as i64 * rhs.0 as i64;
        let rounded = round_shift_i64(wide, FRAC_BITS);
        Self(clamp_i64(rounded))
    }

    /// Saturating division. Division by zero saturates toward the sign of
    /// the dividend (`MAX` for non-negative, `MIN` for negative), which is
    /// how a guarded hardware divider would clamp.
    pub fn saturating_div(self, rhs: Self) -> Self {
        if rhs.0 == 0 {
            return if self.0 >= 0 { Self::MAX } else { Self::MIN };
        }
        let wide = ((self.0 as i64) << FRAC_BITS) / rhs.0 as i64;
        Self(clamp_i64(wide))
    }

    /// Wrapping (two's-complement) addition, as an unguarded adder would
    /// produce.
    #[inline]
    pub fn wrapping_add(self, rhs: Self) -> Self {
        Self(self.0.wrapping_add(rhs.0))
    }

    /// Wrapping subtraction.
    #[inline]
    pub fn wrapping_sub(self, rhs: Self) -> Self {
        Self(self.0.wrapping_sub(rhs.0))
    }

    /// Wrapping multiplication: the 64-bit product is truncated to the low
    /// 32 bits after the fractional shift, as an unguarded multiplier would.
    pub fn wrapping_mul(self, rhs: Self) -> Self {
        let wide = self.0 as i64 * rhs.0 as i64;
        Self(round_shift_i64(wide, FRAC_BITS) as i32)
    }

    /// Addition under an explicit [`OverflowPolicy`].
    #[inline]
    pub fn add_with(self, rhs: Self, policy: OverflowPolicy) -> Self {
        match policy {
            OverflowPolicy::Saturate => self.saturating_add(rhs),
            OverflowPolicy::Wrap => self.wrapping_add(rhs),
        }
    }

    /// Multiplication under an explicit [`OverflowPolicy`].
    #[inline]
    pub fn mul_with(self, rhs: Self, policy: OverflowPolicy) -> Self {
        match policy {
            OverflowPolicy::Saturate => self.saturating_mul(rhs),
            OverflowPolicy::Wrap => self.wrapping_mul(rhs),
        }
    }

    /// Absolute value (saturating: `|MIN|` clamps to `MAX`).
    #[inline]
    pub fn abs(self) -> Self {
        if self.0 == i32::MIN {
            Self::MAX
        } else {
            Self(self.0.abs())
        }
    }

    /// Returns `-1.0`, `0.0` or `1.0` according to the sign.
    pub fn signum(self) -> Self {
        match self.0.cmp(&0) {
            std::cmp::Ordering::Less => Self::NEG_ONE,
            std::cmp::Ordering::Equal => Self::ZERO,
            std::cmp::Ordering::Greater => Self::ONE,
        }
    }

    /// The smaller of two values.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The larger of two values.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Clamps into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(self, lo: Self, hi: Self) -> Self {
        assert!(lo <= hi, "clamp: lo > hi");
        self.max(lo).min(hi)
    }

    /// The hardware ReLU: zero if the sign bit is set, unchanged otherwise.
    ///
    /// ```
    /// use klinq_fixed::Q16_16;
    /// assert_eq!(Q16_16::from_f64(-3.0).relu(), Q16_16::ZERO);
    /// assert_eq!(Q16_16::from_f64(3.0).relu().to_f64(), 3.0);
    /// ```
    #[inline]
    pub fn relu(self) -> Self {
        if self.is_negative() {
            Self::ZERO
        } else {
            self
        }
    }
}

#[inline]
pub(crate) fn clamp_i64(v: i64) -> i32 {
    if v > i32::MAX as i64 {
        i32::MAX
    } else if v < i32::MIN as i64 {
        i32::MIN
    } else {
        v as i32
    }
}

impl Add for Q16_16 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.saturating_add(rhs)
    }
}

impl Sub for Q16_16 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.saturating_sub(rhs)
    }
}

impl Mul for Q16_16 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.saturating_mul(rhs)
    }
}

impl Div for Q16_16 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self.saturating_div(rhs)
    }
}

impl Neg for Q16_16 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self(0).saturating_sub(self)
    }
}

impl AddAssign for Q16_16 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Q16_16 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Q16_16 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

/// Arithmetic shift right: division by `2^rhs`, rounding toward negative
/// infinity exactly as the FPGA barrel shifter does.
impl Shr<u32> for Q16_16 {
    type Output = Self;
    #[inline]
    fn shr(self, rhs: u32) -> Self {
        Self(self.0 >> rhs.min(31))
    }
}

/// Shift left: multiplication by `2^rhs` with saturation.
///
/// The shift is capped at 32: any non-zero `i32` shifted by 32 is already
/// out of range (so it saturates by its sign), and at most 32 bits of
/// shift keep the widened value inside `i64`, sign bit included.
impl Shl<u32> for Q16_16 {
    type Output = Self;
    #[inline]
    fn shl(self, rhs: u32) -> Self {
        let wide = (self.0 as i64) << rhs.min(32);
        Self(clamp_i64(wide))
    }
}

impl Sum for Q16_16 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, x| acc + x)
    }
}

impl From<i16> for Q16_16 {
    fn from(v: i16) -> Self {
        Self::from_int(v)
    }
}

impl fmt::Display for Q16_16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Show enough digits to round-trip the 2^-16 resolution.
        write!(f, "{:.6}", self.to_f64())
    }
}

impl fmt::LowerHex for Q16_16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&(self.0 as u32), f)
    }
}

impl fmt::UpperHex for Q16_16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&(self.0 as u32), f)
    }
}

impl fmt::Binary for Q16_16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&(self.0 as u32), f)
    }
}

impl fmt::Octal for Q16_16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&(self.0 as u32), f)
    }
}

/// Error returned when parsing a [`Q16_16`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFixedError {
    kind: ParseErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseErrorKind {
    InvalidFloat,
    OutOfRange,
}

impl fmt::Display for ParseFixedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseErrorKind::InvalidFloat => write!(f, "invalid fixed-point literal"),
            ParseErrorKind::OutOfRange => write!(f, "value out of Q16.16 range"),
        }
    }
}

impl std::error::Error for ParseFixedError {}

impl FromStr for Q16_16 {
    type Err = ParseFixedError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let v: f64 = s.parse().map_err(|_| ParseFixedError {
            kind: ParseErrorKind::InvalidFloat,
        })?;
        if !v.is_finite() || !(-32768.0..32768.0).contains(&v) {
            return Err(ParseFixedError {
                kind: ParseErrorKind::OutOfRange,
            });
        }
        Ok(Self::from_f64(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_have_expected_values() {
        assert_eq!(Q16_16::ZERO.to_f64(), 0.0);
        assert_eq!(Q16_16::ONE.to_f64(), 1.0);
        assert_eq!(Q16_16::NEG_ONE.to_f64(), -1.0);
        assert_eq!(Q16_16::HALF.to_f64(), 0.5);
        assert_eq!(Q16_16::MIN.to_f64(), -32768.0);
        assert!((Q16_16::MAX.to_f64() - 32768.0).abs() < 1e-4);
    }

    #[test]
    fn f64_round_trip_is_exact_on_grid() {
        for raw in [-65536, -1, 0, 1, 32768, 65536, 123_456_789] {
            let q = Q16_16::from_bits(raw);
            assert_eq!(Q16_16::from_f64(q.to_f64()), q);
        }
    }

    #[test]
    fn from_f64_rounds_to_nearest() {
        // 2^-17 rounds up to one ULP (ties away from zero).
        let q = Q16_16::from_f64(1.0 / 131072.0);
        assert_eq!(q, Q16_16::EPSILON);
        let q = Q16_16::from_f64(-1.0 / 131072.0);
        assert_eq!(q, Q16_16::from_bits(-1));
    }

    #[test]
    fn from_f64_saturates_and_handles_nan() {
        assert_eq!(Q16_16::from_f64(1e9), Q16_16::MAX);
        assert_eq!(Q16_16::from_f64(-1e9), Q16_16::MIN);
        assert_eq!(Q16_16::from_f64(f64::NAN), Q16_16::ZERO);
        assert_eq!(Q16_16::from_f64(f64::INFINITY), Q16_16::MAX);
        assert_eq!(Q16_16::from_f64(f64::NEG_INFINITY), Q16_16::MIN);
    }

    /// `from_f32` against its definition, `from_f64(v as f64)`, on each
    /// `f32` bit pattern given.
    fn assert_from_f32_matches_from_f64(patterns: impl IntoIterator<Item = u32>) {
        for bits in patterns {
            let v = f32::from_bits(bits);
            assert_eq!(
                Q16_16::from_f32(v),
                Q16_16::from_f64(f64::from(v)),
                "{v:e} ({bits:#010x})"
            );
        }
    }

    #[test]
    fn from_f32_matches_from_f64_at_the_edges() {
        let mut patterns = Vec::new();
        let mut with_neighbours = |v: f32| {
            let bits = v.to_bits();
            patterns.extend([bits - 1, bits, bits + 1]);
        };
        // Ties at (k + 0.5) / 2^16 — up to the largest k whose tie an
        // f32 holds — and 1 ulp on either side, both signs.
        for k in [0u32, 1, 1 << 22, (1 << 23) - 1] {
            let tie = (k as f32 + 0.5) / 65536.0;
            assert_eq!(f64::from(tie) * 65536.0, f64::from(k) + 0.5, "k = {k}");
            with_neighbours(tie);
            with_neighbours(-tie);
        }
        // The saturation edge, 2^31 / 2^16, and 1 ulp on either side.
        with_neighbours(32768.0);
        with_neighbours(-32768.0);
        with_neighbours(f32::MIN_POSITIVE);
        // ±0 and subnormals.
        for bits in [0u32, 1, 2, 0x40_0000, 0x7f_ffff] {
            patterns.extend([bits, bits | 0x8000_0000]);
        }
        // The extremes, the infinities and NaNs with payloads, quiet and
        // signalling, both signs.
        patterns.extend([f32::MAX, f32::MIN, f32::INFINITY, f32::NEG_INFINITY].map(f32::to_bits));
        patterns.extend([0x7fc0_0000, 0x7fc0_0001, 0x7f80_0001, 0x7fff_ffff]);
        patterns.extend([0xffc0_0000, 0xff80_0001, 0xffff_ffff]);
        assert_from_f32_matches_from_f64(patterns);

        assert_eq!(Q16_16::from_f32(0.5 / 65536.0), Q16_16::EPSILON);
        assert_eq!(Q16_16::from_f32(-0.5 / 65536.0), Q16_16::from_bits(-1));
        assert_eq!(Q16_16::from_f32(32768.0), Q16_16::MAX);
        assert_eq!(Q16_16::from_f32(-32768.0), Q16_16::MIN);
        assert_eq!(Q16_16::from_f32(f32::NAN), Q16_16::ZERO);
        let below = f32::from_bits(32768.0f32.to_bits() - 1);
        assert_eq!(Q16_16::from_f32(below), Q16_16::from_bits(i32::MAX - 127));
    }

    #[test]
    fn from_f32_matches_from_f64_on_a_seeded_sweep() {
        // SplitMix64 over 10^7 draws: every exponent, sign and payload.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let patterns = std::iter::repeat_with(move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u32
        });
        assert_from_f32_matches_from_f64(patterns.take(10_000_000));
    }

    #[test]
    #[ignore = "all 2^32 f32 bit patterns: about 15 s in release, far longer in debug"]
    fn from_f32_matches_from_f64_on_every_f32() {
        assert_from_f32_matches_from_f64(0..=u32::MAX);
    }

    #[test]
    fn multiplication_matches_float_reference() {
        let cases = [
            (1.5, -0.25, -0.375),
            (100.0, 3.0, 300.0),
            (0.5, 0.5, 0.25),
            (-2.0, -2.0, 4.0),
        ];
        for (a, b, want) in cases {
            let got = (Q16_16::from_f64(a) * Q16_16::from_f64(b)).to_f64();
            assert!((got - want).abs() < 1e-4, "{a} * {b} = {got}, want {want}");
        }
    }

    #[test]
    fn multiplication_saturates() {
        let big = Q16_16::from_f64(30000.0);
        assert_eq!(big * big, Q16_16::MAX);
        assert_eq!(big * -big, Q16_16::MIN);
    }

    #[test]
    fn checked_ops_detect_overflow() {
        assert_eq!(Q16_16::MAX.checked_add(Q16_16::EPSILON), None);
        assert_eq!(Q16_16::MIN.checked_sub(Q16_16::EPSILON), None);
        let big = Q16_16::from_f64(20000.0);
        assert_eq!(big.checked_mul(big), None);
        assert!(Q16_16::ONE.checked_mul(Q16_16::ONE).is_some());
        assert_eq!(Q16_16::ONE.checked_div(Q16_16::ZERO), None);
    }

    #[test]
    fn wrapping_mul_wraps() {
        let big = Q16_16::from_f64(30000.0);
        let wrapped = big.wrapping_mul(big);
        // 30000^2 = 9e8, which exceeds 32767 and wraps; just confirm it did
        // not saturate and differs from the saturating result.
        assert_ne!(wrapped, Q16_16::MAX);
    }

    #[test]
    fn division_matches_float_reference() {
        let a = Q16_16::from_f64(7.0);
        let b = Q16_16::from_f64(2.0);
        assert_eq!((a / b).to_f64(), 3.5);
        let c = Q16_16::from_f64(1.0) / Q16_16::from_f64(3.0);
        assert!((c.to_f64() - 1.0 / 3.0).abs() < 1e-4);
    }

    #[test]
    fn division_by_zero_saturates_by_sign() {
        assert_eq!(Q16_16::ONE / Q16_16::ZERO, Q16_16::MAX);
        assert_eq!(Q16_16::NEG_ONE / Q16_16::ZERO, Q16_16::MIN);
        assert_eq!(Q16_16::ZERO / Q16_16::ZERO, Q16_16::MAX);
    }

    #[test]
    fn shifts_are_pow2_mul_div() {
        let x = Q16_16::from_f64(10.0);
        assert_eq!((x >> 1).to_f64(), 5.0);
        assert_eq!((x >> 2).to_f64(), 2.5);
        assert_eq!((x << 1).to_f64(), 20.0);
        // Arithmetic shift rounds toward -inf for negatives.
        let y = Q16_16::from_bits(-3);
        assert_eq!((y >> 1).to_bits(), -2);
    }

    #[test]
    fn shift_left_saturates() {
        let x = Q16_16::from_f64(20000.0);
        assert_eq!(x << 4, Q16_16::MAX);
        assert_eq!((-x) << 4, Q16_16::MIN);
        // Shifts at and past the width saturate by the sign, never wrap
        // into the opposite end.
        for n in [31, 32, 33, 47, 62, 63, u32::MAX] {
            for v in [Q16_16::ONE, Q16_16::from_bits(3), Q16_16::EPSILON, x] {
                assert_eq!(v << n, Q16_16::MAX, "{v:?} << {n}");
                assert_eq!(-v << n, Q16_16::MIN, "{:?} << {n}", -v);
            }
            assert_eq!(Q16_16::ZERO << n, Q16_16::ZERO);
        }
        // The last in-range shifts of one ulp.
        assert_eq!(Q16_16::EPSILON << 30, Q16_16::from_bits(1 << 30));
        assert_eq!(-Q16_16::EPSILON << 31, Q16_16::MIN);
    }

    /// The sign-branching rounding shift that `round_shift_i64` replaces:
    /// the oracle for the branchless form.
    fn round_shift_branchy(v: i64, bits: u32) -> i64 {
        let half = 1i64 << (bits - 1);
        if v >= 0 {
            (v + half) >> bits
        } else {
            -((-v + half) >> bits)
        }
    }

    #[test]
    fn branchless_round_shift_matches_branchy_oracle() {
        let half = 1i64 << (FRAC_BITS - 1);
        for v in [0, 1, half - 1, half, half + 1, 1 << 62] {
            for v in [v, -v] {
                assert_eq!(
                    round_shift_i64(v, FRAC_BITS),
                    round_shift_branchy(v, FRAC_BITS),
                    "{v}"
                );
            }
        }
        // Seeded splitmix64 sweep of `i32 × i32` products, through every
        // multiply that rounds with it.
        let mut state = 0x5eed_u64;
        for _ in 0..100_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            // Random magnitudes too: shift each operand by 0–31 bits.
            let a = Q16_16::from_bits((z as i32) >> (z >> 59));
            let b = Q16_16::from_bits(((z >> 32) as i32) >> ((z >> 27) & 31));
            let want = round_shift_branchy(a.0 as i64 * b.0 as i64, FRAC_BITS);
            assert_eq!(
                a.saturating_mul(b),
                Q16_16(clamp_i64(want)),
                "{a:?} * {b:?}"
            );
            assert_eq!(a.wrapping_mul(b), Q16_16(want as i32), "{a:?} * {b:?}");
            let in_range = i32::try_from(want).ok().map(Q16_16);
            assert_eq!(a.checked_mul(b), in_range, "{a:?} * {b:?}");
        }
    }

    #[test]
    fn relu_checks_sign_bit_only() {
        assert_eq!(Q16_16::from_bits(-1).relu(), Q16_16::ZERO);
        assert_eq!(Q16_16::from_bits(1).relu(), Q16_16::from_bits(1));
        assert_eq!(Q16_16::ZERO.relu(), Q16_16::ZERO);
        assert_eq!(Q16_16::MIN.relu(), Q16_16::ZERO);
        assert_eq!(Q16_16::MAX.relu(), Q16_16::MAX);
    }

    #[test]
    fn abs_and_signum() {
        assert_eq!(Q16_16::from_f64(-4.5).abs().to_f64(), 4.5);
        assert_eq!(Q16_16::MIN.abs(), Q16_16::MAX); // saturating
        assert_eq!(Q16_16::from_f64(-3.0).signum(), Q16_16::NEG_ONE);
        assert_eq!(Q16_16::ZERO.signum(), Q16_16::ZERO);
        assert_eq!(Q16_16::from_f64(9.0).signum(), Q16_16::ONE);
    }

    #[test]
    fn neg_of_min_saturates() {
        assert_eq!(-Q16_16::MIN, Q16_16::MAX);
    }

    #[test]
    fn ordering_matches_value_ordering() {
        let mut vals = [
            Q16_16::from_f64(1.5),
            Q16_16::from_f64(-2.0),
            Q16_16::ZERO,
            Q16_16::MAX,
            Q16_16::MIN,
        ];
        vals.sort();
        let floats: Vec<f64> = vals.iter().map(|q| q.to_f64()).collect();
        let mut sorted = floats.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(floats, sorted);
    }

    #[test]
    fn sum_saturates_instead_of_panicking() {
        let total: Q16_16 = std::iter::repeat_n(Q16_16::from_f64(30000.0), 4).sum();
        assert_eq!(total, Q16_16::MAX);
    }

    #[test]
    fn display_and_hex_formatting() {
        let q = Q16_16::from_f64(1.5);
        assert_eq!(format!("{q}"), "1.500000");
        assert_eq!(format!("{q:x}"), "18000");
        assert_eq!(format!("{:x}", Q16_16::from_bits(-1)), "ffffffff");
        assert!(!format!("{:b}", Q16_16::ZERO).is_empty());
    }

    #[test]
    fn parse_from_str() {
        assert_eq!("1.5".parse::<Q16_16>().unwrap(), Q16_16::from_f64(1.5));
        assert_eq!(
            "-0.25".parse::<Q16_16>().unwrap(),
            Q16_16::from_f64(-0.25)
        );
        assert!("abc".parse::<Q16_16>().is_err());
        assert!("1e30".parse::<Q16_16>().is_err());
        let err = "99999".parse::<Q16_16>().unwrap_err();
        assert_eq!(err.to_string(), "value out of Q16.16 range");
    }

    #[test]
    fn clamp_works_and_policy_dispatch() {
        let x = Q16_16::from_f64(5.0);
        assert_eq!(
            x.clamp(Q16_16::ZERO, Q16_16::ONE),
            Q16_16::ONE
        );
        assert_eq!(
            Q16_16::MAX.add_with(Q16_16::ONE, OverflowPolicy::Saturate),
            Q16_16::MAX
        );
        assert_ne!(
            Q16_16::MAX.add_with(Q16_16::ONE, OverflowPolicy::Wrap),
            Q16_16::MAX
        );
    }

    #[test]
    #[should_panic(expected = "clamp: lo > hi")]
    fn clamp_panics_on_inverted_bounds() {
        let _ = Q16_16::ZERO.clamp(Q16_16::ONE, Q16_16::ZERO);
    }

    #[test]
    fn from_int_and_floor() {
        let q = Q16_16::from_int(-7);
        assert_eq!(q.to_f64(), -7.0);
        assert_eq!(q.floor_int(), -7);
        assert_eq!(Q16_16::from_f64(-7.5).floor_int(), -8);
        assert_eq!(Q16_16::from_f64(7.5).floor_int(), 7);
        assert_eq!(Q16_16::from(5i16), Q16_16::from_f64(5.0));
    }
}
