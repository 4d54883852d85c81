//! Deterministic fixed-point arithmetic (`sfix`-style, Q30.16).
//!
//! Arboretum follows the paper (§6 "Precision") in avoiding floating point
//! inside mechanisms: floats leak information through their value-dependent
//! rounding [Mironov, CCS'12]. All mechanism arithmetic is done on 30.16
//! fixed-point values, with transcendental functions computed by integer
//! series evaluation (base-2 first, per Ilvento's base-2 exponential
//! mechanism [CCS'20]).

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Number of fractional bits (the paper's MP-SPDZ `sfix` uses 16).
pub const FRAC_BITS: u32 = 16;

/// Number of integer bits (the paper uses 30).
pub const INT_BITS: u32 = 30;

/// The scale factor `2^FRAC_BITS`.
pub const SCALE: i64 = 1 << FRAC_BITS;

/// Error raised when a fixed-point operation leaves the representable range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixOverflow;

impl fmt::Display for FixOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fixed-point overflow beyond Q{INT_BITS}.{FRAC_BITS}")
    }
}

impl std::error::Error for FixOverflow {}

/// A signed fixed-point number with 30 integer and 16 fractional bits.
///
/// The representable range is `(-2^30, 2^30)` with resolution `2^-16`.
/// Arithmetic saturates nothing and hides nothing: the checked
/// constructors return [`FixOverflow`], and the operator impls panic on
/// overflow (appropriate for mechanism code, where an overflow is a logic
/// error rather than an input condition).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fix(i64);

/// Bound on the raw representation: `|raw| < 2^(INT_BITS + FRAC_BITS)`.
const RAW_BOUND: i64 = 1 << (INT_BITS + FRAC_BITS);

impl Fix {
    /// Zero.
    pub const ZERO: Self = Self(0);
    /// One.
    pub const ONE: Self = Self(SCALE);
    /// The smallest positive representable value, `2^-16`.
    pub const EPSILON: Self = Self(1);
    /// Largest representable value.
    pub const MAX: Self = Self(RAW_BOUND - 1);
    /// Smallest (most negative) representable value.
    pub const MIN: Self = Self(-(RAW_BOUND - 1));
    /// `ln(2)` in Q16.
    pub const LN_2: Self = Self(45_426); // round(0.6931471805599453 * 65536)

    /// Builds a value from its raw Q30.16 representation.
    ///
    /// # Errors
    ///
    /// Returns [`FixOverflow`] if `raw` is outside the representable range.
    pub fn from_raw(raw: i64) -> Result<Self, FixOverflow> {
        if raw.abs() < RAW_BOUND {
            Ok(Self(raw))
        } else {
            Err(FixOverflow)
        }
    }

    /// Builds a value from an integer.
    ///
    /// # Errors
    ///
    /// Returns [`FixOverflow`] if `v` does not fit in 30 integer bits.
    pub fn from_int(v: i64) -> Result<Self, FixOverflow> {
        // Range first: a shift wraps silently (`i64::MAX << 16` is −1.0).
        if v.unsigned_abs() < 1 << INT_BITS {
            Ok(Self(v << FRAC_BITS))
        } else {
            Err(FixOverflow)
        }
    }

    /// Builds the rational `num / den` rounded to nearest.
    ///
    /// # Errors
    ///
    /// Returns [`FixOverflow`] on overflow or when `den` is zero.
    pub fn from_ratio(num: i64, den: i64) -> Result<Self, FixOverflow> {
        if den == 0 {
            return Err(FixOverflow);
        }
        let raw = (num as i128 * SCALE as i128)
            .checked_div(den as i128)
            .ok_or(FixOverflow)?;
        if raw.unsigned_abs() < RAW_BOUND as u128 {
            Ok(Self(raw as i64))
        } else {
            Err(FixOverflow)
        }
    }

    /// Converts from `f64`, for tests and display only (not used by
    /// mechanism code).
    pub fn from_f64(v: f64) -> Result<Self, FixOverflow> {
        let raw = (v * SCALE as f64).round();
        if raw.is_finite() && raw.abs() < RAW_BOUND as f64 {
            Ok(Self(raw as i64))
        } else {
            Err(FixOverflow)
        }
    }

    /// Raw Q30.16 representation.
    pub const fn raw(self) -> i64 {
        self.0
    }

    /// Conversion to `f64`, for reporting only.
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / SCALE as f64
    }

    /// Integer part, truncated toward negative infinity.
    pub const fn floor(self) -> i64 {
        self.0 >> FRAC_BITS
    }

    /// Absolute value.
    pub fn abs(self) -> Self {
        Self(self.0.abs())
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Self) -> Result<Self, FixOverflow> {
        Self::from_raw(self.0.checked_add(rhs.0).ok_or(FixOverflow)?)
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Self) -> Result<Self, FixOverflow> {
        Self::from_raw(self.0.checked_sub(rhs.0).ok_or(FixOverflow)?)
    }

    /// Checked multiplication (rounds toward zero).
    pub fn checked_mul(self, rhs: Self) -> Result<Self, FixOverflow> {
        let wide = (self.0 as i128 * rhs.0 as i128) >> FRAC_BITS;
        if wide.unsigned_abs() < RAW_BOUND as u128 {
            Ok(Self(wide as i64))
        } else {
            Err(FixOverflow)
        }
    }

    /// Checked division.
    ///
    /// # Errors
    ///
    /// Returns [`FixOverflow`] on division by zero or overflow.
    pub fn checked_div(self, rhs: Self) -> Result<Self, FixOverflow> {
        if rhs.0 == 0 {
            return Err(FixOverflow);
        }
        let wide = (self.0 as i128) << FRAC_BITS;
        let q = wide / rhs.0 as i128;
        if q.unsigned_abs() < RAW_BOUND as u128 {
            Ok(Self(q as i64))
        } else {
            Err(FixOverflow)
        }
    }

    /// Computes `2^self` by integer Taylor evaluation in extended
    /// precision.
    ///
    /// The fractional part is evaluated as `exp(f · ln 2)` with a Q48
    /// internal accumulator; the integer part becomes a shift.
    ///
    /// # Errors
    ///
    /// Returns [`FixOverflow`] when the result exceeds 30 integer bits
    /// (i.e. `self >= 30`).
    pub fn exp2(self) -> Result<Self, FixOverflow> {
        const INNER: u32 = 48;
        // `ln 2` in Q48.
        const LN2_Q48: i128 = 195_103_586_505_167; // round(ln(2) * 2^48)
        let k = self.floor(); // Integer part (floor).
        let f = self.0 - (k << FRAC_BITS); // Fractional part in [0, 2^16).
                                           // x = f * ln2 in Q48; f is Q16 so shift by INNER - FRAC_BITS - 48 = -16.
        let x: i128 = (f as i128 * LN2_Q48) >> FRAC_BITS;
        // exp(x) = sum x^j / j! in Q48; x < ln 2 so 18 terms give < 2^-48 error.
        let one: i128 = 1 << INNER;
        let mut term: i128 = one;
        let mut acc: i128 = one;
        for j in 1..=18i128 {
            term = ((term * x) >> INNER) / j;
            if term == 0 {
                break;
            }
            acc += term;
        }
        // Result raw = acc * 2^k scaled from Q48 to Q16.
        let shift = k + FRAC_BITS as i64 - INNER as i64;
        let raw: i128 = if shift >= 0 {
            if shift >= 64 {
                return Err(FixOverflow);
            }
            acc.checked_shl(shift as u32).ok_or(FixOverflow)?
        } else {
            let s = (-shift) as u32;
            if s >= 127 {
                0
            } else {
                acc >> s
            }
        };
        if raw.unsigned_abs() < RAW_BOUND as u128 {
            Ok(Self(raw as i64))
        } else {
            Err(FixOverflow)
        }
    }

    /// Computes `log2(self)` for strictly positive inputs.
    ///
    /// Normalizes to `m ∈ [1, 2)` and evaluates `ln m` by the `atanh`
    /// series in Q48, then rescales by `1 / ln 2`.
    ///
    /// # Errors
    ///
    /// Returns [`FixOverflow`] for zero or negative inputs.
    pub fn log2(self) -> Result<Self, FixOverflow> {
        if self.0 <= 0 {
            return Err(FixOverflow);
        }
        const INNER: u32 = 48;
        const ONE: i128 = 1 << INNER;
        // 1 / ln 2 in Q48.
        const INV_LN2_Q48: i128 = 406_082_553_034_800; // round(2^48 / ln 2)
                                                       // Find e such that m = self / 2^e is in [1, 2).
        let bits = 63 - self.0.leading_zeros() as i64; // floor(log2(raw))
        let e = bits - FRAC_BITS as i64;
        // m in Q48.
        let m: i128 = if e >= 0 {
            (self.0 as i128) << (INNER as i64 - FRAC_BITS as i64 - e)
        } else {
            (self.0 as i128) << (INNER as i64 - FRAC_BITS as i64 + (-e))
        };
        // z = (m - 1) / (m + 1), in Q48; z in [0, 1/3).
        let z = ((m - ONE) << INNER) / (m + ONE);
        // ln m = 2 * (z + z^3/3 + z^5/5 + ...).
        let z2 = (z * z) >> INNER;
        let mut term = z;
        let mut acc = z;
        let mut j = 3i128;
        loop {
            term = (term * z2) >> INNER;
            let contrib = term / j;
            if contrib == 0 {
                break;
            }
            acc += contrib;
            j += 2;
        }
        let ln_m = acc * 2;
        let log2_m = (ln_m * INV_LN2_Q48) >> INNER;
        let raw = (log2_m >> (INNER - FRAC_BITS)) + ((e as i128) << FRAC_BITS);
        if raw.unsigned_abs() < RAW_BOUND as u128 {
            Ok(Self(raw as i64))
        } else {
            Err(FixOverflow)
        }
    }

    /// Natural exponential `e^self`.
    ///
    /// # Errors
    ///
    /// Returns [`FixOverflow`] when the result exceeds the range.
    pub fn exp(self) -> Result<Self, FixOverflow> {
        // e^x = 2^(x / ln 2).
        const INV_LN2_Q16: i64 = 94_548; // round(2^16 / ln 2) [verified]
        let scaled = (self.0 as i128 * INV_LN2_Q16 as i128) >> FRAC_BITS;
        if scaled.unsigned_abs() >= RAW_BOUND as u128 {
            return Err(FixOverflow);
        }
        Self(scaled as i64).exp2()
    }

    /// Natural logarithm `ln(self)` for strictly positive inputs.
    ///
    /// # Errors
    ///
    /// Returns [`FixOverflow`] for non-positive inputs.
    pub fn ln(self) -> Result<Self, FixOverflow> {
        let l2 = self.log2()?;
        l2.checked_mul(Self::LN_2)
    }
}

impl Add for Fix {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        self.checked_add(rhs).expect("Fix add overflow")
    }
}

impl Sub for Fix {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        self.checked_sub(rhs).expect("Fix sub overflow")
    }
}

impl Mul for Fix {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        self.checked_mul(rhs).expect("Fix mul overflow")
    }
}

impl Div for Fix {
    type Output = Self;
    fn div(self, rhs: Self) -> Self {
        self.checked_div(rhs).expect("Fix div overflow or by zero")
    }
}

impl Neg for Fix {
    type Output = Self;
    fn neg(self) -> Self {
        Self(-self.0)
    }
}

impl AddAssign for Fix {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Fix {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl fmt::Debug for Fix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.to_f64())
    }
}

impl fmt::Display for Fix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Fix, b: f64, tol: f64) {
        assert!(
            (a.to_f64() - b).abs() <= tol,
            "{} vs {b} (tol {tol})",
            a.to_f64()
        );
    }

    #[test]
    fn basic_arithmetic() {
        let a = Fix::from_ratio(3, 2).unwrap();
        let b = Fix::from_int(2).unwrap();
        close(a + b, 3.5, 0.0);
        close(a * b, 3.0, 0.0);
        close(b / a, 4.0 / 3.0, 1e-4);
        close(a - b, -0.5, 0.0);
        close(-a, -1.5, 0.0);
    }

    #[test]
    fn overflow_detected() {
        assert!(Fix::from_int(1 << 30).is_err());
        assert!(Fix::from_int((1 << 30) - 1).is_ok());
        // Integers whose shift wraps back into range are out of range too.
        for v in [i64::MAX, i64::MIN, i64::MAX >> 15, -(1 << 30), 1 << 48] {
            assert!(Fix::from_int(v).is_err(), "{v}");
        }
        assert_eq!(Fix::from_int(1 - (1 << 30)).unwrap().floor(), 1 - (1 << 30));
        let big = Fix::from_int((1 << 29) + 5).unwrap();
        assert!(big.checked_mul(big).is_err());
        assert!(Fix::ONE.checked_div(Fix::ZERO).is_err());
    }

    #[test]
    fn exp2_accuracy() {
        for &x in &[-10.0, -3.3, -1.0, -0.5, 0.0, 0.25, 1.0, 2.75, 10.0, 20.0] {
            let fx = Fix::from_f64(x).unwrap();
            let got = fx.exp2().unwrap().to_f64();
            let want = x.exp2();
            let tol = want.abs().max(1.0) * 1e-4 + 2e-5;
            assert!((got - want).abs() <= tol, "2^{x}: {got} vs {want}");
        }
    }

    #[test]
    fn exp2_overflow_bounded() {
        assert!(Fix::from_int(40).unwrap().exp2().is_err());
        assert!(Fix::from_int(29).unwrap().exp2().is_ok());
    }

    #[test]
    fn log2_accuracy() {
        for &x in &[0.001, 0.1, 0.5, 1.0, 1.5, 2.0, 7.3, 1000.0, 5.0e8] {
            let fx = Fix::from_f64(x).unwrap();
            let got = fx.log2().unwrap().to_f64();
            // Compare against the log of the quantized input: for tiny x the
            // Q16 rounding of x itself dominates any algorithmic error.
            let want = fx.to_f64().log2();
            assert!((got - want).abs() <= 1e-3, "log2({x}): {got} vs {want}");
        }
    }

    #[test]
    fn log2_rejects_nonpositive() {
        assert!(Fix::ZERO.log2().is_err());
        assert!(Fix::from_int(-3).unwrap().log2().is_err());
    }

    #[test]
    fn exp_ln_roundtrip() {
        for &x in &[0.1, 1.0, 2.5, 9.0] {
            let fx = Fix::from_f64(x).unwrap();
            let roundtrip = fx.ln().unwrap().exp().unwrap().to_f64();
            assert!(
                (roundtrip - x).abs() <= x * 1e-3 + 1e-3,
                "{roundtrip} vs {x}"
            );
        }
    }

    #[test]
    fn exp2_log2_inverse() {
        for raw in [-200_000i64, -1, 0, 1, 12_345, 400_000] {
            let x = Fix::from_raw(raw).unwrap();
            let y = x.exp2().unwrap();
            if y.raw() > 0 {
                let back = y.log2().unwrap();
                assert!((back.raw() - raw).abs() <= 8, "{} vs {raw}", back.raw());
            }
        }
    }
}
