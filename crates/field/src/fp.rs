//! Generic prime-field arithmetic with a const-generic modulus.
//!
//! Elements are stored in canonical form (`0 <= value < M`). All operations
//! are constant-time-shaped (no data-dependent branches beyond conditional
//! subtractions), which matters for the cryptographic callers in
//! `arboretum-crypto` and `arboretum-bgv`.
//!
//! Multiplication reduces with a compile-time Barrett constant
//! (`⌊2^128/M⌋`), so no hardware division appears anywhere on the hot
//! path — the group exponentiations in `arboretum-crypto` (Schnorr,
//! sigma protocols, commitments) inherit this through [`Fp::pow`].

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// An element of the prime field `Z_M`.
///
/// `M` must be an odd prime below `2^63` so that `a + b` never overflows a
/// `u64`. The named moduli in [`crate::primes`] all satisfy this except the
/// Goldilocks prime, which is handled separately because `2^63 < p < 2^64`;
/// for Goldilocks we route additions through `u128`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Fp<const M: u64>(u64);

/// `⌊2^128/m⌋`, the Barrett constant for reducing 128-bit products.
const fn barrett_ratio(m: u64) -> u128 {
    assert!(m > 1, "field modulus must exceed 1");
    if m.is_power_of_two() {
        1u128 << (128 - m.trailing_zeros())
    } else {
        // m does not divide 2^128, so ⌊(2^128 − 1)/m⌋ = ⌊2^128/m⌋.
        u128::MAX / m as u128
    }
}

/// High 128 bits of the 256-bit product `x·y`.
#[inline]
const fn mul_hi_128(x: u128, y: u128) -> u128 {
    let (x0, x1) = (x as u64 as u128, x >> 64);
    let (y0, y1) = (y as u64 as u128, y >> 64);
    let lo_carry = (x0 * y0) >> 64;
    let (mid, c1) = (x1 * y0).overflowing_add(x0 * y1);
    let (mid, c2) = mid.overflowing_add(lo_carry);
    x1 * y1 + (mid >> 64) + (((c1 as u128) + (c2 as u128)) << 64)
}

impl<const M: u64> Fp<M> {
    /// The additive identity.
    pub const ZERO: Self = Self(0);
    /// The multiplicative identity.
    pub const ONE: Self = Self(1 % M);
    /// The field modulus.
    pub const MODULUS: u64 = M;
    /// Compile-time Barrett constant `⌊2^128/M⌋` for division-free
    /// reduction of 128-bit products.
    const BARRETT_RATIO: u128 = barrett_ratio(M);

    /// Creates a field element, reducing `v` modulo `M`.
    #[inline]
    pub const fn new(v: u64) -> Self {
        Self(v % M)
    }

    /// Creates a field element from a signed integer, reducing modulo `M`.
    #[inline]
    pub fn from_i64(v: i64) -> Self {
        if v >= 0 {
            Self::new(v as u64)
        } else {
            -Self::new(v.unsigned_abs())
        }
    }

    /// Returns the canonical representative in `[0, M)`.
    #[inline]
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Returns the signed representative in `(-M/2, M/2]`.
    ///
    /// Useful for decoding BGV plaintexts, where small negative values are
    /// stored as residues close to the modulus.
    #[inline]
    pub fn signed_value(self) -> i64 {
        if self.0 > M / 2 {
            -((M - self.0) as i64)
        } else {
            self.0 as i64
        }
    }

    /// Returns `true` if this is the additive identity.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Raises `self` to the power `e` by square-and-multiply.
    pub fn pow(self, mut e: u64) -> Self {
        let mut base = self;
        let mut acc = Self::ONE;
        while e != 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base *= base;
            e >>= 1;
        }
        acc
    }

    /// Returns the multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero, which has no inverse.
    pub fn inv(self) -> Self {
        assert!(!self.is_zero(), "attempted to invert zero in Z_{M}");
        // Fermat's little theorem: a^(M-2) = a^-1 for prime M.
        self.pow(M - 2)
    }

    /// Squares the element.
    #[inline]
    pub fn square(self) -> Self {
        self * self
    }
}

impl<const M: u64> Add for Fp<M> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        // Route through u128 so moduli up to 2^64 - 1 (Goldilocks) are safe.
        let s = self.0 as u128 + rhs.0 as u128;
        let m = M as u128;
        Self(if s >= m { (s - m) as u64 } else { s as u64 })
    }
}

impl<const M: u64> Sub for Fp<M> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        if self.0 >= rhs.0 {
            Self(self.0 - rhs.0)
        } else {
            Self(self.0 + (M - rhs.0))
        }
    }
}

impl<const M: u64> Mul for Fp<M> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        // Barrett reduction against the compile-time ratio: the quotient
        // estimate is at most 2 short of ⌊z/M⌋, so two conditional
        // subtractions canonicalize. No hardware division.
        let z = self.0 as u128 * rhs.0 as u128;
        let quot = mul_hi_128(z, Self::BARRETT_RATIO);
        let m = M as u128;
        let mut r = z - quot * m;
        if r >= m << 1 {
            r -= m << 1;
        }
        if r >= m {
            r -= m;
        }
        Self(r as u64)
    }
}

impl<const M: u64> Div for Fp<M> {
    type Output = Self;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // Division is mul-by-inverse.
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl<const M: u64> Neg for Fp<M> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            Self(M - self.0)
        }
    }
}

impl<const M: u64> AddAssign for Fp<M> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const M: u64> SubAssign for Fp<M> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<const M: u64> MulAssign for Fp<M> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<const M: u64> Sum for Fp<M> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, Add::add)
    }
}

impl<const M: u64> Product for Fp<M> {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, Mul::mul)
    }
}

impl<const M: u64> From<u64> for Fp<M> {
    fn from(v: u64) -> Self {
        Self::new(v)
    }
}

impl<const M: u64> From<u32> for Fp<M> {
    fn from(v: u32) -> Self {
        Self::new(v as u64)
    }
}

impl<const M: u64> fmt::Debug for Fp<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl<const M: u64> fmt::Display for Fp<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::GOLDILOCKS;

    type F = Fp<GOLDILOCKS>;
    type F17 = Fp<17>;

    #[test]
    fn small_field_tables() {
        // Exhaustive check of the group laws in Z_17.
        for a in 0..17u64 {
            for b in 0..17u64 {
                let (fa, fb) = (F17::new(a), F17::new(b));
                assert_eq!((fa + fb).value(), (a + b) % 17);
                assert_eq!((fa * fb).value(), (a * b) % 17);
                assert_eq!(fa - fb + fb, fa);
            }
        }
    }

    #[test]
    fn inverse_roundtrip() {
        for a in 1..17u64 {
            let fa = F17::new(a);
            assert_eq!(fa * fa.inv(), F17::ONE);
        }
    }

    #[test]
    fn goldilocks_near_modulus() {
        let a = F::new(GOLDILOCKS - 1);
        assert_eq!(a + F::ONE, F::ZERO);
        assert_eq!(a * a, F::ONE); // (-1)^2 = 1.
        assert_eq!(-F::ONE, a);
    }

    #[test]
    fn signed_value_roundtrip() {
        assert_eq!(F::from_i64(-5).signed_value(), -5);
        assert_eq!(F::from_i64(12345).signed_value(), 12345);
        assert_eq!(F::from_i64(0).signed_value(), 0);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let g = F::new(7);
        let mut acc = F::ONE;
        for e in 0..64u64 {
            assert_eq!(g.pow(e), acc);
            acc *= g;
        }
    }

    #[test]
    #[should_panic(expected = "invert zero")]
    fn invert_zero_panics() {
        let _ = F::ZERO.inv();
    }

    #[test]
    fn barrett_mul_matches_division() {
        // The Barrett product must equal the u128-division reference for
        // boundary operands, including the >2^63 Goldilocks modulus.
        fn naive<const M: u64>(a: u64, b: u64) -> u64 {
            ((a as u128 * b as u128) % M as u128) as u64 // div-ok: test oracle
        }
        for &(a, b) in &[
            (0u64, 0u64),
            (1, GOLDILOCKS - 1),
            (GOLDILOCKS - 1, GOLDILOCKS - 1),
            (GOLDILOCKS / 2, GOLDILOCKS / 2 + 7),
            (0x1234_5678_9abc_def0, 0x0fed_cba9_8765_4321),
        ] {
            assert_eq!(
                (F::new(a) * F::new(b)).value(),
                naive::<GOLDILOCKS>(a % GOLDILOCKS, b % GOLDILOCKS)
            );
        }
        for a in 0..17u64 {
            for b in 0..17u64 {
                assert_eq!((F17::new(a) * F17::new(b)).value(), naive::<17>(a, b));
            }
        }
    }
}
