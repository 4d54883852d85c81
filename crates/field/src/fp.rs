//! Generic prime-field arithmetic with a const-generic modulus.
//!
//! Elements are stored in canonical form (`0 <= value < M`). Addition,
//! subtraction and multiplication are branch-free (conditional
//! subtractions only). Exponentiation is **not** constant time:
//! [`Fp::pow`] branches on the exponent's bits, and the fixed-base tables
//! of `arboretum-crypto` are indexed by them. That is in keeping with the
//! research-scale parameters of the whole cryptographic layer (DESIGN.md,
//! "Substitutions"); nothing here claims side-channel resistance.
//!
//! Multiplication never divides. The reduction is chosen at compile time
//! from `M`, and there are exactly two:
//!
//! * **`M < 2^62` — one-word Barrett** (HAC 14.42 with `b = 2`). With `s`
//!   the bit length of `M` and `z = a·b < 2^{2s}`, the estimate
//!   `q̂ = ((z >> (s−1)) · ⌊2^{2s}/M⌋) >> (s+1)` is at most 2 short of
//!   `⌊z/M⌋`, so `r = lo64(z) − q̂·M < 3M < 2^64` fits one word and two
//!   conditional subtractions canonicalize it. Three word multiplies;
//!   `s` and the ratio are constants of the monomorphized type. This is
//!   the group operation and the scalar product of `arboretum-crypto`.
//! * **`M = 2^64 − 2^32 + 1` (Goldilocks) — a fold by the prime's shape.**
//!   `2^64 ≡ 2^32 − 1 = ε` and `2^96 ≡ −1 (mod p)`, so
//!   `lo + 2^64·hi_lo + 2^96·hi_hi ≡ lo − hi_hi + ε·hi_lo`: one widening
//!   multiply, one 32 × 32 multiply, one conditional subtraction.
//!
//! Any other modulus is refused when the type is instantiated (a
//! compile-time `assert!`), not served by a slower path. Runtime moduli
//! (BGV's RNS primes) live in [`crate::zq`].

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::primes::GOLDILOCKS;

/// An element of the prime field `Z_M`.
///
/// `M` must be a prime below `2^62` or the Goldilocks prime
/// ([`crate::primes::GOLDILOCKS`]); any other modulus fails to compile
/// (see the module docs for the two reductions). Additions go through
/// `u128` so the Goldilocks sum cannot overflow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Fp<const M: u64>(u64);

/// `ε = 2^32 − 1 ≡ 2^64 (mod GOLDILOCKS)`.
const EPSILON: u64 = (1 << 32) - 1;

impl<const M: u64> Fp<M> {
    /// The additive identity.
    pub const ZERO: Self = Self(0);
    /// The multiplicative identity.
    pub const ONE: Self = Self(1 % M);
    /// The field modulus.
    pub const MODULUS: u64 = M;
    /// Bit length `s` of `M`; instantiating the type at a modulus that
    /// neither reduction of [`Mul`] covers is a compile-time error here.
    const BITS: u32 = {
        assert!(M > 1, "field modulus must exceed 1");
        assert!(
            M < 1 << 62 || M == GOLDILOCKS,
            "Fp supports moduli below 2^62 and the Goldilocks prime only"
        );
        u64::BITS - M.leading_zeros()
    };
    /// One-word Barrett constant `⌊2^{2s}/M⌋ ≤ 2^{s+1}` (unused by the
    /// Goldilocks fold).
    const RATIO: u64 = if M == GOLDILOCKS {
        0
    } else {
        ((1u128 << (2 * Self::BITS)) / M as u128) as u64
    };

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
        let z = self.0 as u128 * rhs.0 as u128;
        let lo = z as u64;
        if M == GOLDILOCKS {
            let hi = (z >> 64) as u64;
            // lo − hi_hi: a borrow wrapped by 2^64 ≡ ε, taken back out
            // (the wrapped value is at least 2^64 − ε, so this cannot
            // underflow).
            let (t, borrow) = lo.overflowing_sub(hi >> 32);
            let t = t.wrapping_sub(EPSILON & (borrow as u64).wrapping_neg());
            // + ε·hi_lo: a carry dropped 2^64 ≡ ε, put back in (the
            // wrapped sum is at most 2^64 − 2^33, so this cannot
            // overflow, and is already below p).
            let (t, carry) = t.overflowing_add((hi & EPSILON) * EPSILON);
            let r = t.wrapping_add(EPSILON & (carry as u64).wrapping_neg());
            return Self(if r >= M { r - M } else { r });
        }
        // The quotient estimate is at most 2 short of ⌊z/M⌋, so r < 3M
        // fits the word and two conditional subtractions canonicalize.
        let s = Self::BITS;
        let quot = (((z >> (s - 1)) as u64 as u128 * Self::RATIO as u128) >> (s + 1)) as u64;
        let mut r = lo.wrapping_sub(quot.wrapping_mul(M));
        if r >= M << 1 {
            r -= M << 1;
        }
        if r >= M {
            r -= M;
        }
        Self(r)
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

    /// Every pair of the boundary operands, then `pairs` xorshift pairs,
    /// against the `u128` remainder — an oracle that shares nothing with
    /// either reduction.
    fn mul_matches_division<const M: u64>(pairs: usize) {
        let naive = |a: u64, b: u64| ((a as u128 * b as u128) % M as u128) as u64; // div-ok: test oracle
        let check = |a: u64, b: u64| {
            let got = (Fp::<M>::new(a) * Fp::<M>::new(b)).value();
            assert_eq!(got, naive(a % M, b % M), "{a} · {b} mod {M}");
        };
        let edges = [0, 1, 2, M / 2, M / 2 + 1, M - 2, M - 1];
        for a in edges {
            for b in edges {
                check(a, b);
            }
        }
        let mut x = 0x9e37_79b9_7f4a_7c15 ^ M;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..pairs {
            check(next(), next());
        }
    }

    #[test]
    fn barrett_mul_matches_division() {
        // Both reductions at their extremes: the smallest moduli, the
        // group's order and safe prime (`arboretum-crypto`'s GROUP_Q and
        // GROUP_P), the largest bit length the one-word Barrett serves,
        // and the Goldilocks fold.
        const PAIRS: usize = 1_000_000;
        mul_matches_division::<3>(PAIRS);
        mul_matches_division::<17>(PAIRS);
        mul_matches_division::<65_537>(PAIRS);
        mul_matches_division::<{ (1 << 61) - 1 }>(PAIRS);
        mul_matches_division::<2_305_843_009_213_688_669>(PAIRS);
        mul_matches_division::<4_611_686_018_427_377_339>(PAIRS);
        mul_matches_division::<{ (1 << 62) - 57 }>(PAIRS);
        mul_matches_division::<GOLDILOCKS>(PAIRS);
    }
}
