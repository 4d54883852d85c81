//! Runtime-modulus arithmetic and NTTs.
//!
//! The const-generic [`crate::fp::Fp`] is ideal when the modulus is fixed
//! at compile time (MPC field, commitment group), but the BGV RNS layer
//! picks its ciphertext-modulus primes at runtime from a parameter set.
//! This module provides the same arithmetic with the modulus as data, plus
//! the workspace's negacyclic NTT, [`RtNttTable`].
//!
//! # Reduction strategy
//!
//! The hot loops are division-free. Three techniques cover every case
//! (see `crates/field/README.md` for the invariants):
//!
//! * **Shoup multiplication** when one operand is a precomputable
//!   constant `w`: store `w' = ⌊w·2^64/q⌋` next to `w`, then
//!   `a·w mod q` costs one `mulhi`, two wrapping multiplies, and one
//!   conditional subtract ([`mul_mod_shoup`]). The twiddle and psi
//!   tables of [`RtNttTable`] are stored in this paired form.
//! * **Barrett reduction** when both operands vary: [`Barrett`]
//!   precomputes `⌊2^128/q⌋` once and reduces any `u128` with a handful
//!   of word multiplies and two conditional subtracts.
//! * **Lazy reduction** inside the butterfly passes: values live in
//!   `[0, 4q)` (Harvey), with canonicalization fused into the last
//!   butterfly stage (forward) or the merged `psi^{-i}·n^{-1}` pass
//!   (inverse). Requires `q < 2^62` so `4q` fits in a `u64`.
//!
//! All of this is *exact* modular arithmetic: every public entry point
//! returns the canonical representative in `[0, q)`, bitwise identical
//! to the division-based reference kernels (property-tested in
//! `tests/proptests.rs` against a retained naive implementation).

use crate::primes::two_adicity;

/// Largest modulus (exclusive) the lazy `[0, 4q)` butterfly kernels
/// support: `4q` must fit in a `u64`.
pub const MAX_LAZY_MODULUS: u64 = 1 << 62;

/// `(a + b) mod m` without overflow for `m < 2^63`.
#[inline]
pub fn add_mod(a: u64, b: u64, m: u64) -> u64 {
    let s = a + b;
    if s >= m {
        s - m
    } else {
        s
    }
}

/// `(a - b) mod m`.
#[inline]
pub fn sub_mod(a: u64, b: u64, m: u64) -> u64 {
    if a >= b {
        a - b
    } else {
        a + m - b
    }
}

/// `(a * b) mod m` via `u128` widening.
///
/// This is the division-based reference; it compiles to a 128-bit
/// modulo (a libcall on x86-64). Cold paths (table construction,
/// primality testing) may use it freely; hot loops must go through
/// [`Barrett`] or [`mul_mod_shoup`] instead — CI enforces this with a
/// grep guard (`scripts/check_division_free.sh`).
#[inline]
pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64 // div-ok: the one sanctioned reference reduction
}

/// `a^e mod m` by square-and-multiply over a [`Barrett`] reducer.
///
/// The reducer setup (two `u128` divisions) amortizes over the ~`2·64`
/// multiplications of the ladder.
pub fn pow_mod(a: u64, e: u64, m: u64) -> u64 {
    if m == 1 {
        return 0;
    }
    Barrett::new(m).pow(a, e)
}

/// `a^{-1} mod m` for prime `m`.
///
/// # Panics
///
/// Panics if `a ≡ 0 (mod m)`.
pub fn inv_mod(a: u64, m: u64) -> u64 {
    assert!(!a.is_multiple_of(m), "attempted to invert zero mod {m}");
    pow_mod(a, m - 2, m)
}

/// `(-a) mod m`.
#[inline]
pub fn neg_mod(a: u64, m: u64) -> u64 {
    if a == 0 {
        0
    } else {
        m - a
    }
}

/// Precomputes the Shoup quotient `⌊w·2^64/q⌋` for a constant
/// multiplicand `w < q`.
///
/// One `u128` division at precompute time buys division-free
/// [`mul_mod_shoup`] calls thereafter.
#[inline]
pub fn shoup_precompute(w: u64, q: u64) -> u64 {
    debug_assert!(w < q, "Shoup precompute needs w < q");
    (((w as u128) << 64) / q as u128) as u64
}

/// Shoup multiplication `a·w mod q` with the result left in `[0, 2q)`.
///
/// `w_shoup` must be [`shoup_precompute`]`(w, q)`; `a` may be any
/// `u64`, and `q < 2^63` keeps the `[0, 2q)` result representable.
#[inline]
pub fn mul_mod_shoup_lazy(a: u64, w: u64, w_shoup: u64, q: u64) -> u64 {
    let quot = ((a as u128 * w_shoup as u128) >> 64) as u64;
    a.wrapping_mul(w).wrapping_sub(quot.wrapping_mul(q))
}

/// Shoup multiplication `a·w mod q`, canonical result in `[0, q)`.
///
/// See [`mul_mod_shoup_lazy`] for the operand requirements.
#[inline]
pub fn mul_mod_shoup(a: u64, w: u64, w_shoup: u64, q: u64) -> u64 {
    let r = mul_mod_shoup_lazy(a, w, w_shoup, q);
    if r >= q {
        r - q
    } else {
        r
    }
}

/// High 128 bits of the 256-bit product `x·y`.
#[inline]
fn mul_hi_128(x: u128, y: u128) -> u128 {
    let (x0, x1) = (x as u64 as u128, x >> 64);
    let (y0, y1) = (y as u64 as u128, y >> 64);
    let lo_carry = (x0 * y0) >> 64;
    let (mid, c1) = (x1 * y0).overflowing_add(x0 * y1);
    let (mid, c2) = mid.overflowing_add(lo_carry);
    x1 * y1 + (mid >> 64) + (((c1 as u128) + (c2 as u128)) << 64)
}

/// A Barrett reducer for a fixed runtime modulus `q > 1`.
///
/// Precomputes `⌊2^128/q⌋`; [`Barrett::reduce`] then maps any `u128`
/// to its canonical residue with word multiplies and two conditional
/// subtracts — no hardware division. Used for operand pairs that are
/// not precomputable (pointwise ciphertext products, CRT/Garner steps,
/// exponentiation ladders).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Barrett {
    q: u64,
    /// `⌊2^128/q⌋`.
    ratio: u128,
}

impl Barrett {
    /// Builds the reducer for `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q < 2`.
    pub fn new(q: u64) -> Self {
        assert!(q > 1, "Barrett modulus must exceed 1");
        let ratio = if q.is_power_of_two() {
            1u128 << (128 - q.trailing_zeros())
        } else {
            // q does not divide 2^128, so ⌊(2^128 − 1)/q⌋ = ⌊2^128/q⌋.
            u128::MAX / q as u128
        };
        Self { q, ratio }
    }

    /// The modulus.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// Reduces any `z < 2^128` to the canonical residue `z mod q`.
    #[inline]
    pub fn reduce(&self, z: u128) -> u64 {
        let q = self.q as u128;
        let quot = mul_hi_128(z, self.ratio);
        // quot ≥ ⌊z/q⌋ − 2, so the remainder estimate is below 3q.
        let mut r = z - quot * q;
        if r >= q << 1 {
            r -= q << 1;
        }
        if r >= q {
            r -= q;
        }
        debug_assert!(r < q);
        r as u64
    }

    /// `(a·b) mod q` for arbitrary `u64` operands.
    #[inline]
    pub fn mul_mod(&self, a: u64, b: u64) -> u64 {
        self.reduce(a as u128 * b as u128)
    }

    /// `a^e mod q` by square-and-multiply.
    #[inline]
    pub fn pow(&self, a: u64, mut e: u64) -> u64 {
        let mut base = self.reduce(a as u128);
        let mut acc = self.reduce(1);
        while e != 0 {
            if e & 1 == 1 {
                acc = self.mul_mod(acc, base);
            }
            base = self.mul_mod(base, base);
            e >>= 1;
        }
        acc
    }

    /// `a^{-1} mod q` for prime `q`.
    ///
    /// # Panics
    ///
    /// Panics if `a ≡ 0 (mod q)`.
    pub fn inv(&self, a: u64) -> u64 {
        assert!(
            !a.is_multiple_of(self.q),
            "attempted to invert zero mod {}",
            self.q
        );
        self.pow(a, self.q - 2)
    }
}

/// A twiddle table stored as `(w, ⌊w·2^64/q⌋)` pairs.
#[derive(Clone, Debug)]
struct ShoupVec {
    w: Vec<u64>,
    shoup: Vec<u64>,
}

impl ShoupVec {
    /// Builds the paired table from successive powers of `base`.
    fn powers(base: u64, n: usize, q: u64) -> Self {
        let mut w = Vec::with_capacity(n);
        let mut acc = 1u64 % q;
        for _ in 0..n {
            w.push(acc);
            acc = mul_mod(acc, base, q);
        }
        let shoup = w.iter().map(|&x| shoup_precompute(x, q)).collect();
        Self { w, shoup }
    }

    /// Multiplies every entry by the constant `k` (mod `q`), refreshing
    /// the Shoup quotients.
    fn scale(mut self, k: u64, q: u64) -> Self {
        for x in self.w.iter_mut() {
            *x = mul_mod(*x, k, q);
        }
        self.shoup = self.w.iter().map(|&x| shoup_precompute(x, q)).collect();
        self
    }
}

/// Precomputed tables for runtime-modulus negacyclic NTTs.
///
/// The prime modulus is chosen at runtime, as the BGV RNS layer
/// requires. All transforms are division-free: twiddles are stored with
/// their Shoup quotients, butterflies run lazily in `[0, 4q)`, and the
/// pointwise stage of [`RtNttTable::negacyclic_mul`] reduces through a
/// Barrett reducer. Every public entry point returns canonical values in
/// `[0, q)` and is bitwise identical to the division-based reference.
#[derive(Clone, Debug)]
pub struct RtNttTable {
    modulus: u64,
    two_q: u64,
    n: usize,
    psi: ShoupVec,
    omega: ShoupVec,
    omega_inv: ShoupVec,
    /// Merged final-pass table `psi^{-i}·n^{-1}`, fusing the inverse
    /// psi twist and the `1/n` scaling into a single multiply.
    psi_inv_n_inv: ShoupVec,
    barrett: Barrett,
}

impl RtNttTable {
    /// Builds tables of length `n` for the prime `modulus` whose primitive
    /// root is `root`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two, the modulus lacks the
    /// required 2-adicity, or `modulus ≥ 2^62` (the lazy butterflies
    /// keep values in `[0, 4q)`, which must fit in a `u64`).
    pub fn new(n: usize, modulus: u64, root: u64) -> Self {
        assert!(n.is_power_of_two(), "NTT length {n} must be a power of two");
        assert!(
            modulus < MAX_LAZY_MODULUS,
            "modulus {modulus} too large for the lazy NTT kernels (needs q < 2^62)"
        );
        let log2n = n.trailing_zeros();
        assert!(
            two_adicity(modulus) > log2n,
            "modulus {modulus} cannot support negacyclic NTT of length {n}"
        );
        let psi = pow_mod(root, (modulus - 1) >> (log2n + 1), modulus);
        let psi_inv = inv_mod(psi, modulus);
        let omega = mul_mod(psi, psi, modulus);
        let omega_inv = inv_mod(omega, modulus);
        let n_inv = inv_mod(n as u64, modulus);
        Self {
            modulus,
            two_q: modulus << 1,
            n,
            psi: ShoupVec::powers(psi, n, modulus),
            omega: ShoupVec::powers(omega, n, modulus),
            omega_inv: ShoupVec::powers(omega_inv, n, modulus),
            psi_inv_n_inv: ShoupVec::powers(psi_inv, n, modulus).scale(n_inv, modulus),
            barrett: Barrett::new(modulus),
        }
    }

    /// The prime modulus.
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the length is zero (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Bit-reversal permutation without scaling (inverse-side entry).
    fn permute(&self, a: &mut [u64]) {
        let n = self.n;
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                a.swap(i, j);
            }
        }
    }

    /// Fused psi-twist + bit-reversal permutation (forward-side entry):
    /// element `i` is multiplied by `psi^i` exactly once while the
    /// permutation runs, eliminating the separate scaling pass. Output
    /// values are canonical (`mul_mod_shoup` reduces any `u64` input).
    fn twist_permute(&self, a: &mut [u64]) {
        let n = self.n;
        let q = self.modulus;
        let (pw, ps) = (&self.psi.w, &self.psi.shoup);
        // Index 0 is a fixed point; psi^0 = 1 canonicalizes it.
        a[0] = mul_mod_shoup(a[0], pw[0], ps[0], q);
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                let ai = mul_mod_shoup(a[i], pw[i], ps[i], q);
                let aj = mul_mod_shoup(a[j], pw[j], ps[j], q);
                a[i] = aj;
                a[j] = ai;
            } else if i == j {
                a[i] = mul_mod_shoup(a[i], pw[i], ps[i], q);
            }
        }
    }

    /// Lazy Cooley–Tukey butterfly passes over bit-reversed input.
    ///
    /// Values stay in `[0, 4q)` between stages (Harvey); when
    /// `canonical_last` is set the final stage folds the
    /// canonicalization in, so no separate pass is needed.
    fn core_lazy(&self, a: &mut [u64], tw: &ShoupVec, canonical_last: bool) {
        let n = self.n;
        let q = self.modulus;
        let two_q = self.two_q;
        let mut len = 2;
        while len <= n {
            let step = n / len;
            let half = len / 2;
            let last = canonical_last && len == n;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let w = tw.w[k * step];
                    let ws = tw.shoup[k * step];
                    let mut u = a[start + k];
                    if u >= two_q {
                        u -= two_q;
                    }
                    let t = mul_mod_shoup_lazy(a[start + k + half], w, ws, q);
                    let mut x = u + t;
                    let mut y = u + two_q - t;
                    if last {
                        if x >= two_q {
                            x -= two_q;
                        }
                        if x >= q {
                            x -= q;
                        }
                        if y >= two_q {
                            y -= two_q;
                        }
                        if y >= q {
                            y -= q;
                        }
                    }
                    a[start + k] = x;
                    a[start + k + half] = y;
                }
            }
            len <<= 1;
        }
    }

    /// In-place forward negacyclic NTT. Output is canonical (`< q`).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length mismatch");
        self.twist_permute(a);
        self.core_lazy(a, &self.omega, true);
    }

    /// In-place inverse negacyclic NTT. Input must be canonical; output
    /// is canonical (`< q`).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length mismatch");
        self.permute(a);
        // Butterflies stay lazy: the merged psi^{-i}·n^{-1} pass below
        // accepts any u64 and canonicalizes.
        self.core_lazy(a, &self.omega_inv, false);
        let q = self.modulus;
        let (mw, ms) = (&self.psi_inv_n_inv.w, &self.psi_inv_n_inv.shoup);
        for (i, x) in a.iter_mut().enumerate() {
            *x = mul_mod_shoup(*x, mw[i], ms[i], q);
        }
    }

    /// Negacyclic product of two coefficient vectors.
    pub fn negacyclic_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut fa = a.to_vec();
        let mut fb = b.to_vec();
        self.negacyclic_mul_inplace(&mut fa, &mut fb);
        fa
    }

    /// Negacyclic product computed without allocating: the result lands
    /// in `a`, and `b` is clobbered (it serves as the second transform
    /// buffer). Both slices must have the table length.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn negacyclic_mul_inplace(&self, a: &mut [u64], b: &mut [u64]) {
        self.forward(a);
        self.forward(b);
        for (x, &y) in a.iter_mut().zip(b.iter()) {
            *x = self.barrett.mul_mod(*x, y);
        }
        self.inverse(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::{BGV_Q1, BGV_Q2, BGV_Q_ROOTS};

    /// Division-based reference kernels, retained for equivalence tests.
    mod naive {
        pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
            ((a as u128 * b as u128) % m as u128) as u64 // div-ok: test oracle
        }

        pub fn pow_mod(mut a: u64, mut e: u64, m: u64) -> u64 {
            let mut acc = 1u64 % m;
            a %= m;
            while e != 0 {
                if e & 1 == 1 {
                    acc = mul_mod(acc, a, m);
                }
                a = mul_mod(a, a, m);
                e >>= 1;
            }
            acc
        }
    }

    #[test]
    fn modular_helpers() {
        assert_eq!(add_mod(5, 7, 11), 1);
        assert_eq!(sub_mod(5, 7, 11), 9);
        assert_eq!(mul_mod(u64::MAX % 97, u64::MAX % 97, 97), {
            let r = (u64::MAX % 97) as u128;
            ((r * r) % 97) as u64
        });
        assert_eq!(pow_mod(2, 10, 1_000_003), 1024);
        assert_eq!(mul_mod(inv_mod(1234, BGV_Q1), 1234, BGV_Q1), 1);
        assert_eq!(neg_mod(0, 7), 0);
        assert_eq!(neg_mod(3, 7), 4);
        assert_eq!(pow_mod(5, 100, 1), 0);
    }

    #[test]
    fn barrett_matches_division() {
        for &q in &[3u64, 97, 65_537, BGV_Q1, BGV_Q2, u64::MAX - 58] {
            let b = Barrett::new(q);
            for &(x, y) in &[
                (0u64, 0u64),
                (1, q - 1),
                (q - 1, q - 1),
                (u64::MAX, u64::MAX),
                (123_456_789, 987_654_321),
            ] {
                assert_eq!(b.mul_mod(x, y), naive::mul_mod(x % q, y % q, q), "q={q}");
            }
            assert_eq!(b.reduce(u128::MAX), (u128::MAX % q as u128) as u64); // div-ok: test oracle
            assert_eq!(b.pow(7, 300), naive::pow_mod(7, 300, q));
        }
        // Power-of-two modulus exercises the exact-ratio branch.
        let b = Barrett::new(1 << 20);
        assert_eq!(b.mul_mod(u64::MAX, u64::MAX), {
            let z = u64::MAX as u128 * u64::MAX as u128;
            (z % (1u128 << 20)) as u64
        });
    }

    #[test]
    fn shoup_matches_division() {
        for &q in &[97u64, BGV_Q1, BGV_Q2, (1 << 62) - 57] {
            for w in [0u64, 1, 2, q / 2, q - 1] {
                let ws = shoup_precompute(w, q);
                for a in [0u64, 1, q - 1, q, 2 * q - 1, u64::MAX] {
                    let lazy = mul_mod_shoup_lazy(a, w, ws, q);
                    assert!(lazy < 2 * q, "lazy out of range: q={q} w={w} a={a}");
                    assert_eq!(
                        mul_mod_shoup(a, w, ws, q),
                        naive::mul_mod(a % q, w, q),
                        "q={q} w={w} a={a}"
                    );
                }
            }
        }
    }

    #[test]
    fn rt_ntt_roundtrip() {
        for (&q, &r) in [BGV_Q1, BGV_Q2].iter().zip(&BGV_Q_ROOTS[..2]) {
            let t = RtNttTable::new(128, q, r);
            let orig: Vec<u64> = (0..128).map(|i| (i * i * 977 + 3) % q).collect();
            let mut a = orig.clone();
            t.forward(&mut a);
            assert!(a.iter().all(|&x| x < q), "forward output not canonical");
            t.inverse(&mut a);
            assert_eq!(a, orig);
        }
    }

    #[test]
    fn negacyclic_mul_matches_schoolbook() {
        // The definition, with no transform in it: coefficient i + j of
        // a·b, negated when it wraps past X^n.
        for (&q, &r) in [BGV_Q1, BGV_Q2].iter().zip(&BGV_Q_ROOTS[..2]) {
            let n = 64;
            let a: Vec<u64> = (0..n as u64).map(|i| (i * i * 977 + 3) % q).collect();
            let b: Vec<u64> = (0..n as u64).map(|i| q - 1 - i * 104_729).collect();
            let mut want = vec![0u64; n];
            for (i, &ai) in a.iter().enumerate() {
                for (j, &bj) in b.iter().enumerate() {
                    let term = naive::mul_mod(ai, bj, q);
                    let k = (i + j) % n;
                    want[k] = if i + j < n {
                        add_mod(want[k], term, q)
                    } else {
                        sub_mod(want[k], term, q)
                    };
                }
            }
            assert_eq!(
                RtNttTable::new(n, q, r).negacyclic_mul(&a, &b),
                want,
                "q={q}"
            );
        }
    }

    #[test]
    fn negacyclic_wraparound_sign() {
        let t = RtNttTable::new(8, BGV_Q1, BGV_Q_ROOTS[0]);
        let mut a = vec![0u64; 8];
        let mut b = vec![0u64; 8];
        a[7] = 1;
        b[1] = 1;
        let c = t.negacyclic_mul(&a, &b);
        assert_eq!(c[0], BGV_Q1 - 1);
        assert!(c[1..].iter().all(|&x| x == 0));
    }

    #[test]
    fn inplace_matches_allocating() {
        let t = RtNttTable::new(32, BGV_Q2, BGV_Q_ROOTS[1]);
        let a: Vec<u64> = (0..32).map(|i| i * 7919 + 11).collect();
        let b: Vec<u64> = (0..32).map(|i| i * 104_729 + 1).collect();
        let want = t.negacyclic_mul(&a, &b);
        let mut fa = a.clone();
        let mut fb = b.clone();
        t.negacyclic_mul_inplace(&mut fa, &mut fb);
        assert_eq!(fa, want);
    }

    #[test]
    fn forward_canonicalizes_unreduced_input() {
        // The fused twist reduces any u64 input, matching the old
        // division-based scaling pass.
        let t = RtNttTable::new(16, BGV_Q1, BGV_Q_ROOTS[0]);
        let mut raw: Vec<u64> = (0..16).map(|i| u64::MAX - i).collect();
        let mut reduced: Vec<u64> = raw.iter().map(|&x| x % BGV_Q1).collect();
        t.forward(&mut raw);
        t.forward(&mut reduced);
        assert_eq!(raw, reduced);
    }
}
