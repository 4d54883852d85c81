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
//!   conditional subtract ([`mul_mod_shoup`]). The twiddle tables of
//!   [`RtNttTable`] are stored in this paired form.
//! * **Barrett reduction** when both operands vary: [`Barrett`]
//!   precomputes `⌊2^128/q⌋` once and reduces any `u128` with a handful
//!   of word multiplies and two conditional subtracts.
//! * **Lazy reduction** inside the butterfly passes: values live in
//!   `[0, 4q)` forward and `[0, 2q)` inverse (Harvey), corrected without
//!   branches (`x.min(x.wrapping_sub(2q))`), with canonicalization fused
//!   into the last stage of either direction. Requires `q < 2^62` so
//!   `4q` fits in a `u64`.
//!
//! All of this is *exact* modular arithmetic: every public entry point
//! returns the canonical representative in `[0, q)`, and every
//! coefficient-form result is bitwise identical to the division-based
//! reference kernels (property-tested in `tests/proptests.rs` against a
//! retained naive implementation). Only the *order* of a transformed
//! vector's entries is private to [`RtNttTable`].

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

/// Keeps the loop it is called from scalar. Left alone, LLVM vectorizes
/// the butterfly loops for baseline x86-64, where SSE2 has neither a
/// 64-bit multiply nor an unsigned compare: lanes are emulated in 32-bit
/// pieces around the scalar multiplier, 40 % slower than plain
/// `mul`/`cmov` (EXPERIMENTS.md, "Encrypt at the floor").
#[inline(always)]
fn keep_scalar() {
    std::hint::black_box(());
}

/// The low `bits` bits of `i`, reversed.
fn bit_reverse(i: usize, bits: u32) -> usize {
    // A shift by the full width (`bits == 0`) is index 0.
    i.reverse_bits()
        .checked_shr(usize::BITS - bits)
        .unwrap_or(0)
}

/// A twiddle table stored as `(w, ⌊w·2^64/q⌋)` pairs.
#[derive(Clone, Debug)]
struct ShoupVec {
    w: Vec<u64>,
    shoup: Vec<u64>,
}

impl ShoupVec {
    /// Entry `i` is `base^{bitrev(i)}`: the order in which the merged
    /// butterflies consume their twiddles, stage after stage.
    fn bit_reversed_powers(base: u64, n: usize, q: u64) -> Self {
        let bits = n.trailing_zeros();
        let mut w = vec![0u64; n];
        let mut acc = 1u64;
        for i in 0..n {
            w[bit_reverse(i, bits)] = acc;
            acc = mul_mod(acc, base, q);
        }
        let shoup = w.iter().map(|&x| shoup_precompute(x, q)).collect();
        Self { w, shoup }
    }
}

/// Precomputed tables for runtime-modulus negacyclic NTTs.
///
/// The prime modulus is chosen at runtime, as the BGV RNS layer
/// requires. The transform is the merged-ψ form (Longa–Naehrig):
/// Cooley–Tukey forward from natural to bit-reversed order,
/// Gentleman–Sande inverse back, the powers of `ψ` folded into the
/// twiddles and `n⁻¹` into the last inverse stage — no permutation, no
/// scaling pass, no division (Shoup twiddles, lazy Harvey butterflies, a
/// Barrett reducer for [`RtNttTable::negacyclic_mul`]'s pointwise stage).
///
/// Every public entry point returns canonical values in `[0, q)`, and
/// every *coefficient-form* result is bitwise identical to the
/// division-based reference. The order of a transformed vector's entries
/// is unspecified: only pointwise operations are defined on it.
#[derive(Clone, Debug)]
pub struct RtNttTable {
    modulus: u64,
    two_q: u64,
    n: usize,
    /// `ψ^{bitrev(i)}`, the forward twiddles.
    psi_rev: ShoupVec,
    /// `ψ^{-bitrev(i)}`, the inverse twiddles.
    psi_inv_rev: ShoupVec,
    /// The last inverse stage's multipliers `(w, ⌊w·2^64/q⌋)` with `n⁻¹`
    /// folded in: `n⁻¹` for the sum lane, `ψ^{-n/2}·n⁻¹` for the
    /// difference lane.
    last_inv: [(u64, u64); 2],
    /// Shoup quotient of the constant 1: multiplying by it reduces any
    /// `u64` without dividing.
    one_shoup: u64,
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
        let psi_inv_rev = ShoupVec::bit_reversed_powers(inv_mod(psi, modulus), n, modulus);
        let n_inv = inv_mod(n as u64, modulus);
        // The one-stage twiddle is entry 1; a length-1 transform has no
        // stage and uses the sum lane alone.
        let last_twiddle = mul_mod(psi_inv_rev.w[n.min(2) - 1], n_inv, modulus);
        Self {
            modulus,
            two_q: modulus << 1,
            n,
            psi_rev: ShoupVec::bit_reversed_powers(psi, n, modulus),
            psi_inv_rev,
            last_inv: [n_inv, last_twiddle].map(|w| (w, shoup_precompute(w, modulus))),
            one_shoup: shoup_precompute(1, modulus),
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

    /// One Cooley–Tukey stage: `m` blocks of `2t` elements, block `i`
    /// using twiddle `psi_rev[m + i]`.
    ///
    /// Values stay in `[0, 4q)` between stages (Harvey). The `FIRST`
    /// stage instead takes arbitrary `u64` input, reducing the
    /// unmultiplied lane by a Shoup multiplication with 1; the `LAST`
    /// stage canonicalizes what it writes.
    #[inline(always)]
    fn forward_stage<const FIRST: bool, const LAST: bool>(
        &self,
        a: &mut [u64],
        m: usize,
        t: usize,
    ) {
        let (q, two_q) = (self.modulus, self.two_q);
        let twiddles = self.psi_rev.w[m..2 * m]
            .iter()
            .zip(&self.psi_rev.shoup[m..2 * m]);
        for (block, (&w, &ws)) in a.chunks_exact_mut(2 * t).zip(twiddles) {
            let (lo, hi) = block.split_at_mut(t);
            for (x, y) in lo.iter_mut().zip(hi) {
                let u = if FIRST {
                    mul_mod_shoup_lazy(*x, 1, self.one_shoup, q)
                } else {
                    (*x).min((*x).wrapping_sub(two_q))
                };
                let v = mul_mod_shoup_lazy(*y, w, ws, q);
                let (mut s, mut d) = (u + v, u + two_q - v);
                if LAST {
                    s = s.min(s.wrapping_sub(two_q));
                    s = s.min(s.wrapping_sub(q));
                    d = d.min(d.wrapping_sub(two_q));
                    d = d.min(d.wrapping_sub(q));
                }
                *x = s;
                *y = d;
                keep_scalar();
            }
        }
    }

    /// In-place forward negacyclic NTT. Input may be any `u64` residues;
    /// output is canonical (`< q`), in an unspecified order that
    /// [`Self::inverse`] undoes.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length mismatch");
        match self.n {
            1 => a[0] = mul_mod_shoup(a[0], 1, self.one_shoup, self.modulus),
            2 => self.forward_stage::<true, true>(a, 1, 1),
            n => {
                self.forward_stage::<true, false>(a, 1, n / 2);
                let (mut m, mut t) = (2, n / 4);
                while t > 1 {
                    self.forward_stage::<false, false>(a, m, t);
                    m <<= 1;
                    t >>= 1;
                }
                self.forward_stage::<false, true>(a, m, 1);
            }
        }
    }

    /// In-place inverse negacyclic NTT of a vector [`Self::forward`]
    /// produced (or a pointwise combination of such vectors). Input must
    /// be below `2q`; output is canonical (`< q`).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length mismatch");
        let (q, two_q) = (self.modulus, self.two_q);
        // Gentleman–Sande stages of `h` blocks of `2t` elements, block `i`
        // using twiddle `psi_inv_rev[h + i]`; values in `[0, 2q)`
        // throughout.
        let (mut h, mut t) = (self.n / 2, 1);
        while h > 1 {
            let twiddles = self.psi_inv_rev.w[h..2 * h]
                .iter()
                .zip(&self.psi_inv_rev.shoup[h..2 * h]);
            for (block, (&w, &ws)) in a.chunks_exact_mut(2 * t).zip(twiddles) {
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi) {
                    let (u, v) = (*x, *y);
                    let s = u + v;
                    *x = s.min(s.wrapping_sub(two_q));
                    *y = mul_mod_shoup_lazy(u + two_q - v, w, ws, q);
                    keep_scalar();
                }
            }
            h >>= 1;
            t <<= 1;
        }
        // The last stage multiplies both lanes by a constant carrying
        // n⁻¹, which also canonicalizes them.
        let [(w_sum, ws_sum), (w_diff, ws_diff)] = self.last_inv;
        if self.n == 1 {
            a[0] = mul_mod_shoup(a[0], w_sum, ws_sum, q);
            return;
        }
        let (lo, hi) = a.split_at_mut(t);
        for (x, y) in lo.iter_mut().zip(hi) {
            let (u, v) = (*x, *y);
            *x = mul_mod_shoup(u + v, w_sum, ws_sum, q);
            *y = mul_mod_shoup(u + two_q - v, w_diff, ws_diff, q);
            keep_scalar();
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
    use crate::primes::{BGV_Q1, BGV_Q2, BGV_Q_ROOTS, BGV_T_PRIME, BGV_T_ROOT};

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

    /// Both BGV ciphertext primes and the plaintext prime.
    const NTT_PRIMES: [(u64, u64); 3] = [
        (BGV_Q1, BGV_Q_ROOTS[0]),
        (BGV_Q2, BGV_Q_ROOTS[1]),
        (BGV_T_PRIME, BGV_T_ROOT),
    ];

    /// Lengths where the merged first/last stages coincide or vanish,
    /// plus ordinary ones.
    const LENGTHS: [usize; 5] = [1, 2, 4, 16, 128];

    fn arbitrary(n: usize, salt: u64) -> Vec<u64> {
        (0..n as u64)
            .map(|i| (i + salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (u64::MAX >> (i % 3)))
            .collect()
    }

    #[test]
    fn rt_ntt_roundtrip() {
        for (q, r) in NTT_PRIMES {
            for n in LENGTHS {
                let t = RtNttTable::new(n, q, r);
                // Arbitrary u64 input, not just canonical residues.
                let raw = arbitrary(n, q);
                let mut a = raw.clone();
                t.forward(&mut a);
                assert!(a.iter().all(|&x| x < q), "forward output not canonical");
                t.inverse(&mut a);
                let want: Vec<u64> = raw.iter().map(|&x| x % q).collect();
                assert_eq!(a, want, "q={q} n={n}");
            }
        }
    }

    #[test]
    fn forward_is_the_bit_reversed_negacyclic_evaluation() {
        // The definition, with no butterfly in it: entry k of the
        // transform is a(ψ^{2k+1}). `forward` returns it at index
        // bitrev(k); nothing outside this module may rely on that.
        for (q, r) in NTT_PRIMES {
            for n in LENGTHS {
                let bits = n.trailing_zeros();
                let psi = naive::pow_mod(r, (q - 1) >> (bits + 1), q);
                let a: Vec<u64> = arbitrary(n, 7).iter().map(|&x| x % q).collect();
                let mut got = a.clone();
                RtNttTable::new(n, q, r).forward(&mut got);
                for k in 0..n {
                    let point = naive::pow_mod(psi, 2 * k as u64 + 1, q);
                    let want = a
                        .iter()
                        .rev()
                        .fold(0, |acc, &c| add_mod(naive::mul_mod(acc, point, q), c, q));
                    assert_eq!(got[bit_reverse(k, bits)], want, "q={q} n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn negacyclic_mul_matches_schoolbook() {
        // The definition, with no transform in it: coefficient i + j of
        // a·b, negated when it wraps past X^n.
        for (q, r) in NTT_PRIMES {
            for n in [1, 2, 4, 64] {
                let a: Vec<u64> = (0..n as u64).map(|i| (i * i * 977 + 3) % q).collect();
                let b: Vec<u64> = (0..n as u64).map(|i| (q - 1 - i * 104_729) % q).collect();
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
                    "q={q} n={n}"
                );
            }
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
        // The first stage reduces any u64 input, as dividing first would.
        let t = RtNttTable::new(16, BGV_Q1, BGV_Q_ROOTS[0]);
        let mut raw: Vec<u64> = (0..16).map(|i| u64::MAX - i).collect();
        let mut reduced: Vec<u64> = raw.iter().map(|&x| x % BGV_Q1).collect();
        t.forward(&mut raw);
        t.forward(&mut reduced);
        assert_eq!(raw, reduced);
    }
}
