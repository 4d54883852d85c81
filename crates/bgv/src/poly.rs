//! RNS polynomial arithmetic in `Z_q[x]/(x^n + 1)`.
//!
//! A polynomial is stored as one residue row per RNS prime; ring
//! operations act row-wise, with NTT-based multiplication per prime. CRT
//! composition (Garner's algorithm) reconstructs `u128` coefficients for
//! the two operations that need the full modulus: relinearization digit
//! decomposition and noise measurement.
//!
//! The hot paths are division-free and allocation-light: each context
//! carries one [`Barrett`] reducer per prime (CRT decomposition, noise
//! measurement, residues of out-of-range coefficients), the Garner
//! constant is stored with its Shoup quotient, and a [`ScratchPool`]
//! recycles per-prime buffers (the second transform buffer of
//! [`RnsPoly::mul`], relinearization digits, the rows `encrypt` fills and
//! the buffer it packs its samples into). What depends only on the
//! parameters is built once per context: the `t·e mod q` value of every
//! possible fresh error, per prime ([`BgvContext::t_e_table`]).
//! Fixed multiplicands — the keys — are kept transformed ([`EvalPoly`]),
//! so a product with one costs one forward and one inverse transform per
//! prime. Evaluation form never leaves this crate: every [`RnsPoly`] is
//! coefficient form.

use std::sync::Mutex;

use arboretum_field::zq::{
    add_mod, inv_mod, mul_mod_shoup, mul_mod_shoup_lazy, neg_mod, shoup_precompute, sub_mod,
    Barrett, RtNttTable,
};

use crate::params::BgvParams;

/// A pool of reusable `n`-length coefficient buffers.
///
/// Checked-out buffers are always exactly `n` long (zero-filled on first
/// allocation, arbitrary contents on reuse — callers overwrite). The pool
/// is a mutex-guarded free list: contention is negligible because
/// checkouts bracket NTT work that is orders of magnitude longer than the
/// lock hold time, and per-shard executor pools each own a cloned
/// context.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<Vec<u64>>>,
}

impl ScratchPool {
    /// Checks out a buffer of length `n`, reusing a returned one if
    /// available.
    pub fn take(&self, n: usize) -> Vec<u64> {
        let recycled = self.free.lock().expect("scratch pool poisoned").pop();
        match recycled {
            Some(mut v) => {
                v.resize(n, 0);
                v
            }
            None => vec![0u64; n],
        }
    }

    /// Returns a buffer to the pool for reuse.
    pub fn put(&self, v: Vec<u64>) {
        self.free.lock().expect("scratch pool poisoned").push(v);
    }
}

impl Clone for ScratchPool {
    fn clone(&self) -> Self {
        // A cloned context starts with an empty free list; buffers are
        // cheap to warm up and sharing them across clones would couple
        // otherwise-independent pools.
        Self::default()
    }
}

/// Most entries a [`TeTable`] can need: `2·error_bound + 1` with
/// `error_bound ≤ 31` (errors are differences of `u32` popcounts).
pub(crate) const TE_ENTRIES: usize = 64;

/// `t·e mod q` for `e ∈ [−error_bound, error_bound]` at index
/// `e + error_bound`, zero-padded to a power of two so a masked index
/// needs no bounds check.
pub(crate) type TeTable = [u64; TE_ENTRIES];

/// Precomputed per-parameter-set state: NTT tables and CRT constants.
#[derive(Debug, Clone)]
pub struct BgvContext {
    /// The validated parameters.
    pub params: BgvParams,
    /// One NTT table per RNS prime.
    pub ntts: Vec<RtNttTable>,
    /// One Barrett reducer per RNS prime (index-matched to `moduli`).
    barretts: Vec<Barrett>,
    /// Garner constant `q_0^{-1} mod q_1` with its Shoup quotient
    /// (two-prime case).
    garner_inv: Option<(u64, u64)>,
    /// Per prime: `t·e mod q` for every fresh error `e`, at index
    /// `e + error_bound`.
    t_e: Vec<TeTable>,
    /// Reusable per-prime coefficient buffers.
    pub scratch: ScratchPool,
}

impl BgvContext {
    /// Builds the context for a parameter set.
    ///
    /// # Panics
    ///
    /// Panics if `params.error_bound` exceeds 31 (fresh errors are
    /// differences of two popcounts of `error_bound`-bit draws from a
    /// `u32`).
    pub fn new(params: BgvParams) -> Self {
        let bound = i64::from(params.error_bound);
        assert!(
            2 * bound < TE_ENTRIES as i64,
            "error bound {bound} exceeds 31"
        );
        let ntts = params
            .moduli
            .iter()
            .zip(&params.roots)
            .map(|(&q, &r)| RtNttTable::new(params.n, q, r))
            .collect();
        let barretts: Vec<Barrett> = params.moduli.iter().map(|&q| Barrett::new(q)).collect();
        let t_e = barretts
            .iter()
            .map(|b| {
                let mut table = [0u64; TE_ENTRIES];
                for (slot, e) in table.iter_mut().zip(-bound..=bound) {
                    *slot = b.mul_mod(params.t, signed_residue(e, b));
                }
                table
            })
            .collect();
        let garner_inv = if params.moduli.len() == 2 {
            let q1 = params.moduli[1];
            let g = inv_mod(params.moduli[0] % q1, q1); // div-ok: once per context
            Some((g, shoup_precompute(g, q1)))
        } else {
            None
        };
        Self {
            params,
            ntts,
            barretts,
            garner_inv,
            t_e,
            scratch: ScratchPool::default(),
        }
    }

    /// Ring degree.
    pub fn n(&self) -> usize {
        self.params.n
    }

    /// The Barrett reducer for RNS prime `i`.
    pub fn barrett(&self, i: usize) -> &Barrett {
        &self.barretts[i]
    }

    /// The `t·e mod q` table of RNS prime `i`.
    pub(crate) fn t_e_table(&self, i: usize) -> &TeTable {
        &self.t_e[i]
    }

    /// CRT-composes the two residues of one coefficient (two-prime
    /// contexts) into its `u128` value.
    #[inline]
    pub fn compose_pair(&self, x0: u64, x1: u64) -> u128 {
        // Garner: x = x0 + q0 * ((x1 - x0) * q0^{-1} mod q1).
        let q0 = self.params.moduli[0];
        let q1 = self.params.moduli[1];
        let (g, g_shoup) = self.garner_inv.expect("two-prime context");
        let b1 = &self.barretts[1];
        let diff = sub_mod(b1.reduce(x1 as u128), b1.reduce(x0 as u128), q1);
        let t = mul_mod_shoup(diff, g, g_shoup, q1);
        x0 as u128 + q0 as u128 * t as u128
    }

    /// CRT-composes per-prime residues of one coefficient into `u128`.
    pub fn compose(&self, residues: &[u64]) -> u128 {
        match residues.len() {
            1 => residues[0] as u128,
            2 => self.compose_pair(residues[0], residues[1]),
            k => panic!("unsupported RNS prime count {k}"),
        }
    }

    /// Reduces a `u128` into per-prime residues.
    pub fn decompose(&self, x: u128) -> Vec<u64> {
        self.barretts.iter().map(|b| b.reduce(x)).collect()
    }
}

/// `c mod q`: a compare for the values that occur in volume (plaintexts,
/// secrets, errors — all below every prime), Barrett for the rest.
#[inline]
fn residue(c: u64, b: &Barrett) -> u64 {
    if c < b.modulus() {
        c
    } else {
        b.reduce(c as u128)
    }
}

/// The canonical residue of a signed coefficient. Secrets and errors —
/// the values that occur in volume — have a random sign and a magnitude
/// below every prime, so that case adds `q` under a sign mask instead of
/// branching on the sign.
#[inline]
pub(crate) fn signed_residue(c: i64, b: &Barrett) -> u64 {
    let q = b.modulus();
    let small = (q & (c >> 63) as u64).wrapping_add(c as u64);
    if c.unsigned_abs() < q {
        small
    } else {
        large_signed_residue(c, b)
    }
}

#[cold]
fn large_signed_residue(c: i64, b: &Barrett) -> u64 {
    let r = b.reduce(c.unsigned_abs() as u128);
    if c < 0 {
        neg_mod(r, b.modulus())
    } else {
        r
    }
}

/// A ring element in evaluation form, for use as a fixed multiplicand:
/// per prime, the forward transform of its coefficient row and the Shoup
/// quotients of those values. Built only from an [`RnsPoly`] and never
/// mutated, so it cannot disagree with the coefficient form it caches.
#[derive(Clone, Debug)]
pub(crate) struct EvalPoly {
    rows: Vec<(Vec<u64>, Vec<u64>)>,
}

impl EvalPoly {
    pub(crate) fn new(ctx: &BgvContext, p: &RnsPoly) -> Self {
        let rows = p
            .rows
            .iter()
            .zip(&ctx.ntts)
            .map(|(row, ntt)| {
                let mut w = row.clone();
                ntt.forward(&mut w);
                let q = ntt.modulus();
                let shoup = w.iter().map(|&x| shoup_precompute(x, q)).collect();
                (w, shoup)
            })
            .collect();
        Self { rows }
    }

    /// Turns the transformed row `x` of prime `i` into the coefficients
    /// of its product with this element. The pointwise products stay in
    /// `[0, 2q)`, which [`RtNttTable::inverse`] accepts.
    pub(crate) fn mul_inverse_row(&self, i: usize, ntt: &RtNttTable, x: &mut [u64]) {
        let (w, shoup) = &self.rows[i];
        for ((x, &w), &ws) in x.iter_mut().zip(w).zip(shoup) {
            *x = mul_mod_shoup_lazy(*x, w, ws, ntt.modulus());
        }
        ntt.inverse(x);
    }
}

/// An element of `Z_q[x]/(x^n + 1)` in RNS representation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RnsPoly {
    /// `rows[i][j]` is coefficient `j` modulo `moduli[i]`.
    pub rows: Vec<Vec<u64>>,
}

impl RnsPoly {
    /// The zero polynomial.
    pub fn zero(ctx: &BgvContext) -> Self {
        Self {
            rows: ctx
                .params
                .moduli
                .iter()
                .map(|_| vec![0u64; ctx.n()])
                .collect(),
        }
    }

    /// Builds from signed coefficients (e.g. secrets and errors).
    pub fn from_signed(ctx: &BgvContext, coeffs: &[i64]) -> Self {
        assert_eq!(coeffs.len(), ctx.n(), "coefficient count mismatch");
        let rows = ctx
            .barretts
            .iter()
            .map(|b| coeffs.iter().map(|&c| signed_residue(c, b)).collect())
            .collect();
        Self { rows }
    }

    /// Builds from unsigned coefficients already below every modulus... or
    /// reduced per prime.
    pub fn from_unsigned(ctx: &BgvContext, coeffs: &[u64]) -> Self {
        assert_eq!(coeffs.len(), ctx.n(), "coefficient count mismatch");
        let rows = ctx
            .barretts
            .iter()
            .map(|b| coeffs.iter().map(|&c| residue(c, b)).collect())
            .collect();
        Self { rows }
    }

    /// Pointwise (ring) addition.
    pub fn add(&self, other: &Self, ctx: &BgvContext) -> Self {
        self.zip_with(other, ctx, add_mod)
    }

    /// Pointwise subtraction.
    pub fn sub(&self, other: &Self, ctx: &BgvContext) -> Self {
        self.zip_with(other, ctx, sub_mod)
    }

    /// In-place pointwise addition (`self ⊞= other`), the zero-allocation
    /// form used by aggregation folds. Bitwise identical to [`Self::add`].
    pub fn add_assign(&mut self, other: &Self, ctx: &BgvContext) {
        self.zip_assign(other, ctx, add_mod)
    }

    /// In-place pointwise subtraction.
    pub fn sub_assign(&mut self, other: &Self, ctx: &BgvContext) {
        self.zip_assign(other, ctx, sub_mod)
    }

    /// Negation.
    pub fn neg(&self, ctx: &BgvContext) -> Self {
        let rows = self
            .rows
            .iter()
            .zip(&ctx.params.moduli)
            .map(|(row, &q)| row.iter().map(|&c| neg_mod(c, q)).collect())
            .collect();
        Self { rows }
    }

    /// Ring multiplication via per-prime negacyclic NTT.
    ///
    /// The second transform buffer comes from the context's scratch pool
    /// and is returned after the pointwise stage; only the result row
    /// itself is (possibly) a fresh allocation.
    pub fn mul(&self, other: &Self, ctx: &BgvContext) -> Self {
        let rows = self
            .rows
            .iter()
            .zip(&other.rows)
            .zip(&ctx.ntts)
            .map(|((a, b), ntt)| {
                let mut fa = ctx.scratch.take(a.len());
                fa.copy_from_slice(a);
                let mut fb = ctx.scratch.take(b.len());
                fb.copy_from_slice(b);
                ntt.negacyclic_mul_inplace(&mut fa, &mut fb);
                ctx.scratch.put(fb);
                fa
            })
            .collect();
        Self { rows }
    }

    /// Ring multiplication by an element kept in evaluation form: one
    /// forward and one inverse transform per prime, no second buffer.
    pub(crate) fn mul_eval(&self, other: &EvalPoly, ctx: &BgvContext) -> Self {
        let rows = self
            .rows
            .iter()
            .zip(&ctx.ntts)
            .enumerate()
            .map(|(i, (a, ntt))| {
                let mut fa = ctx.scratch.take(a.len());
                fa.copy_from_slice(a);
                ntt.forward(&mut fa);
                other.mul_inverse_row(i, ntt, &mut fa);
                fa
            })
            .collect();
        Self { rows }
    }

    /// Multiplication by an unsigned scalar.
    pub fn scale(&self, k: u64, ctx: &BgvContext) -> Self {
        let rows = self
            .rows
            .iter()
            .zip(&ctx.barretts)
            .map(|(row, b)| {
                let q = b.modulus();
                let kq = residue(k, b);
                let kq_shoup = shoup_precompute(kq, q);
                row.iter()
                    .map(|&c| mul_mod_shoup(c, kq, kq_shoup, q))
                    .collect()
            })
            .collect();
        Self { rows }
    }

    /// CRT-composes every coefficient to its centered `i128` value
    /// (in `(-q/2, q/2]`).
    pub fn centered_coeffs(&self, ctx: &BgvContext) -> Vec<i128> {
        let q = ctx.params.q();
        let half = q / 2;
        let center = |x: u128| -> i128 {
            if x > half {
                -((q - x) as i128)
            } else {
                x as i128
            }
        };
        match self.rows.len() {
            1 => self.rows[0].iter().map(|&x| center(x as u128)).collect(),
            2 => self.rows[0]
                .iter()
                .zip(&self.rows[1])
                .map(|(&x0, &x1)| center(ctx.compose_pair(x0, x1)))
                .collect(),
            k => panic!("unsupported RNS prime count {k}"),
        }
    }

    fn zip_with(&self, other: &Self, ctx: &BgvContext, f: fn(u64, u64, u64) -> u64) -> Self {
        let rows = self
            .rows
            .iter()
            .zip(&other.rows)
            .zip(&ctx.params.moduli)
            .map(|((a, b), &q)| a.iter().zip(b).map(|(&x, &y)| f(x, y, q)).collect())
            .collect();
        Self { rows }
    }

    fn zip_assign(&mut self, other: &Self, ctx: &BgvContext, f: fn(u64, u64, u64) -> u64) {
        for ((a, b), &q) in self
            .rows
            .iter_mut()
            .zip(&other.rows)
            .zip(&ctx.params.moduli)
        {
            for (x, &y) in a.iter_mut().zip(b) {
                *x = f(*x, y, q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BgvParams;

    fn ctx() -> BgvContext {
        BgvContext::new(BgvParams::test_small())
    }

    #[test]
    fn compose_decompose_roundtrip() {
        let c = ctx();
        for x in [0u128, 1, 12_345, 1 << 80, c.params.q() - 1] {
            let r = c.decompose(x);
            assert_eq!(c.compose(&r), x, "x = {x}");
        }
    }

    #[test]
    fn add_sub_inverse() {
        let c = ctx();
        let a = RnsPoly::from_signed(&c, &vec![7i64; c.n()]);
        let b = RnsPoly::from_signed(&c, &vec![-3i64; c.n()]);
        assert_eq!(a.add(&b, &c).sub(&b, &c), a);
    }

    #[test]
    fn assign_ops_match_allocating_ops() {
        let c = ctx();
        let a = RnsPoly::from_signed(&c, &(0..c.n() as i64).map(|i| i - 50).collect::<Vec<_>>());
        let b = RnsPoly::from_signed(
            &c,
            &(0..c.n() as i64).map(|i| 3 * i + 1).collect::<Vec<_>>(),
        );
        let mut x = a.clone();
        x.add_assign(&b, &c);
        assert_eq!(x, a.add(&b, &c));
        let mut y = a.clone();
        y.sub_assign(&b, &c);
        assert_eq!(y, a.sub(&b, &c));
    }

    #[test]
    fn signed_roundtrip_through_centered() {
        let c = ctx();
        let mut coeffs = vec![0i64; c.n()];
        coeffs[0] = -5;
        coeffs[1] = 42;
        coeffs[2] = -1_000_000;
        let p = RnsPoly::from_signed(&c, &coeffs);
        let back = p.centered_coeffs(&c);
        assert_eq!(back[0], -5);
        assert_eq!(back[1], 42);
        assert_eq!(back[2], -1_000_000);
        assert!(back[3..].iter().all(|&x| x == 0));
    }

    #[test]
    fn mul_matches_small_example() {
        // (1 + x) * (1 - x) = 1 - x^2.
        let c = ctx();
        let mut a = vec![0i64; c.n()];
        let mut b = vec![0i64; c.n()];
        a[0] = 1;
        a[1] = 1;
        b[0] = 1;
        b[1] = -1;
        let p = RnsPoly::from_signed(&c, &a).mul(&RnsPoly::from_signed(&c, &b), &c);
        let got = p.centered_coeffs(&c);
        assert_eq!(got[0], 1);
        assert_eq!(got[1], 0);
        assert_eq!(got[2], -1);
    }

    #[test]
    fn negacyclic_identity() {
        // x^{n-1} * x = -1 in the ring.
        let c = ctx();
        let mut a = vec![0i64; c.n()];
        let mut b = vec![0i64; c.n()];
        a[c.n() - 1] = 1;
        b[1] = 1;
        let p = RnsPoly::from_signed(&c, &a).mul(&RnsPoly::from_signed(&c, &b), &c);
        let got = p.centered_coeffs(&c);
        assert_eq!(got[0], -1);
        assert!(got[1..].iter().all(|&x| x == 0));
    }

    #[test]
    fn scale_matches_repeated_add() {
        let c = ctx();
        let a = RnsPoly::from_signed(&c, &vec![3i64; c.n()]);
        let mut acc = RnsPoly::zero(&c);
        for _ in 0..5 {
            acc = acc.add(&a, &c);
        }
        assert_eq!(a.scale(5, &c), acc);
    }

    #[test]
    fn scratch_pool_recycles_buffers() {
        let pool = ScratchPool::default();
        let mut v = pool.take(16);
        assert_eq!(v.len(), 16);
        v[0] = 99;
        pool.put(v);
        // Reused buffer comes back resized; contents are unspecified but
        // the length contract holds.
        let v2 = pool.take(8);
        assert_eq!(v2.len(), 8);
        let v3 = pool.take(8);
        assert_eq!(v3.len(), 8);
    }

    #[test]
    fn repeated_muls_reuse_scratch() {
        let c = ctx();
        let a = RnsPoly::from_signed(&c, &vec![2i64; c.n()]);
        let b = RnsPoly::from_signed(&c, &vec![3i64; c.n()]);
        let first = a.mul(&b, &c);
        for _ in 0..4 {
            assert_eq!(a.mul(&b, &c), first);
        }
    }

    #[test]
    fn signed_residue_is_the_canonical_residue() {
        let c = ctx();
        for b in &c.barretts {
            let q = b.modulus() as i128;
            let edge = b.modulus() as i64;
            for x in [
                0i64,
                1,
                -1,
                8,
                -8,
                edge - 1,
                1 - edge,
                edge,
                -edge,
                edge + 1,
                -edge - 1,
                i64::MAX,
                i64::MIN + 1,
                i64::MIN,
            ] {
                let want = (x as i128).rem_euclid(q) as u64;
                assert_eq!(signed_residue(x, b), want, "x = {x}");
            }
        }
    }

    #[test]
    fn t_e_tables_hold_every_fresh_error() {
        let c = ctx();
        let bound = i64::from(c.params.error_bound);
        for (i, b) in c.barretts.iter().enumerate() {
            let table = c.t_e_table(i);
            for e in -bound..=bound {
                let want = (c.params.t as i128 * e as i128).rem_euclid(b.modulus() as i128);
                assert_eq!(table[(e + bound) as usize], want as u64, "e = {e}");
            }
            assert!(table[(2 * bound + 1) as usize..].iter().all(|&x| x == 0));
        }
    }
}
