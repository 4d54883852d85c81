//! The BGV cryptosystem: key generation, encryption, and evaluation.
//!
//! Implements the Brakerski–Gentry–Vaikuntanathan scheme over the RNS
//! polynomial ring from [`crate::poly`]:
//!
//! * keys: ternary secret `s`; public key `(b, a)` with `b = -(a·s) + t·e`;
//! * encryption of `m ∈ R_t`: `(c0, c1) = (b·u + t·e0 + m, a·u + t·e1)`;
//! * decryption: `m = (c0 + c1·s mod q) mod t` with centered reduction;
//! * homomorphic addition, plaintext multiplication, and one level of
//!   ciphertext multiplication with gadget-decomposition relinearization.
//!
//! Keys, ciphertexts and plaintexts are coefficient form at every public
//! boundary. The keys additionally cache their evaluation form
//! ([`crate::poly::EvalPoly`]), so `encrypt` transforms only `u` and the
//! decryption phase `c0 + c1·s` only `c1`.
//!
//! Outside its transforms `encrypt` touches each coefficient a fixed,
//! branch-free number of times: the three fresh samples of a coefficient
//! (`u` and the table indices of `e0`, `e1`) are packed into one word of
//! a pooled buffer, an error costs one 64-bit popcount, and `t·e mod q`
//! is a masked lookup in the context's per-prime table. The RNG is drawn
//! in the order the scheme defines — all of `u`, then `e0`, then `e1` —
//! so ciphertext bytes are a function of `(ctx, pk, m, rng)` only.

use rand::Rng;

use crate::poly::{BgvContext, EvalPoly, RnsPoly, TE_ENTRIES};

/// A BGV secret key.
#[derive(Clone, Debug)]
pub struct SecretKey {
    /// Ternary secret coefficients.
    pub s: Vec<i64>,
    /// `s` in evaluation form, built from `s` at key generation.
    s_eval: EvalPoly,
    /// `s²` in RNS form (cached for relin-key generation).
    s2_rns: RnsPoly,
}

/// A BGV public key `(b, a)`.
///
/// The fields are private so the cached evaluation forms cannot drift
/// from the coefficient forms: the only constructor derives one from the
/// other.
#[derive(Clone, Debug)]
pub struct PublicKey {
    b: RnsPoly,
    a: RnsPoly,
    b_eval: EvalPoly,
    a_eval: EvalPoly,
}

impl PublicKey {
    fn new(ctx: &BgvContext, b: RnsPoly, a: RnsPoly) -> Self {
        let (b_eval, a_eval) = (EvalPoly::new(ctx, &b), EvalPoly::new(ctx, &a));
        Self {
            b,
            a,
            b_eval,
            a_eval,
        }
    }

    /// `b = -(a·s) + t·e`.
    pub fn b(&self) -> &RnsPoly {
        &self.b
    }

    /// The uniform ring element `a`.
    pub fn a(&self) -> &RnsPoly {
        &self.a
    }
}

/// A relinearization (key-switching) key for `s² → s`.
#[derive(Clone, Debug)]
pub struct RelinKey {
    /// Per gadget digit `j`: `b_j = -(a_j·s) + t·e_j + w^j·s²`.
    pub b: Vec<RnsPoly>,
    /// Per gadget digit `j`: uniform `a_j`.
    pub a: Vec<RnsPoly>,
}

/// A BGV ciphertext `(c0, c1)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ciphertext {
    /// The `c0` component.
    pub c0: RnsPoly,
    /// The `c1` component.
    pub c1: RnsPoly,
}

fn sample_ternary<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<i64> {
    (0..n).map(|_| rng.gen_range(-1i64..=1)).collect()
}

/// One centered-binomial error as its [`crate::poly::TeTable`] index
/// `e + bound`: the difference of two `bound`-bit popcounts (variance
/// `bound / 2`, support `[-bound, bound]`), taken as a single popcount
/// since `bound − popcount(b) = popcount(!b & mask)`.
#[inline]
fn sample_error_index<R: Rng + ?Sized>(bound: u32, rng: &mut R) -> u32 {
    let mask = (1u32 << bound) - 1;
    let a = rng.gen::<u32>() & mask;
    let b = rng.gen::<u32>() & mask;
    (u64::from(a) | u64::from(!b & mask) << 32).count_ones()
}

/// `x − q` if `x ≥ q`, else `x`, as a compare-and-select: the operands
/// of `encrypt`'s `t·e + m` pass are random, so a branch here mispredicts
/// every other coefficient.
#[inline]
fn sub_if_geq(x: u64, q: u64) -> u64 {
    x.min(x.wrapping_sub(q))
}

fn sample_error<R: Rng + ?Sized>(n: usize, bound: u32, rng: &mut R) -> Vec<i64> {
    (0..n)
        .map(|_| i64::from(sample_error_index(bound, rng)) - i64::from(bound))
        .collect()
}

fn sample_uniform<R: Rng + ?Sized>(ctx: &BgvContext, rng: &mut R) -> RnsPoly {
    let rows = ctx
        .params
        .moduli
        .iter()
        .map(|&q| (0..ctx.n()).map(|_| rng.gen_range(0..q)).collect())
        .collect();
    RnsPoly { rows }
}

/// Generates a BGV keypair.
pub fn keygen<R: Rng + ?Sized>(ctx: &BgvContext, rng: &mut R) -> (SecretKey, PublicKey) {
    let s = sample_ternary(ctx.n(), rng);
    let s_rns = RnsPoly::from_signed(ctx, &s);
    let s_eval = EvalPoly::new(ctx, &s_rns);
    let s2_rns = s_rns.mul_eval(&s_eval, ctx);
    let a = sample_uniform(ctx, rng);
    let e = RnsPoly::from_signed(ctx, &sample_error(ctx.n(), ctx.params.error_bound, rng));
    let b = a
        .mul_eval(&s_eval, ctx)
        .neg(ctx)
        .add(&e.scale(ctx.params.t, ctx), ctx);
    let sk = SecretKey { s, s_eval, s2_rns };
    (sk, PublicKey::new(ctx, b, a))
}

/// Generates the relinearization key for one multiplication level.
pub fn relin_keygen<R: Rng + ?Sized>(ctx: &BgvContext, sk: &SecretKey, rng: &mut R) -> RelinKey {
    let digits = ctx.params.relin_digits();
    let w_bits = ctx.params.relin_base_bits;
    let mut bs = Vec::with_capacity(digits);
    let mut as_ = Vec::with_capacity(digits);
    for j in 0..digits {
        let a_j = sample_uniform(ctx, rng);
        let e_j = RnsPoly::from_signed(ctx, &sample_error(ctx.n(), ctx.params.error_bound, rng));
        // w^j · s², scaled per RNS prime (fixed multiplier → Shoup).
        let mut wj_s2 = sk.s2_rns.clone();
        for (row, &q) in wj_s2.rows.iter_mut().zip(&ctx.params.moduli) {
            let wj = arboretum_field::zq::pow_mod(1u64 << w_bits, j as u64, q);
            let wj_shoup = arboretum_field::zq::shoup_precompute(wj, q);
            for c in row.iter_mut() {
                *c = arboretum_field::zq::mul_mod_shoup(*c, wj, wj_shoup, q);
            }
        }
        let mut b_j = a_j.mul_eval(&sk.s_eval, ctx).neg(ctx);
        b_j.add_assign(&e_j.scale(ctx.params.t, ctx), ctx);
        b_j.add_assign(&wj_s2, ctx);
        bs.push(b_j);
        as_.push(a_j);
    }
    RelinKey { b: bs, a: as_ }
}

/// Encrypts a plaintext polynomial (coefficients reduced mod `t`).
///
/// Per prime: one forward transform of `u`, a pointwise product with
/// each half of the transformed public key, two inverse transforms, and
/// one pass adding `t·e + m` from the context's `t·e` table.
///
/// # Panics
///
/// Panics if `m` does not have one length-`n` row per RNS prime.
pub fn encrypt<R: Rng + ?Sized>(
    ctx: &BgvContext,
    pk: &PublicKey,
    m: &RnsPoly,
    rng: &mut R,
) -> Ciphertext {
    let (n, primes) = (ctx.n(), ctx.ntts.len());
    assert_eq!(m.rows.len(), primes, "plaintext row count mismatch");
    assert!(
        m.rows.iter().all(|row| row.len() == n),
        "plaintext row length mismatch"
    );
    let bound = ctx.params.error_bound;
    // Word `j` holds coefficient `j`'s samples: `u` in the low byte (two's
    // complement), then the table indices of `e0` and `e1`.
    const E0: u32 = 8;
    const E1: u32 = 16;
    const INDEX: u64 = TE_ENTRIES as u64 - 1;
    let mut samples = ctx.scratch.take(n);
    for s in samples.iter_mut() {
        *s = u64::from(rng.gen_range(-1i8..=1) as u8);
    }
    for shift in [E0, E1] {
        for s in samples.iter_mut() {
            *s |= u64::from(sample_error_index(bound, rng)) << shift;
        }
    }
    let (mut c0, mut c1) = (Vec::with_capacity(primes), Vec::with_capacity(primes));
    for (i, (ntt, m_row)) in ctx.ntts.iter().zip(&m.rows).enumerate() {
        let (q, t_e) = (ntt.modulus(), ctx.t_e_table(i));
        // Residues of 0, 1 and −1 at the low two bits of their bytes.
        let ternary = [0, 1, 0, q - 1];
        let mut bu = ctx.scratch.take(n);
        for (x, &s) in bu.iter_mut().zip(&samples) {
            *x = ternary[(s & 3) as usize];
        }
        ntt.forward(&mut bu);
        let mut au = ctx.scratch.take(n);
        au.copy_from_slice(&bu);
        pk.b_eval.mul_inverse_row(i, ntt, &mut bu);
        pk.a_eval.mul_inverse_row(i, ntt, &mut au);
        // Each term is below q < 2^62, so the sums cannot overflow.
        for ((x, &s), &m) in bu.iter_mut().zip(&samples).zip(m_row) {
            *x = sub_if_geq(sub_if_geq(*x + t_e[(s >> E0 & INDEX) as usize] + m, q), q);
        }
        for (x, &s) in au.iter_mut().zip(&samples) {
            *x = sub_if_geq(*x + t_e[(s >> E1 & INDEX) as usize], q);
        }
        c0.push(bu);
        c1.push(au);
    }
    ctx.scratch.put(samples);
    Ciphertext {
        c0: RnsPoly { rows: c0 },
        c1: RnsPoly { rows: c1 },
    }
}

/// The decryption phase `c0 + c1·s mod q`, centered.
fn phase(ctx: &BgvContext, sk: &SecretKey, ct: &Ciphertext) -> Vec<i128> {
    let mut d = ct.c1.mul_eval(&sk.s_eval, ctx);
    d.add_assign(&ct.c0, ctx);
    d.centered_coeffs(ctx)
}

/// Decrypts a ciphertext to its plaintext coefficients in `[0, t)`.
pub fn decrypt(ctx: &BgvContext, sk: &SecretKey, ct: &Ciphertext) -> Vec<u64> {
    let t = ctx.params.t as i128;
    phase(ctx, sk, ct)
        .into_iter()
        .map(|c| c.rem_euclid(t) as u64) // div-ok: i128 phase mod t, once per released coefficient
        .collect()
}

/// Homomorphic addition.
pub fn add(ctx: &BgvContext, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
    Ciphertext {
        c0: a.c0.add(&b.c0, ctx),
        c1: a.c1.add(&b.c1, ctx),
    }
}

/// In-place homomorphic addition (`a ⊞= b`): the zero-allocation form
/// used by aggregation folds. Bitwise identical to [`add`].
pub fn add_assign(ctx: &BgvContext, a: &mut Ciphertext, b: &Ciphertext) {
    a.c0.add_assign(&b.c0, ctx);
    a.c1.add_assign(&b.c1, ctx);
}

/// Homomorphic subtraction.
pub fn sub(ctx: &BgvContext, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
    Ciphertext {
        c0: a.c0.sub(&b.c0, ctx),
        c1: a.c1.sub(&b.c1, ctx),
    }
}

/// Multiplication by an unencrypted scalar.
pub fn mul_scalar(ctx: &BgvContext, a: &Ciphertext, k: u64) -> Ciphertext {
    Ciphertext {
        c0: a.c0.scale(k, ctx),
        c1: a.c1.scale(k, ctx),
    }
}

/// Multiplication by an unencrypted plaintext polynomial.
pub fn mul_plain(ctx: &BgvContext, a: &Ciphertext, m: &RnsPoly) -> Ciphertext {
    Ciphertext {
        c0: a.c0.mul(m, ctx),
        c1: a.c1.mul(m, ctx),
    }
}

/// Homomorphic ciphertext multiplication with relinearization.
///
/// Computes the degree-2 tensor product and immediately key-switches the
/// `s²` component back to `s` using `rlk`, so the result is a standard
/// two-component ciphertext.
pub fn mul(ctx: &BgvContext, a: &Ciphertext, b: &Ciphertext, rlk: &RelinKey) -> Ciphertext {
    let d0 = a.c0.mul(&b.c0, ctx);
    let d1 = a.c0.mul(&b.c1, ctx).add(&a.c1.mul(&b.c0, ctx), ctx);
    let d2 = a.c1.mul(&b.c1, ctx);
    // Gadget-decompose d2 and fold in the relin key.
    let digits = gadget_decompose(ctx, &d2);
    let mut c0 = d0;
    let mut c1 = d1;
    for (j, dj) in digits.iter().enumerate() {
        c0.add_assign(&dj.mul(&rlk.b[j], ctx), ctx);
        c1.add_assign(&dj.mul(&rlk.a[j], ctx), ctx);
    }
    Ciphertext { c0, c1 }
}

/// Decomposes a polynomial into base-`2^w` digit polynomials via CRT
/// composition of each coefficient.
///
/// Digits are written straight into the per-prime rows — no per-coefficient
/// residue vector and no trailing reduction pass. Every digit is below
/// `2^w`, which is below every RNS modulus and the plaintext modulus by
/// parameter validation, so the raw digit *is* its canonical residue.
fn gadget_decompose(ctx: &BgvContext, p: &RnsPoly) -> Vec<RnsPoly> {
    let w_bits = ctx.params.relin_base_bits;
    let digits = ctx.params.relin_digits();
    let n_primes = p.rows.len();
    let mask = (1u128 << w_bits) - 1;
    debug_assert!(
        ctx.params.moduli.iter().all(|&q| q > mask as u64),
        "gadget digits must be canonical in every RNS row"
    );
    let mut out: Vec<RnsPoly> = (0..digits)
        .map(|_| RnsPoly {
            rows: (0..n_primes).map(|_| ctx.scratch.take(ctx.n())).collect(),
        })
        .collect();
    for j in 0..ctx.n() {
        let mut x = match n_primes {
            1 => p.rows[0][j] as u128,
            2 => ctx.compose_pair(p.rows[0][j], p.rows[1][j]),
            k => panic!("unsupported RNS prime count {k}"),
        };
        for digit_poly in out.iter_mut() {
            let d = (x & mask) as u64;
            for row in digit_poly.rows.iter_mut() {
                row[j] = d;
            }
            x >>= w_bits;
        }
    }
    out
}

/// Measures the remaining noise budget of a ciphertext, in bits.
///
/// Returns `log2(q / (2·|v|·t))`-ish: the number of additional doublings
/// the invariant noise can absorb before decryption fails. Zero (or
/// negative, clamped to zero) means the ciphertext is at the edge.
pub fn noise_budget_bits(ctx: &BgvContext, sk: &SecretKey, ct: &Ciphertext) -> i32 {
    let t = ctx.params.t as i128;
    let max_v = phase(ctx, sk, ct)
        .into_iter()
        .map(|c| c.div_euclid(t).unsigned_abs()) // div-ok: diagnostic, not on the query path
        .max()
        .unwrap_or(0);
    let q = ctx.params.q();
    let capacity = q / (2 * ctx.params.t as u128);
    let cap_bits = 128 - capacity.leading_zeros() as i32;
    let noise_bits = 128 - max_v.leading_zeros() as i32;
    (cap_bits - noise_bits).max(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BgvParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (BgvContext, SecretKey, PublicKey, StdRng) {
        let ctx = BgvContext::new(BgvParams::test_small());
        let mut rng = StdRng::seed_from_u64(42);
        let (sk, pk) = keygen(&ctx, &mut rng);
        (ctx, sk, pk, rng)
    }

    fn encode(ctx: &BgvContext, vals: &[u64]) -> RnsPoly {
        let mut coeffs = vec![0u64; ctx.n()];
        coeffs[..vals.len()].copy_from_slice(vals);
        RnsPoly::from_unsigned(ctx, &coeffs)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (ctx, sk, pk, mut rng) = setup();
        let m = encode(&ctx, &[1, 2, 3, 65_000, 0, 7]);
        let ct = encrypt(&ctx, &pk, &m, &mut rng);
        let got = decrypt(&ctx, &sk, &ct);
        assert_eq!(&got[..6], &[1, 2, 3, 65_000, 0, 7]);
        assert!(got[6..].iter().all(|&x| x == 0));
    }

    #[test]
    fn homomorphic_addition() {
        let (ctx, sk, pk, mut rng) = setup();
        let a = encrypt(&ctx, &pk, &encode(&ctx, &[10, 20]), &mut rng);
        let b = encrypt(&ctx, &pk, &encode(&ctx, &[5, 30]), &mut rng);
        let got = decrypt(&ctx, &sk, &add(&ctx, &a, &b));
        assert_eq!(&got[..2], &[15, 50]);
    }

    #[test]
    fn addition_wraps_mod_t() {
        let (ctx, sk, pk, mut rng) = setup();
        let t = ctx.params.t;
        let a = encrypt(&ctx, &pk, &encode(&ctx, &[t - 1]), &mut rng);
        let b = encrypt(&ctx, &pk, &encode(&ctx, &[2]), &mut rng);
        let got = decrypt(&ctx, &sk, &add(&ctx, &a, &b));
        assert_eq!(got[0], 1);
    }

    #[test]
    fn many_additions_stay_correct() {
        // The aggregation pattern: summing many one-hot ciphertexts.
        let (ctx, sk, pk, mut rng) = setup();
        let mut acc = encrypt(&ctx, &pk, &encode(&ctx, &[1, 0, 1]), &mut rng);
        for i in 0..200u64 {
            let m = encode(&ctx, &[i % 2, 1, 0]);
            acc = add(&ctx, &acc, &encrypt(&ctx, &pk, &m, &mut rng));
        }
        let got = decrypt(&ctx, &sk, &acc);
        assert_eq!(&got[..3], &[101, 200, 1]);
        assert!(noise_budget_bits(&ctx, &sk, &acc) > 20);
    }

    #[test]
    fn scalar_multiplication() {
        let (ctx, sk, pk, mut rng) = setup();
        let a = encrypt(&ctx, &pk, &encode(&ctx, &[7, 9]), &mut rng);
        let got = decrypt(&ctx, &sk, &mul_scalar(&ctx, &a, 6));
        assert_eq!(&got[..2], &[42, 54]);
    }

    #[test]
    fn plaintext_multiplication() {
        let (ctx, sk, pk, mut rng) = setup();
        // m(x) = 3 + x, p(x) = 2 → product 6 + 2x.
        let a = encrypt(&ctx, &pk, &encode(&ctx, &[3, 1]), &mut rng);
        let p = encode(&ctx, &[2]);
        let got = decrypt(&ctx, &sk, &mul_plain(&ctx, &a, &p));
        assert_eq!(&got[..2], &[6, 2]);
    }

    #[test]
    fn ciphertext_multiplication_with_relin() {
        let (ctx, sk, pk, mut rng) = setup();
        let rlk = relin_keygen(&ctx, &sk, &mut rng);
        let a = encrypt(&ctx, &pk, &encode(&ctx, &[6]), &mut rng);
        let b = encrypt(&ctx, &pk, &encode(&ctx, &[7]), &mut rng);
        let prod = mul(&ctx, &a, &b, &rlk);
        let got = decrypt(&ctx, &sk, &prod);
        assert_eq!(got[0], 42);
        assert!(
            noise_budget_bits(&ctx, &sk, &prod) > 0,
            "multiplication must leave headroom"
        );
    }

    #[test]
    fn polynomial_product_structure() {
        let (ctx, sk, pk, mut rng) = setup();
        let rlk = relin_keygen(&ctx, &sk, &mut rng);
        // (2 + 3x)(4 + 5x) = 8 + 22x + 15x².
        let a = encrypt(&ctx, &pk, &encode(&ctx, &[2, 3]), &mut rng);
        let b = encrypt(&ctx, &pk, &encode(&ctx, &[4, 5]), &mut rng);
        let got = decrypt(&ctx, &sk, &mul(&ctx, &a, &b, &rlk));
        assert_eq!(&got[..3], &[8, 22, 15]);
    }

    #[test]
    fn fresh_ciphertext_has_large_budget() {
        let (ctx, sk, pk, mut rng) = setup();
        let ct = encrypt(&ctx, &pk, &encode(&ctx, &[1]), &mut rng);
        let budget = noise_budget_bits(&ctx, &sk, &ct);
        assert!(budget > 60, "fresh budget {budget} too small");
    }

    #[test]
    fn wrong_key_garbles_plaintext() {
        let (ctx, _sk, pk, mut rng) = setup();
        let (sk2, _) = keygen(&ctx, &mut rng);
        let ct = encrypt(&ctx, &pk, &encode(&ctx, &[123]), &mut rng);
        let got = decrypt(&ctx, &sk2, &ct);
        assert_ne!(got[0], 123, "decrypting with the wrong key must fail");
    }

    /// `encrypt` by the scheme's definition, on the ring API: all of `u`,
    /// then `e0`, then `e1` from the RNG, each error as the difference of
    /// two popcounts.
    fn encrypt_by_definition(
        ctx: &BgvContext,
        pk: &PublicKey,
        m: &RnsPoly,
        rng: &mut StdRng,
    ) -> Ciphertext {
        let bound = ctx.params.error_bound;
        let u = RnsPoly::from_signed(ctx, &sample_ternary(ctx.n(), rng));
        let mut error = || {
            let e: Vec<i64> = (0..ctx.n())
                .map(|_| {
                    let a = rng.gen::<u32>() & ((1u32 << bound) - 1);
                    let b = rng.gen::<u32>() & ((1u32 << bound) - 1);
                    i64::from(a.count_ones()) - i64::from(b.count_ones())
                })
                .collect();
            RnsPoly::from_signed(ctx, &e).scale(ctx.params.t, ctx)
        };
        let (te0, te1) = (error(), error());
        Ciphertext {
            c0: pk.b().mul(&u, ctx).add(&te0, ctx).add(m, ctx),
            c1: pk.a().mul(&u, ctx).add(&te1, ctx),
        }
    }

    #[test]
    fn encrypt_matches_its_definition_at_every_error_bound() {
        use arboretum_field::primes::{BGV_Q1, BGV_Q2, BGV_Q_ROOTS};
        for primes in [1, 2] {
            for bound in [0, 1, 8, 31] {
                let mut params = BgvParams::new(
                    64,
                    [BGV_Q1, BGV_Q2][..primes].to_vec(),
                    BGV_Q_ROOTS[..primes].to_vec(),
                    65_537,
                    None,
                )
                .unwrap();
                params.error_bound = bound;
                let ctx = BgvContext::new(params);
                let mut rng = StdRng::seed_from_u64(u64::from(bound));
                let (sk, pk) = keygen(&ctx, &mut rng);
                let m = encode(&ctx, &[65_536, 0, 1, 2, 3]);
                let mut reference_rng = rng.clone();
                for _ in 0..3 {
                    let ct = encrypt(&ctx, &pk, &m, &mut rng);
                    let want = encrypt_by_definition(&ctx, &pk, &m, &mut reference_rng);
                    assert_eq!(ct, want, "primes {primes}, bound {bound}");
                    assert_eq!(&decrypt(&ctx, &sk, &ct)[..5], &[65_536, 0, 1, 2, 3]);
                }
                // Both left the RNG at the same draw.
                assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>());
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 31")]
    fn error_bound_beyond_a_u32_popcount_is_refused() {
        let mut params = BgvParams::test_small();
        params.error_bound = 32;
        BgvContext::new(params);
    }

    #[test]
    fn sampled_errors_stay_in_their_support() {
        let mut rng = StdRng::seed_from_u64(7);
        for bound in [0u32, 1, 8, 31] {
            let e = sample_error(2_000, bound, &mut rng);
            assert!(e.iter().all(|&e| e.unsigned_abs() <= u64::from(bound)));
            if bound > 0 {
                assert!(e.iter().any(|&e| e < 0) && e.iter().any(|&e| e > 0));
            }
        }
    }
}
