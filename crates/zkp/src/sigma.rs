//! Core sigma protocols: knowledge-of-opening and bit (OR) proofs.
//!
//! These are the building blocks of Arboretum's input-validation proofs
//! (§5.3): a participant commits to its input and proves well-formedness
//! without revealing it. All proofs are made non-interactive with the
//! Fiat–Shamir transcript from `arboretum-crypto`.
//!
//! Both sides run at table speed. The prover only ever exponentiates `g`
//! or `h`, so every exponentiation is a fixed-base table lookup
//! ([`PedersenParams::g_pow`] / [`PedersenParams::h_pow`]). The verifier
//! of a whole one-hot or range proof does not check its `2k + 1`
//! equations one ladder pair at a time: `fold_holds` scales each by a
//! transcript-derived coefficient and checks their product with two
//! fixed-base exponentiations and one multi-exponentiation. The
//! per-equation [`verify_bit`] / [`verify_dlog`] remain as the
//! attribution pass behind a failed fold.

use arboretum_crypto::fastexp::multi_exp;
use arboretum_crypto::group::{GroupElem, Scalar};
use arboretum_crypto::pedersen::{Commitment, Opening, PedersenParams};
use arboretum_crypto::transcript::Transcript;
use rand::Rng;

/// Proof of knowledge of `r` such that `d = h^r` (a Schnorr proof on the
/// blinding generator). Used to show a commitment opens to a known public
/// value: `C · g^{-v} = h^r`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DlogProof {
    /// Commitment `A = h^w`.
    pub a: GroupElem,
    /// Response `z = w + e·r`.
    pub z: Scalar,
}

/// Absorbs a dlog proof's statement and commitment and squeezes its
/// challenge.
pub(crate) fn dlog_challenge(d: &GroupElem, a: &GroupElem, transcript: &mut Transcript) -> Scalar {
    transcript.append_point(b"dlog/d", d);
    transcript.append_point(b"dlog/a", a);
    transcript.challenge_scalar(b"dlog/e")
}

/// Proves knowledge of `r` with `d = h^r`.
pub fn prove_dlog<R: Rng + ?Sized>(
    pp: &PedersenParams,
    d: &GroupElem,
    r: Scalar,
    transcript: &mut Transcript,
    rng: &mut R,
) -> DlogProof {
    let w = Scalar::new(rng.gen());
    let a = pp.h_pow(w);
    let e = dlog_challenge(d, &a, transcript);
    DlogProof { a, z: w + e * r }
}

/// Verifies a [`DlogProof`].
pub fn verify_dlog(
    pp: &PedersenParams,
    d: &GroupElem,
    proof: &DlogProof,
    transcript: &mut Transcript,
) -> bool {
    let e = dlog_challenge(d, &proof.a, transcript);
    pp.h_pow(proof.z) == proof.a + d.pow(e)
}

/// OR-proof that a commitment holds a bit: `C = h^r` or `C·g^{-1} = h^r`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitProof {
    /// Branch commitment for the `b = 0` statement.
    pub a0: GroupElem,
    /// Branch commitment for the `b = 1` statement.
    pub a1: GroupElem,
    /// Sub-challenge for the `b = 0` branch.
    pub e0: Scalar,
    /// Response for the `b = 0` branch.
    pub z0: Scalar,
    /// Response for the `b = 1` branch.
    pub z1: Scalar,
}

impl BitProof {
    /// Serialized size in bytes: the five 8-byte fields `a0, a1, e0, z0,
    /// z1`. The second sub-challenge `e1` is not sent; the verifier
    /// recomputes it as `e − e0` from the transcript challenge `e`.
    pub const SIZE: usize = 5 * 8;
}

/// Absorbs a bit proof's statement and branch commitments and squeezes
/// the challenge `e = e0 + e1`.
fn bit_challenge(
    c: &Commitment,
    a0: &GroupElem,
    a1: &GroupElem,
    transcript: &mut Transcript,
) -> Scalar {
    transcript.append_point(b"bit/c", &c.0);
    transcript.append_point(b"bit/a0", a0);
    transcript.append_point(b"bit/a1", a1);
    transcript.challenge_scalar(b"bit/e")
}

/// Proves that `c` commits to the bit in `opening` (which must be 0 or 1).
///
/// With `b` the opened bit and `r` its blinding, the real branch `b` is a
/// Schnorr proof for `C·g^{-b} = h^r`. The other branch `b' = 1 − b` is
/// simulated from a chosen sub-challenge `e'` and response `z'`: its
/// commitment must be `h^{z'} / (C·g^{-b'})^{e'}`, and because the prover
/// knows `C = g^b·h^r` that is `h^{z' − r·e'} · g^{(b'−b)·e'}` — the same
/// group element from two fixed-base exponentiations, with no
/// variable-base ladder and no inversion.
///
/// **The opening is trusted to open `c`.** Nothing here checks it (that
/// would cost the two exponentiations the shortcut saves). If `opening`
/// does not open `c` — the adversary harness's forger claims value 1 for
/// a commitment to 2 — the result is a well-formed [`BitProof`] in which
/// neither branch satisfies its verification equation, so [`verify_bit`]
/// rejects it; it is never a proof of a false statement.
///
/// # Panics
///
/// Panics if the opening value is not a bit — proving a false statement is
/// a programming error, not an input condition.
pub fn prove_bit<R: Rng + ?Sized>(
    pp: &PedersenParams,
    c: &Commitment,
    opening: &Opening,
    transcript: &mut Transcript,
    rng: &mut R,
) -> BitProof {
    let bit = opening.value;
    assert!(
        bit == Scalar::ZERO || bit == Scalar::ONE,
        "prove_bit requires a 0/1 opening"
    );
    let r = opening.blinding;
    let w = Scalar::new(rng.gen());
    let e_sim = Scalar::new(rng.gen());
    let z_sim = Scalar::new(rng.gen());
    let a_real = pp.h_pow(w);
    // b' − b is +1 when the real branch is 0, −1 when it is 1.
    let g_exp = if bit == Scalar::ZERO { e_sim } else { -e_sim };
    let a_sim = pp.h_pow(z_sim - r * e_sim) + pp.g_pow(g_exp);
    let (a0, a1) = if bit == Scalar::ZERO {
        (a_real, a_sim)
    } else {
        (a_sim, a_real)
    };
    let e_real = bit_challenge(c, &a0, &a1, transcript) - e_sim;
    let z_real = w + e_real * r;
    let (e0, z0, z1) = if bit == Scalar::ZERO {
        (e_real, z_real, z_sim)
    } else {
        (e_sim, z_sim, z_real)
    };
    BitProof { a0, a1, e0, z0, z1 }
}

/// Verifies a [`BitProof`] against commitment `c`.
pub fn verify_bit(
    pp: &PedersenParams,
    c: &Commitment,
    proof: &BitProof,
    transcript: &mut Transcript,
) -> bool {
    let s0 = c.0;
    let s1 = c.0 + pp.g_pow(-Scalar::ONE);
    let e = bit_challenge(c, &proof.a0, &proof.a1, transcript);
    let e1 = e - proof.e0;
    pp.h_pow(proof.z0) == proof.a0 + s0.pow(proof.e0) && pp.h_pow(proof.z1) == proof.a1 + s1.pow(e1)
}

/// Replays the bit-proof section of a transcript — one
/// [`verify_bit`]-identical absorb-and-squeeze per coordinate — and
/// returns every recomputed second sub-challenge `e1ᵢ = eᵢ − e0ᵢ`.
pub(crate) fn replay_bit_challenges(
    commitments: &[Commitment],
    bit_proofs: &[BitProof],
    transcript: &mut Transcript,
) -> Vec<Scalar> {
    commitments
        .iter()
        .zip(bit_proofs)
        .map(|(c, bp)| bit_challenge(c, &bp.a0, &bp.a1, transcript) - bp.e0)
        .collect()
}

/// The proof-kind-specific last equation of a folded check,
///
/// ```text
/// h^{h_exp} · g^{g_exp} == point^{point_exp} · Π cᵢ^{weight(i)}
/// ```
///
/// over the same commitments `cᵢ` the bit proofs speak about. One-hot
/// proofs put their sum proof here (`h^z · g^e == A · Π cᵢ^e`), range
/// proofs their binding (`1 == C^{-1} · Π cᵢ^{2^i}`).
pub(crate) struct TailEquation<W: Fn(usize) -> Scalar> {
    /// Exponent of `h` on the left. The only scalar of the equation the
    /// transcript has not absorbed yet (a prover response, or zero).
    pub h_exp: Scalar,
    /// Exponent of `g` on the left.
    pub g_exp: Scalar,
    /// The one group element on the right besides the commitments.
    pub point: GroupElem,
    /// Its exponent.
    pub point_exp: Scalar,
    /// Exponent of commitment `i` on the right.
    pub weight: W,
}

/// Derives the fold's coefficients `ρ, ρ², ρ³, …` from the transcript.
///
/// One challenge, drawn after the transcript has absorbed the whole
/// proof, and its powers: a proof with a failing equation passes the
/// folded check only if `ρ` is a root of a nonzero polynomial of degree
/// at most `n` (the number of equations) whose coefficients the prover
/// fixed before `ρ` existed — probability at most `n/q`. `ρ` is redrawn
/// on the (negligible, but handled) zero, and `q` is prime, so no power
/// is ever zero and no equation drops out of the check.
fn fold_coefficients(transcript: &mut Transcript) -> impl Iterator<Item = Scalar> {
    let rho = loop {
        let rho = transcript.challenge_scalar(b"fold/rho");
        if rho != Scalar::ZERO {
            break rho;
        }
    };
    std::iter::successors(Some(rho), move |c| Some(*c * rho))
}

/// Checks `k` bit proofs and one [`TailEquation`] as a single equation.
///
/// `transcript` must have been replayed through the whole proof, with
/// `e1` the sub-challenges [`replay_bit_challenges`] returned on the
/// way. The prover's responses — which Fiat–Shamir never absorbs,
/// because no challenge depends on them — are absorbed here, in one
/// append, before the coefficients are drawn: a prover that could still
/// move a response after seeing `ρ` could cancel one equation's error
/// against another's.
///
/// Equation by equation (coefficients `ρ₀ᵢ, ρ₁ᵢ` per coordinate, `ρₜ`
/// for the tail):
///
/// ```text
/// h^{z0ᵢ}          == a0ᵢ · cᵢ^{e0ᵢ}
/// h^{z1ᵢ} · g^{e1ᵢ} == a1ᵢ · cᵢ^{e1ᵢ}        (from (cᵢ/g)^{e1ᵢ})
/// ```
///
/// so the product is two fixed-base exponentiations on the left and one
/// `3k + 1`-pair multi-exponentiation on the right, with no inversion.
/// Every equation holding implies the fold holds (it is their exact
/// product), so a failed fold always has a failing equation for the
/// sequential pass to name.
pub(crate) fn fold_holds<W: Fn(usize) -> Scalar>(
    pp: &PedersenParams,
    commitments: &[Commitment],
    bit_proofs: &[BitProof],
    e1: &[Scalar],
    tail: TailEquation<W>,
    transcript: &mut Transcript,
) -> bool {
    let mut responses = Vec::with_capacity(bit_proofs.len() * 24 + 8);
    for s in bit_proofs
        .iter()
        .flat_map(|bp| [bp.e0, bp.z0, bp.z1])
        .chain([tail.h_exp])
    {
        responses.extend_from_slice(&s.value().to_be_bytes());
    }
    transcript.append(b"fold/responses", &responses);
    let mut coeffs = fold_coefficients(transcript);
    let mut next = || coeffs.next().expect("successors of a nonzero scalar");

    let rho_t = next();
    let mut h_exp = rho_t * tail.h_exp;
    let mut g_exp = rho_t * tail.g_exp;
    let mut pairs = Vec::with_capacity(3 * commitments.len() + 1);
    pairs.push((tail.point, rho_t * tail.point_exp));
    for (i, ((c, bp), &e1)) in commitments.iter().zip(bit_proofs).zip(e1).enumerate() {
        let (rho0, rho1) = (next(), next());
        h_exp += rho0 * bp.z0 + rho1 * bp.z1;
        g_exp += rho1 * e1;
        pairs.push((bp.a0, rho0));
        pairs.push((bp.a1, rho1));
        pairs.push((c.0, rho0 * bp.e0 + rho1 * e1 + rho_t * (tail.weight)(i)));
    }
    pp.h_pow(h_exp) + pp.g_pow(g_exp) == multi_exp(&pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (PedersenParams, StdRng) {
        (PedersenParams::standard(), StdRng::seed_from_u64(11))
    }

    #[test]
    fn dlog_proof_roundtrip() {
        let (pp, mut rng) = setup();
        let r = Scalar::new(777);
        let d = pp.h.pow(r);
        let proof = prove_dlog(&pp, &d, r, &mut Transcript::new(b"t"), &mut rng);
        assert!(verify_dlog(&pp, &d, &proof, &mut Transcript::new(b"t")));
    }

    #[test]
    fn dlog_wrong_statement_rejected() {
        let (pp, mut rng) = setup();
        let r = Scalar::new(777);
        let d = pp.h.pow(r);
        let proof = prove_dlog(&pp, &d, r, &mut Transcript::new(b"t"), &mut rng);
        let d_other = pp.h.pow(Scalar::new(778));
        assert!(!verify_dlog(
            &pp,
            &d_other,
            &proof,
            &mut Transcript::new(b"t")
        ));
    }

    #[test]
    fn dlog_transcript_binding() {
        let (pp, mut rng) = setup();
        let r = Scalar::new(5);
        let d = pp.h.pow(r);
        let proof = prove_dlog(&pp, &d, r, &mut Transcript::new(b"ctx-a"), &mut rng);
        assert!(!verify_dlog(
            &pp,
            &d,
            &proof,
            &mut Transcript::new(b"ctx-b")
        ));
    }

    #[test]
    fn bit_proofs_for_both_bits() {
        let (pp, mut rng) = setup();
        for bit in [Scalar::ZERO, Scalar::ONE] {
            let (c, o) = pp.commit(bit, &mut rng);
            let proof = prove_bit(&pp, &c, &o, &mut Transcript::new(b"t"), &mut rng);
            assert!(
                verify_bit(&pp, &c, &proof, &mut Transcript::new(b"t")),
                "bit {bit:?}"
            );
        }
    }

    #[test]
    fn non_bit_cannot_be_proven() {
        let (pp, mut rng) = setup();
        let (c, o) = pp.commit(Scalar::new(2), &mut rng);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            prove_bit(&pp, &c, &o, &mut Transcript::new(b"t"), &mut rng)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn forged_bit_proof_rejected() {
        let (pp, mut rng) = setup();
        // Commit to 2 and try to pass a bit proof generated for a
        // *different* commitment (to 1).
        let (c2, _) = pp.commit(Scalar::new(2), &mut rng);
        let (c1, o1) = pp.commit(Scalar::ONE, &mut rng);
        let proof = prove_bit(&pp, &c1, &o1, &mut Transcript::new(b"t"), &mut rng);
        assert!(!verify_bit(&pp, &c2, &proof, &mut Transcript::new(b"t")));
    }

    #[test]
    fn fold_coefficients_are_never_zero() {
        // Powers of a nonzero ρ in a prime field; 2·128 + 1 covers the
        // widest proof any suite folds.
        for label in [b"a".as_slice(), b"one-hot", b"range"] {
            let mut t = Transcript::new(label);
            let coeffs: Vec<Scalar> = fold_coefficients(&mut t).take(257).collect();
            assert!(coeffs.iter().all(|c| *c != Scalar::ZERO));
            assert!(coeffs.windows(2).all(|w| w[1] == w[0] * coeffs[0]));
        }
    }

    #[test]
    fn tampered_bit_proof_rejected() {
        let (pp, mut rng) = setup();
        let (c, o) = pp.commit(Scalar::ONE, &mut rng);
        let mut proof = prove_bit(&pp, &c, &o, &mut Transcript::new(b"t"), &mut rng);
        proof.z0 += Scalar::ONE;
        assert!(!verify_bit(&pp, &c, &proof, &mut Transcript::new(b"t")));
    }
}
