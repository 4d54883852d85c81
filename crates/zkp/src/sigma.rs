//! Core sigma protocols: knowledge-of-opening and bit (OR) proofs.
//!
//! These are the building blocks of Arboretum's input-validation proofs
//! (§5.3): a participant commits to its input and proves well-formedness
//! without revealing it. All proofs are made non-interactive with the
//! Fiat–Shamir transcript from `arboretum-crypto`.
//!
//! Every protocol here is **two-move**. A prover makes the first move of
//! every sub-proof of a one-hot or range proof ([`BitFirstMove`],
//! [`DlogFirstMove`] — this is where all randomness is drawn), the
//! enclosing proof absorbs the statement and all of those first moves
//! into one transcript and seals it, and only then does each sub-proof
//! receive its challenge — one single-block hash of the sealed digest —
//! and answer it (`respond`). Verification takes the same challenge as
//! an argument ([`verify_bit`], [`verify_dlog`]); nothing in this module
//! hashes. This is the parallel composition of the sub-proofs under
//! Fiat–Shamir: each challenge depends on every first-move message of
//! the whole proof, so changing any one of them changes all challenges.
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
use arboretum_crypto::transcript::{Sealed, Transcript};
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

/// A dlog prover between its two moves: the commitment `A = h^w` it has
/// sent and the nonce `w` it keeps. Not `Clone`: `respond` consumes it,
/// so a nonce answers one challenge.
pub struct DlogFirstMove {
    /// Commitment `A = h^w`.
    pub a: GroupElem,
    w: Scalar,
}

impl DlogFirstMove {
    /// Draws the nonce and commits to it.
    pub fn new<R: Rng + ?Sized>(pp: &PedersenParams, rng: &mut R) -> Self {
        let w = Scalar::new(rng.gen());
        Self { a: pp.h_pow(w), w }
    }

    /// Answers challenge `e` for the witness `r` (with `d = h^r`).
    pub fn respond(self, e: Scalar, r: Scalar) -> DlogProof {
        DlogProof {
            a: self.a,
            z: self.w + e * r,
        }
    }
}

/// Verifies a [`DlogProof`] for the statement `d` under challenge `e`.
pub fn verify_dlog(pp: &PedersenParams, d: &GroupElem, proof: &DlogProof, e: Scalar) -> bool {
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

/// A bit prover between its two moves: the branch commitments it has
/// sent, and what it needs to answer the challenge. Not `Clone`:
/// `respond` consumes it, so a nonce answers one challenge.
pub struct BitFirstMove {
    /// Branch commitment for the `b = 0` statement.
    pub a0: GroupElem,
    /// Branch commitment for the `b = 1` statement.
    pub a1: GroupElem,
    opening: Opening,
    w: Scalar,
    e_sim: Scalar,
    z_sim: Scalar,
}

impl BitFirstMove {
    /// First move of the proof that a commitment holds the bit in
    /// `opening` (which must be 0 or 1).
    ///
    /// With `b` the opened bit and `r` its blinding, the real branch `b`
    /// is a Schnorr proof for `C·g^{-b} = h^r`. The other branch
    /// `b' = 1 − b` is simulated from a chosen sub-challenge `e'` and
    /// response `z'`: its commitment must be `h^{z'} / (C·g^{-b'})^{e'}`,
    /// and because the prover knows `C = g^b·h^r` that is
    /// `h^{z' − r·e'} · g^{(b'−b)·e'}` — the same group element from two
    /// fixed-base exponentiations, with no variable-base ladder and no
    /// inversion.
    ///
    /// **The opening is trusted to open the commitment** the proof will
    /// be verified against. Nothing here checks it (that would cost the
    /// two exponentiations the shortcut saves). If it does not — the
    /// adversary harness's forger claims value 1 for a commitment to 2 —
    /// the result is a well-formed [`BitProof`] in which neither branch
    /// satisfies its verification equation, so [`verify_bit`] rejects it;
    /// it is never a proof of a false statement.
    ///
    /// # Panics
    ///
    /// Panics if the opening value is not a bit — proving a false
    /// statement is a programming error, not an input condition.
    pub fn new<R: Rng + ?Sized>(pp: &PedersenParams, opening: &Opening, rng: &mut R) -> Self {
        let bit = opening.value;
        assert!(
            bit == Scalar::ZERO || bit == Scalar::ONE,
            "a bit proof requires a 0/1 opening"
        );
        let w = Scalar::new(rng.gen());
        let e_sim = Scalar::new(rng.gen());
        let z_sim = Scalar::new(rng.gen());
        let a_real = pp.h_pow(w);
        // b' − b is +1 when the real branch is 0, −1 when it is 1.
        let g_exp = if bit == Scalar::ZERO { e_sim } else { -e_sim };
        let a_sim = pp.h_pow(z_sim - opening.blinding * e_sim) + pp.g_pow(g_exp);
        let (a0, a1) = if bit == Scalar::ZERO {
            (a_real, a_sim)
        } else {
            (a_sim, a_real)
        };
        Self {
            a0,
            a1,
            opening: *opening,
            w,
            e_sim,
            z_sim,
        }
    }

    /// Answers the challenge `e = e0 + e1`: the real branch takes what
    /// the simulated one left of it.
    pub fn respond(self, e: Scalar) -> BitProof {
        let e_real = e - self.e_sim;
        let z_real = self.w + e_real * self.opening.blinding;
        let (e0, z0, z1) = if self.opening.value == Scalar::ZERO {
            (e_real, z_real, self.z_sim)
        } else {
            (self.e_sim, self.z_sim, z_real)
        };
        BitProof {
            a0: self.a0,
            a1: self.a1,
            e0,
            z0,
            z1,
        }
    }
}

/// Verifies a [`BitProof`] against commitment `c` under challenge `e`.
pub fn verify_bit(pp: &PedersenParams, c: &Commitment, proof: &BitProof, e: Scalar) -> bool {
    let s0 = c.0;
    let s1 = c.0 + pp.g_pow(-Scalar::ONE);
    let e1 = e - proof.e0;
    pp.h_pow(proof.z0) == proof.a0 + s0.pow(proof.e0) && pp.h_pow(proof.z1) == proof.a1 + s1.pow(e1)
}

/// Absorbs the first moves of a proof's `k` bit proofs as one run,
/// `(a0ᵢ, a1ᵢ)` in coordinate order.
pub(crate) fn absorb_bit_first_moves(
    transcript: &mut Transcript,
    moves: impl ExactSizeIterator<Item = [GroupElem; 2]>,
) {
    transcript.append_points(b"bit/a", moves);
}

/// The challenge of the bit proof at coordinate `i`.
pub(crate) fn bit_challenge_at(sealed: &Sealed, i: usize) -> Scalar {
    sealed.challenge(i as u64, b"bit/e")
}

/// The `k` bit provers of one proof between their two moves.
pub(crate) struct BitProvers {
    proofs: Vec<BitProof>,
    moves: Vec<BitFirstMove>,
}

impl BitProvers {
    /// First moves of the bit proofs for `openings`, in coordinate order.
    pub(crate) fn first_moves<R: Rng + ?Sized>(
        pp: &PedersenParams,
        openings: &[Opening],
        rng: &mut R,
    ) -> Self {
        // The proofs' storage is reserved before the moves', so the moves
        // — dropped once the proofs are complete — are the newer
        // allocation and are freed off the end of the heap. In the other
        // order each proof a window keeps alive sits behind a hole the
        // size of its moves (+7 % peak RSS on 2 048 uploads at k = 64).
        let proofs = Vec::with_capacity(openings.len());
        let moves = openings
            .iter()
            .map(|o| BitFirstMove::new(pp, o, rng))
            .collect();
        Self { proofs, moves }
    }

    /// The first moves `[a0ᵢ, a1ᵢ]`, as [`absorb_bit_first_moves`] takes
    /// them.
    pub(crate) fn sent(&self) -> impl ExactSizeIterator<Item = [GroupElem; 2]> + '_ {
        self.moves.iter().map(|m| [m.a0, m.a1])
    }

    /// Answers every bit proof's challenge from the sealed transcript.
    pub(crate) fn respond(mut self, sealed: &Sealed) -> Vec<BitProof> {
        let answers = self.moves.into_iter().enumerate();
        self.proofs
            .extend(answers.map(|(i, m)| m.respond(bit_challenge_at(sealed, i))));
        self.proofs
    }
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
    /// transcript has not absorbed (a prover response, or zero).
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

/// Derives the fold's coefficients `ρ, ρ², ρ³, …` from a sealed value
/// that binds the whole proof.
///
/// One challenge, a function of the sealed first moves *and* the bound
/// responses, and its powers: a proof with a failing equation passes the
/// folded check only if `ρ` is a root of a nonzero polynomial of degree
/// at most `n` (the number of equations) whose coefficients the prover
/// fixed before `ρ` existed — probability at most `n/q`. `ρ` is redrawn
/// on the (negligible, but handled) zero, and `q` is prime, so no power
/// is ever zero and no equation drops out of the check.
fn fold_coefficients(bound: &Sealed) -> impl Iterator<Item = Scalar> {
    let rho = (0..)
        .map(|draw| bound.challenge(draw, b"fold/rho"))
        .find(|rho| *rho != Scalar::ZERO)
        .expect("an unbounded search");
    std::iter::successors(Some(rho), move |c| Some(*c * rho))
}

/// Checks `k` bit proofs and one [`TailEquation`] as a single equation.
///
/// `sealed` is the proof's sealed transcript, the one its challenges
/// come from. The prover's responses — which Fiat–Shamir never absorbs,
/// because no challenge depends on them — are bound to it here, in one
/// hash, before the coefficients are drawn: a prover that could still
/// move a response after seeing `ρ` could cancel one equation's error
/// against another's.
///
/// Equation by equation (coefficients `ρ₀ᵢ, ρ₁ᵢ` per coordinate, `ρₜ`
/// for the tail, `e1ᵢ = eᵢ − e0ᵢ`):
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
    tail: TailEquation<W>,
    sealed: &Sealed,
) -> bool {
    let mut responses = Vec::with_capacity(bit_proofs.len() * 24 + 8);
    for s in bit_proofs
        .iter()
        .flat_map(|bp| [bp.e0, bp.z0, bp.z1])
        .chain([tail.h_exp])
    {
        responses.extend_from_slice(&s.value().to_be_bytes());
    }
    let mut coeffs = fold_coefficients(&sealed.bind(b"fold/responses", &responses));
    let mut next = || coeffs.next().expect("successors of a nonzero scalar");

    let rho_t = next();
    let mut h_exp = rho_t * tail.h_exp;
    let mut g_exp = rho_t * tail.g_exp;
    let mut pairs = Vec::with_capacity(3 * commitments.len() + 1);
    pairs.push((tail.point, rho_t * tail.point_exp));
    for (i, (c, bp)) in commitments.iter().zip(bit_proofs).enumerate() {
        let e1 = bit_challenge_at(sealed, i) - bp.e0;
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

    /// The challenge of a stand-alone dlog proof: statement and first
    /// move under a context label.
    fn dlog_challenge(context: &[u8], d: &GroupElem, a: &GroupElem) -> Scalar {
        let mut t = Transcript::new(context);
        t.append_points(b"dlog", [[*d, *a]].into_iter());
        t.seal().challenge(0, b"dlog/e")
    }

    fn prove_dlog(
        pp: &PedersenParams,
        context: &[u8],
        d: &GroupElem,
        r: Scalar,
        rng: &mut StdRng,
    ) -> DlogProof {
        let first = DlogFirstMove::new(pp, rng);
        let e = dlog_challenge(context, d, &first.a);
        first.respond(e, r)
    }

    /// The challenge of a stand-alone bit proof.
    fn bit_challenge(c: &Commitment, a0: &GroupElem, a1: &GroupElem) -> Scalar {
        let mut t = Transcript::new(b"t");
        t.append_points(b"c", [[c.0]].into_iter());
        absorb_bit_first_moves(&mut t, [[*a0, *a1]].into_iter());
        bit_challenge_at(&t.seal(), 0)
    }

    fn prove_bit(pp: &PedersenParams, c: &Commitment, o: &Opening, rng: &mut StdRng) -> BitProof {
        let first = BitFirstMove::new(pp, o, rng);
        let e = bit_challenge(c, &first.a0, &first.a1);
        first.respond(e)
    }

    fn check_bit(pp: &PedersenParams, c: &Commitment, proof: &BitProof) -> bool {
        verify_bit(pp, c, proof, bit_challenge(c, &proof.a0, &proof.a1))
    }

    #[test]
    fn dlog_proof_roundtrip() {
        let (pp, mut rng) = setup();
        let r = Scalar::new(777);
        let d = pp.h.pow(r);
        let proof = prove_dlog(&pp, b"t", &d, r, &mut rng);
        assert!(verify_dlog(
            &pp,
            &d,
            &proof,
            dlog_challenge(b"t", &d, &proof.a)
        ));
    }

    #[test]
    fn dlog_wrong_statement_rejected() {
        let (pp, mut rng) = setup();
        let r = Scalar::new(777);
        let d = pp.h.pow(r);
        let proof = prove_dlog(&pp, b"t", &d, r, &mut rng);
        let d_other = pp.h.pow(Scalar::new(778));
        // Under the other statement's own challenge, and under the
        // original one.
        for e in [
            dlog_challenge(b"t", &d_other, &proof.a),
            dlog_challenge(b"t", &d, &proof.a),
        ] {
            assert!(!verify_dlog(&pp, &d_other, &proof, e));
        }
    }

    #[test]
    fn dlog_transcript_binding() {
        let (pp, mut rng) = setup();
        let r = Scalar::new(5);
        let d = pp.h.pow(r);
        let proof = prove_dlog(&pp, b"ctx-a", &d, r, &mut rng);
        assert!(!verify_dlog(
            &pp,
            &d,
            &proof,
            dlog_challenge(b"ctx-b", &d, &proof.a)
        ));
    }

    #[test]
    fn bit_proofs_for_both_bits() {
        let (pp, mut rng) = setup();
        for bit in [Scalar::ZERO, Scalar::ONE] {
            let (c, o) = pp.commit(bit, &mut rng);
            let proof = prove_bit(&pp, &c, &o, &mut rng);
            assert!(check_bit(&pp, &c, &proof), "bit {bit:?}");
        }
    }

    #[test]
    fn non_bit_cannot_be_proven() {
        let (pp, mut rng) = setup();
        let (_, o) = pp.commit(Scalar::new(2), &mut rng);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            BitFirstMove::new(&pp, &o, &mut rng)
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
        let proof = prove_bit(&pp, &c1, &o1, &mut rng);
        assert!(!check_bit(&pp, &c2, &proof));
        // Nor does the challenge it was answered under help.
        let e = bit_challenge(&c1, &proof.a0, &proof.a1);
        assert!(!verify_bit(&pp, &c2, &proof, e));
    }

    #[test]
    fn lied_opening_yields_a_rejected_proof_not_a_false_one() {
        // The forger's move: a commitment to 2, an opening that claims 1
        // under the real blinding. Neither branch verifies.
        let (pp, mut rng) = setup();
        let (c2, o2) = pp.commit(Scalar::new(2), &mut rng);
        let lie = Opening {
            value: Scalar::ONE,
            blinding: o2.blinding,
        };
        let proof = prove_bit(&pp, &c2, &lie, &mut rng);
        assert!(!check_bit(&pp, &c2, &proof));
    }

    #[test]
    fn fold_coefficients_are_never_zero() {
        // Powers of a nonzero ρ in a prime field; 2·128 + 1 covers the
        // widest proof any suite folds.
        for label in [b"a".as_slice(), b"one-hot", b"range"] {
            let bound = Transcript::new(label).seal().bind(b"fold/responses", b"");
            let coeffs: Vec<Scalar> = fold_coefficients(&bound).take(257).collect();
            assert!(coeffs.iter().all(|c| *c != Scalar::ZERO));
            assert!(coeffs.windows(2).all(|w| w[1] == w[0] * coeffs[0]));
        }
    }

    #[test]
    fn tampered_bit_proof_rejected() {
        let (pp, mut rng) = setup();
        let (c, o) = pp.commit(Scalar::ONE, &mut rng);
        let mut proof = prove_bit(&pp, &c, &o, &mut rng);
        proof.z0 += Scalar::ONE;
        assert!(!check_bit(&pp, &c, &proof));
    }
}
