//! One-hot input proofs.
//!
//! A categorical participant input is a one-hot vector: exactly one
//! category set to 1 and the rest 0 (§5.3 — "an input which is not a
//! one-hot encoding of the participant's local value" must be rejected).
//! The proof commits to each coordinate, proves each commitment holds a
//! bit, and proves the product of commitments opens to exactly 1.
//!
//! One Fiat–Shamir pass per proof: the width, every commitment, every
//! bit proof's `(a0, a1)` and the sum proof's `A` are absorbed once
//! (`seal`), and the `k + 1` challenges — and the verifier's fold
//! coefficient — all come from that sealed digest. Prover and verifier
//! call the same `seal`, so the layout exists in one place.

use arboretum_crypto::group::{GroupElem, Scalar};
use arboretum_crypto::pedersen::{Commitment, Opening, PedersenParams};
use arboretum_crypto::transcript::{Sealed, Transcript};
use rand::Rng;

use crate::sigma::{
    absorb_bit_first_moves, bit_challenge_at, fold_holds, verify_bit, verify_dlog, BitProof,
    BitProvers, DlogFirstMove, DlogProof, TailEquation,
};

/// A non-interactive proof that a committed vector is one-hot.
#[derive(Clone, Debug)]
pub struct OneHotProof {
    /// Per-coordinate commitments.
    pub commitments: Vec<Commitment>,
    /// Per-coordinate bit proofs.
    pub bit_proofs: Vec<BitProof>,
    /// Proof that the coordinate sum equals one.
    pub sum_proof: DlogProof,
}

impl OneHotProof {
    /// Serialized size in bytes (for cost accounting).
    pub fn size_bytes(&self) -> usize {
        self.commitments.len() * 8 + self.bit_proofs.len() * BitProof::SIZE + 2 * 8
    }
}

/// Errors from one-hot proving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OneHotError {
    /// The vector is not one-hot.
    NotOneHot,
    /// The vector is empty.
    Empty,
}

impl std::fmt::Display for OneHotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotOneHot => write!(f, "input vector is not one-hot"),
            Self::Empty => write!(f, "input vector is empty"),
        }
    }
}

impl std::error::Error for OneHotError {}

/// Commits to `bits` and proves the vector is one-hot.
///
/// Returns the proof; the commitments inside it accompany the encrypted
/// upload to the aggregator.
///
/// # Errors
///
/// Returns [`OneHotError`] if `bits` is empty or not one-hot — an honest
/// client checks its own input before proving.
pub fn prove_one_hot<R: Rng + ?Sized>(
    pp: &PedersenParams,
    bits: &[u64],
    rng: &mut R,
) -> Result<OneHotProof, OneHotError> {
    if bits.is_empty() {
        return Err(OneHotError::Empty);
    }
    if bits.iter().any(|&b| b > 1) || bits.iter().sum::<u64>() != 1 {
        return Err(OneHotError::NotOneHot);
    }
    let (commitments, openings): (Vec<_>, Vec<_>) =
        bits.iter().map(|&b| pp.commit(Scalar::new(b), rng)).unzip();
    Ok(prove_from_openings(pp, commitments, &openings, rng))
}

/// Proves that `commitments` hold a one-hot vector, from openings that
/// are **trusted** to open them to bits summing to one.
///
/// This is the whole prover after the commitments exist:
/// [`prove_one_hot`] calls it once it has checked its input, and the
/// adversary harness's forger calls it with openings that lie. A lie
/// cannot produce a proof of a false statement — only a well-formed
/// proof whose first false equation [`verify_one_hot_detailed`] names
/// (see [`BitFirstMove::new`](crate::sigma::BitFirstMove::new)).
///
/// Randomness is drawn in a fixed order: three scalars per coordinate in
/// coordinate order, then the sum proof's nonce.
///
/// # Panics
///
/// Panics if the two slices differ in length, or if an opening's value
/// is not 0 or 1.
pub fn prove_from_openings<R: Rng + ?Sized>(
    pp: &PedersenParams,
    commitments: Vec<Commitment>,
    openings: &[Opening],
    rng: &mut R,
) -> OneHotProof {
    assert_eq!(
        commitments.len(),
        openings.len(),
        "one opening per commitment"
    );
    let bit_provers = BitProvers::first_moves(pp, openings, rng);
    let sum_move = DlogFirstMove::new(pp, rng);
    let sealed = seal(&commitments, bit_provers.sent(), &sum_move.a);
    // Sum proof: Π C_i · g^{-1} = h^{Σ r_i}, i.e. the sum of the values
    // is exactly 1.
    let total_blinding = openings
        .iter()
        .fold(Scalar::ZERO, |acc, o| acc + o.blinding);
    OneHotProof {
        commitments,
        bit_proofs: bit_provers.respond(&sealed),
        sum_proof: sum_move.respond(sum_challenge(&sealed), total_blinding),
    }
}

/// Why a one-hot proof failed verification, attributed to the first
/// check that rejected it (checks run in a fixed order, so the verdict
/// is deterministic for a given proof).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OneHotVerifyError {
    /// Structural mismatch: empty proof or commitment/bit-proof arity
    /// disagreement.
    Structure,
    /// The bit proof at the given coordinate failed.
    BitProof(usize),
    /// The coordinate-sum proof failed (the committed vector does not
    /// sum to one).
    SumProof,
}

impl std::fmt::Display for OneHotVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Structure => write!(f, "malformed one-hot proof structure"),
            Self::BitProof(i) => write!(f, "bit proof for coordinate {i} failed"),
            Self::SumProof => write!(f, "coordinate-sum proof failed (sum != 1)"),
        }
    }
}

impl std::error::Error for OneHotVerifyError {}

/// The sum proof's statement `d = Π Cᵢ · g^{-1}`: it equals `h^{Σ rᵢ}`
/// exactly when the committed values sum to one. (`commitments` is
/// nonempty; `g^{-1}` comes from the generator's table, not an
/// inversion.)
fn sum_statement(pp: &PedersenParams, commitments: &[Commitment]) -> GroupElem {
    commitments
        .iter()
        .fold(pp.g_pow(-Scalar::ONE), |acc, c| acc + c.0)
}

/// The sealed transcript of a proof of width `k`: the width, the
/// commitments, every bit proof's first move, the sum proof's first
/// move. The sum statement `d` is a function of the commitments and is
/// not absorbed again.
fn seal(
    commitments: &[Commitment],
    bit_moves: impl ExactSizeIterator<Item = [GroupElem; 2]>,
    sum_a: &GroupElem,
) -> Sealed {
    let mut transcript = Transcript::new(b"one-hot");
    transcript.append_u64(b"len", commitments.len() as u64);
    transcript.append_points(b"c", commitments.iter().map(|c| [c.0]));
    absorb_bit_first_moves(&mut transcript, bit_moves);
    transcript.append_points(b"sum/a", std::iter::once([*sum_a]));
    transcript.seal()
}

/// The sum proof's challenge.
fn sum_challenge(sealed: &Sealed) -> Scalar {
    sealed.challenge(0, b"sum/e")
}

/// Verifies a one-hot proof, reporting *which* check failed.
///
/// A structurally sound proof is `2k + 1` equations (two per bit proof,
/// one for the sum proof). They are first checked all at once: the
/// transcript is absorbed in one pass and sealed, every challenge is
/// derived from the sealed digest, and the equations are folded into one
/// multi-exponentiation (see `sigma`'s module docs; the fold accepts a
/// proof with a failing equation with probability at most
/// `(2k + 1)/q`). Only when the fold fails do the checks run one by one
/// under the same challenges, in a fixed order — bit proofs in
/// coordinate order, then the sum proof — so the reported error is the
/// first failure, deterministically.
///
/// Every challenge depends on every commitment and every first-move
/// message (`a0ᵢ`, `a1ᵢ`, `A`), so a proof with any one of those changed
/// fails at the first check, [`OneHotVerifyError::BitProof`]`(0)`; a
/// changed response (`e0ᵢ`, `z0ᵢ`, `z1ᵢ`, `z`) fails at its own check.
///
/// # Errors
///
/// Returns [`OneHotVerifyError`] naming the first failing check.
pub fn verify_one_hot_detailed(
    pp: &PedersenParams,
    proof: &OneHotProof,
) -> Result<(), OneHotVerifyError> {
    if proof.commitments.is_empty() || proof.commitments.len() != proof.bit_proofs.len() {
        return Err(OneHotVerifyError::Structure);
    }
    let sealed = seal(
        &proof.commitments,
        proof.bit_proofs.iter().map(|bp| [bp.a0, bp.a1]),
        &proof.sum_proof.a,
    );
    let e = sum_challenge(&sealed);
    // h^z == A · d^e, with d's g^{-1} moved to the left.
    let sum_equation = TailEquation {
        h_exp: proof.sum_proof.z,
        g_exp: e,
        point: proof.sum_proof.a,
        point_exp: Scalar::ONE,
        weight: |_| e,
    };
    if fold_holds(
        pp,
        &proof.commitments,
        &proof.bit_proofs,
        sum_equation,
        &sealed,
    ) {
        return Ok(());
    }

    for (i, (c, bp)) in proof.commitments.iter().zip(&proof.bit_proofs).enumerate() {
        if !verify_bit(pp, c, bp, bit_challenge_at(&sealed, i)) {
            return Err(OneHotVerifyError::BitProof(i));
        }
    }
    let d = sum_statement(pp, &proof.commitments);
    if !verify_dlog(pp, &d, &proof.sum_proof, e) {
        return Err(OneHotVerifyError::SumProof);
    }
    Ok(())
}

/// Verifies a one-hot proof.
pub fn verify_one_hot(pp: &PedersenParams, proof: &OneHotProof) -> bool {
    verify_one_hot_detailed(pp, proof).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (PedersenParams, StdRng) {
        (PedersenParams::standard(), StdRng::seed_from_u64(31))
    }

    #[test]
    fn valid_one_hot_verifies() {
        let (pp, mut rng) = setup();
        for k in [1usize, 2, 5, 16] {
            for hot in 0..k {
                let mut bits = vec![0u64; k];
                bits[hot] = 1;
                let proof = prove_one_hot(&pp, &bits, &mut rng).unwrap();
                assert!(verify_one_hot(&pp, &proof), "k={k}, hot={hot}");
            }
        }
    }

    #[test]
    fn malformed_inputs_rejected_at_proving() {
        let (pp, mut rng) = setup();
        assert_eq!(
            prove_one_hot(&pp, &[], &mut rng).unwrap_err(),
            OneHotError::Empty
        );
        assert_eq!(
            prove_one_hot(&pp, &[0, 0, 0], &mut rng).unwrap_err(),
            OneHotError::NotOneHot
        );
        assert_eq!(
            prove_one_hot(&pp, &[1, 1, 0], &mut rng).unwrap_err(),
            OneHotError::NotOneHot
        );
        assert_eq!(
            prove_one_hot(&pp, &[2, 0], &mut rng).unwrap_err(),
            OneHotError::NotOneHot
        );
    }

    #[test]
    fn swapped_commitment_rejected() {
        let (pp, mut rng) = setup();
        let mut proof = prove_one_hot(&pp, &[0, 1, 0], &mut rng).unwrap();
        // Replace a commitment with a commitment to 1 (making the sum 2).
        let (c1, _) = pp.commit(Scalar::ONE, &mut rng);
        proof.commitments[0] = c1;
        assert!(!verify_one_hot(&pp, &proof));
    }

    #[test]
    fn truncated_proof_rejected() {
        let (pp, mut rng) = setup();
        let mut proof = prove_one_hot(&pp, &[0, 1, 0], &mut rng).unwrap();
        proof.bit_proofs.pop();
        assert!(!verify_one_hot(&pp, &proof));
    }

    #[test]
    fn proof_size_scales_linearly() {
        let (pp, mut rng) = setup();
        let p4 = prove_one_hot(&pp, &[1, 0, 0, 0], &mut rng).unwrap();
        let p8 = prove_one_hot(&pp, &[1, 0, 0, 0, 0, 0, 0, 0], &mut rng).unwrap();
        assert!(p8.size_bytes() > p4.size_bytes());
        assert_eq!(p8.size_bytes() - p4.size_bytes(), 4 * (8 + BitProof::SIZE));
    }
}
