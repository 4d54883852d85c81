//! One-hot input proofs.
//!
//! A categorical participant input is a one-hot vector: exactly one
//! category set to 1 and the rest 0 (§5.3 — "an input which is not a
//! one-hot encoding of the participant's local value" must be rejected).
//! The proof commits to each coordinate, proves each commitment holds a
//! bit, and proves the product of commitments opens to exactly 1.

use arboretum_crypto::group::{GroupElem, Scalar};
use arboretum_crypto::pedersen::{Commitment, Opening, PedersenParams};
use arboretum_crypto::transcript::Transcript;
use rand::Rng;

use crate::sigma::{
    dlog_challenge, fold_holds, prove_bit, prove_dlog, replay_bit_challenges, verify_bit,
    verify_dlog, BitProof, DlogProof, TailEquation,
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
    let mut transcript = Transcript::new(b"one-hot");
    transcript.append_u64(b"len", bits.len() as u64);
    let mut commitments = Vec::with_capacity(bits.len());
    let mut opens = Vec::with_capacity(bits.len());
    for &b in bits {
        let (c, o) = pp.commit(Scalar::new(b), rng);
        transcript.append_point(b"c", &c.0);
        commitments.push(c);
        opens.push(o);
    }
    let bit_proofs: Vec<BitProof> = commitments
        .iter()
        .zip(&opens)
        .map(|(c, o)| prove_bit(pp, c, o, &mut transcript, rng))
        .collect();
    // Sum proof: Π C_i · g^{-1} = h^{Σ r_i}, i.e. the sum of the values
    // is exactly 1.
    let total = opens.iter().fold(
        Opening {
            value: Scalar::ZERO,
            blinding: Scalar::ZERO,
        },
        |acc, o| acc.add(*o),
    );
    let d = sum_statement(pp, &commitments);
    let sum_proof = prove_dlog(pp, &d, total.blinding, &mut transcript, rng);
    Ok(OneHotProof {
        commitments,
        bit_proofs,
        sum_proof,
    })
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

/// The transcript of a structurally sound proof, up to and including the
/// commitments.
fn verifier_transcript(proof: &OneHotProof) -> Transcript {
    let mut transcript = Transcript::new(b"one-hot");
    transcript.append_u64(b"len", proof.commitments.len() as u64);
    for c in &proof.commitments {
        transcript.append_point(b"c", &c.0);
    }
    transcript
}

/// Verifies a one-hot proof, reporting *which* check failed.
///
/// A structurally sound proof is `2k + 1` equations (two per bit proof,
/// one for the sum proof). They are first checked all at once: the
/// transcript is replayed for every challenge and the equations folded
/// into one multi-exponentiation (see `sigma`'s module docs; the fold
/// accepts a proof with a failing equation with probability at most
/// `(2k + 1)/q`). Only when the fold fails do the checks run one by one,
/// in a fixed order — bit proofs in coordinate order, then the sum proof
/// — so the reported error is the first failure, deterministically.
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
    let d = sum_statement(pp, &proof.commitments);

    let mut transcript = verifier_transcript(proof);
    let e1 = replay_bit_challenges(&proof.commitments, &proof.bit_proofs, &mut transcript);
    let e = dlog_challenge(&d, &proof.sum_proof.a, &mut transcript);
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
        &e1,
        sum_equation,
        &mut transcript,
    ) {
        return Ok(());
    }

    let mut transcript = verifier_transcript(proof);
    for (i, (c, bp)) in proof.commitments.iter().zip(&proof.bit_proofs).enumerate() {
        if !verify_bit(pp, c, bp, &mut transcript) {
            return Err(OneHotVerifyError::BitProof(i));
        }
    }
    if !verify_dlog(pp, &d, &proof.sum_proof, &mut transcript) {
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
