//! Range proofs for numerical inputs.
//!
//! Numerical queries clip inputs to a declared range (§4.4); a malicious
//! participant must not be able to claim to be "1,000 years old" (§5.3).
//! The proof shows a committed value lies in `[0, 2^k)` by committing to
//! its bits, proving each is a bit, and arranging the bit blindings so the
//! weighted product of bit commitments *equals* the value commitment.

use arboretum_crypto::group::Scalar;
use arboretum_crypto::pedersen::{Commitment, Opening, PedersenParams};
use arboretum_crypto::transcript::Transcript;
use rand::Rng;

use crate::sigma::{
    fold_holds, prove_bit, replay_bit_challenges, verify_bit, BitProof, TailEquation,
};

/// A non-interactive range proof for `v ∈ [0, 2^k)`.
#[derive(Clone, Debug)]
pub struct RangeProof {
    /// The value commitment being proven.
    pub commitment: Commitment,
    /// Per-bit commitments, least significant first.
    pub bit_commitments: Vec<Commitment>,
    /// Per-bit proofs.
    pub bit_proofs: Vec<BitProof>,
}

impl RangeProof {
    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        8 + self.bit_commitments.len() * 8 + self.bit_proofs.len() * BitProof::SIZE
    }
}

/// Errors from range proving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeError {
    /// The value does not fit in `k` bits.
    OutOfRange {
        /// The value.
        value: u64,
        /// The bit width.
        bits: u32,
    },
    /// Zero-width range requested.
    ZeroBits,
}

impl std::fmt::Display for RangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OutOfRange { value, bits } => write!(f, "{value} does not fit in {bits} bits"),
            Self::ZeroBits => write!(f, "range must be at least one bit wide"),
        }
    }
}

impl std::error::Error for RangeError {}

/// Commits to `value` and proves it lies in `[0, 2^bits)`.
///
/// Returns the proof and the opening of the value commitment (the client
/// keeps the opening; the proof travels to the aggregator).
///
/// # Errors
///
/// Returns [`RangeError`] if the value does not fit.
pub fn prove_range<R: Rng + ?Sized>(
    pp: &PedersenParams,
    value: u64,
    bits: u32,
    rng: &mut R,
) -> Result<(RangeProof, Opening), RangeError> {
    if bits == 0 {
        return Err(RangeError::ZeroBits);
    }
    if bits < 64 && value >> bits != 0 {
        return Err(RangeError::OutOfRange { value, bits });
    }
    let mut transcript = Transcript::new(b"range");
    transcript.append_u64(b"bits", bits as u64);
    // Commit to each bit with independent blinding.
    let mut bit_commitments = Vec::with_capacity(bits as usize);
    let mut bit_openings = Vec::with_capacity(bits as usize);
    for i in 0..bits {
        let b = (value >> i) & 1;
        let (c, o) = pp.commit(Scalar::new(b), rng);
        bit_commitments.push(c);
        bit_openings.push(o);
    }
    // The value commitment is the 2^i-weighted product of bit
    // commitments, so its opening is the weighted sum of bit openings —
    // the verifier can recompute the product, which binds the bits to the
    // value with no extra proof. The prover holds that opening, so it
    // commits to it directly instead of exponentiating each bit
    // commitment: the same group element from two table lookups.
    let total = bit_openings.iter().enumerate().fold(
        Opening {
            value: Scalar::ZERO,
            blinding: Scalar::ZERO,
        },
        |acc, (i, o)| acc.add(o.scale(Scalar::new(1u64 << i))),
    );
    let commitment = pp.commit_with(total.value, total.blinding);
    transcript.append_point(b"value", &commitment.0);
    for c in &bit_commitments {
        transcript.append_point(b"bit", &c.0);
    }
    let bit_proofs = bit_commitments
        .iter()
        .zip(&bit_openings)
        .map(|(c, o)| prove_bit(pp, c, o, &mut transcript, rng))
        .collect();
    Ok((
        RangeProof {
            commitment,
            bit_commitments,
            bit_proofs,
        },
        total,
    ))
}

/// Why a range proof failed verification, attributed to the first check
/// that rejected it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeVerifyError {
    /// Structural mismatch: wrong number of bit commitments or proofs
    /// for the claimed width, or zero width.
    Structure,
    /// The weighted product of bit commitments does not equal the value
    /// commitment (the bits are not bound to the claimed value).
    Binding,
    /// The bit proof at the given position (least significant first)
    /// failed.
    BitProof(usize),
}

impl std::fmt::Display for RangeVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Structure => write!(f, "malformed range proof structure"),
            Self::Binding => write!(f, "bit commitments do not bind to the value commitment"),
            Self::BitProof(i) => write!(f, "bit proof at position {i} failed"),
        }
    }
}

impl std::error::Error for RangeVerifyError {}

/// The transcript of a structurally sound proof, up to and including the
/// bit commitments.
fn verifier_transcript(proof: &RangeProof, bits: u32) -> Transcript {
    let mut transcript = Transcript::new(b"range");
    transcript.append_u64(b"bits", bits as u64);
    transcript.append_point(b"value", &proof.commitment.0);
    for c in &proof.bit_commitments {
        transcript.append_point(b"bit", &c.0);
    }
    transcript
}

/// Verifies a range proof, reporting *which* check failed.
///
/// A structurally sound proof is `2k + 1` equations (the
/// weighted-product binding and two per bit proof). They are first
/// checked all at once: the transcript is replayed for every challenge
/// and the equations folded into one multi-exponentiation (see `sigma`'s
/// module docs; the fold accepts a proof with a failing equation with
/// probability at most `(2k + 1)/q`). Only when the fold fails do the
/// checks run one by one, in a fixed order — the binding, then bit
/// proofs least-significant first — so the reported error is the first
/// failure, deterministically.
///
/// # Errors
///
/// Returns [`RangeVerifyError`] naming the first failing check.
pub fn verify_range_detailed(
    pp: &PedersenParams,
    proof: &RangeProof,
    bits: u32,
) -> Result<(), RangeVerifyError> {
    if proof.bit_commitments.len() != bits as usize
        || proof.bit_proofs.len() != bits as usize
        || bits == 0
    {
        return Err(RangeVerifyError::Structure);
    }

    let mut transcript = verifier_transcript(proof, bits);
    let e1 = replay_bit_challenges(&proof.bit_commitments, &proof.bit_proofs, &mut transcript);
    // 1 == C^{-1} · Π cᵢ^{2^i}.
    let binding = TailEquation {
        h_exp: Scalar::ZERO,
        g_exp: Scalar::ZERO,
        point: proof.commitment.0,
        point_exp: -Scalar::ONE,
        weight: |i| Scalar::new(1u64 << i),
    };
    if fold_holds(
        pp,
        &proof.bit_commitments,
        &proof.bit_proofs,
        &e1,
        binding,
        &mut transcript,
    ) {
        return Ok(());
    }

    // Recompute the weighted product and match the value commitment.
    let mut acc = None::<Commitment>;
    for (i, c) in proof.bit_commitments.iter().enumerate() {
        let weighted = c.scale(Scalar::new(1u64 << i));
        acc = Some(match acc {
            None => weighted,
            Some(a) => a.add(weighted),
        });
    }
    if acc != Some(proof.commitment) {
        return Err(RangeVerifyError::Binding);
    }
    let mut transcript = verifier_transcript(proof, bits);
    for (i, (c, bp)) in proof
        .bit_commitments
        .iter()
        .zip(&proof.bit_proofs)
        .enumerate()
    {
        if !verify_bit(pp, c, bp, &mut transcript) {
            return Err(RangeVerifyError::BitProof(i));
        }
    }
    Ok(())
}

/// Verifies a range proof for `bits`-wide values.
pub fn verify_range(pp: &PedersenParams, proof: &RangeProof, bits: u32) -> bool {
    verify_range_detailed(pp, proof, bits).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (PedersenParams, StdRng) {
        (PedersenParams::standard(), StdRng::seed_from_u64(41))
    }

    #[test]
    fn valid_ranges_verify() {
        let (pp, mut rng) = setup();
        for (v, k) in [(0u64, 1u32), (1, 1), (5, 3), (255, 8), (1023, 10), (130, 8)] {
            let (proof, opening) = prove_range(&pp, v, k, &mut rng).unwrap();
            assert!(verify_range(&pp, &proof, k), "v={v}, k={k}");
            // The returned opening opens the value commitment.
            assert_eq!(opening.value, Scalar::new(v));
            assert!(pp.verify(&proof.commitment, &opening));
        }
    }

    #[test]
    fn out_of_range_rejected_at_proving() {
        let (pp, mut rng) = setup();
        assert!(matches!(
            prove_range(&pp, 256, 8, &mut rng),
            Err(RangeError::OutOfRange {
                value: 256,
                bits: 8
            })
        ));
        assert!(matches!(
            prove_range(&pp, 1, 0, &mut rng),
            Err(RangeError::ZeroBits)
        ));
    }

    #[test]
    fn wrong_width_rejected_at_verification() {
        let (pp, mut rng) = setup();
        let (proof, _) = prove_range(&pp, 5, 8, &mut rng).unwrap();
        assert!(!verify_range(&pp, &proof, 7));
        assert!(!verify_range(&pp, &proof, 9));
    }

    #[test]
    fn substituted_value_commitment_rejected() {
        let (pp, mut rng) = setup();
        let (mut proof, _) = prove_range(&pp, 5, 8, &mut rng).unwrap();
        let (other, _) = pp.commit(Scalar::new(999), &mut rng);
        proof.commitment = other;
        assert!(!verify_range(&pp, &proof, 8));
    }

    #[test]
    fn substituted_bit_commitment_rejected() {
        let (pp, mut rng) = setup();
        let (mut proof, _) = prove_range(&pp, 5, 8, &mut rng).unwrap();
        let (two, _) = pp.commit(Scalar::new(2), &mut rng);
        proof.bit_commitments[3] = two;
        assert!(!verify_range(&pp, &proof, 8));
    }

    #[test]
    fn proof_size_linear_in_bits() {
        let (pp, mut rng) = setup();
        let (p8, _) = prove_range(&pp, 5, 8, &mut rng).unwrap();
        let (p16, _) = prove_range(&pp, 5, 16, &mut rng).unwrap();
        assert_eq!(p16.size_bytes() - p8.size_bytes(), 8 * (8 + BitProof::SIZE));
    }
}
