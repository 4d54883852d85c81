//! Range proofs for numerical inputs.
//!
//! Numerical queries clip inputs to a declared range (§4.4); a malicious
//! participant must not be able to claim to be "1,000 years old" (§5.3).
//! The proof shows a committed value lies in `[0, 2^k)` by committing to
//! its bits, proving each is a bit, and arranging the bit blindings so the
//! weighted product of bit commitments *equals* the value commitment.
//!
//! One Fiat–Shamir pass and one challenge per proof: the width, the
//! value commitment, the bit commitments and every bit proof's
//! `(a0, a1)` are absorbed once (`seal`), and the one challenge all `k`
//! bit proofs answer — and the verifier's fold coefficient — come from
//! that sealed digest.
//!
//! Widths stop at [`MAX_RANGE_BITS`]: the group's scalars live modulo a
//! 61-bit prime `q`, so from 61 bits on `2^k > q`, a committed value is
//! only known modulo `q`, and "lies in `[0, 2^k)`" asserts nothing.

use arboretum_crypto::group::{GroupElem, Scalar};
use arboretum_crypto::pedersen::{Commitment, Opening, PedersenParams};
use arboretum_crypto::transcript::{Sealed, Transcript};
use rand::Rng;

use crate::sigma::{
    absorb_bit_first_moves, fold_holds, proof_challenge, verify_bit, BitProof, BitProvers,
    TailEquation,
};

/// The widest range a proof can speak about: `2^60 < q < 2^61`, so every
/// value below `2^60` is a distinct scalar and a 61-bit one need not be.
pub const MAX_RANGE_BITS: u32 = 60;

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
    /// The width exceeds [`MAX_RANGE_BITS`].
    TooWide {
        /// The requested bit width.
        bits: u32,
    },
}

impl std::fmt::Display for RangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OutOfRange { value, bits } => write!(f, "{value} does not fit in {bits} bits"),
            Self::ZeroBits => write!(f, "range must be at least one bit wide"),
            Self::TooWide { bits } => write!(
                f,
                "a {bits}-bit range exceeds the {MAX_RANGE_BITS} bits the group's scalars can tell apart"
            ),
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
/// Returns [`RangeError`] if the width is zero or above
/// [`MAX_RANGE_BITS`], or the value does not fit in it.
pub fn prove_range<R: Rng + ?Sized>(
    pp: &PedersenParams,
    value: u64,
    bits: u32,
    rng: &mut R,
) -> Result<(RangeProof, Opening), RangeError> {
    if bits == 0 {
        return Err(RangeError::ZeroBits);
    }
    if bits > MAX_RANGE_BITS {
        return Err(RangeError::TooWide { bits });
    }
    if value >> bits != 0 {
        return Err(RangeError::OutOfRange { value, bits });
    }
    // Commit to each bit with independent blinding.
    let (bit_commitments, bit_openings): (Vec<_>, Vec<_>) = (0..bits)
        .map(|i| pp.commit(Scalar::new((value >> i) & 1), rng))
        .unzip();
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
    let bit_provers = BitProvers::first_moves(pp, &bit_openings, rng);
    let e = proof_challenge(&seal(&commitment, &bit_commitments, bit_provers.sent()));
    Ok((
        RangeProof {
            commitment,
            bit_commitments,
            bit_proofs: bit_provers.respond(e),
        },
        total,
    ))
}

/// Why a range proof failed verification, attributed to the first check
/// that rejected it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeVerifyError {
    /// Structural mismatch: wrong number of bit commitments or proofs
    /// for the claimed width, or a width of zero or above
    /// [`MAX_RANGE_BITS`].
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

/// The sealed transcript of a `k`-bit proof: the width, the value
/// commitment, the bit commitments, every bit proof's first move.
fn seal(
    commitment: &Commitment,
    bit_commitments: &[Commitment],
    bit_moves: impl ExactSizeIterator<Item = [GroupElem; 2]>,
) -> Sealed {
    let mut transcript = Transcript::new(b"range");
    transcript.append_u64(b"bits", bit_commitments.len() as u64);
    transcript.append_points(b"value", std::iter::once([commitment.0]));
    transcript.append_points(b"bit", bit_commitments.iter().map(|c| [c.0]));
    absorb_bit_first_moves(&mut transcript, bit_moves);
    transcript.seal()
}

/// Verifies a range proof, reporting *which* check failed.
///
/// A structurally sound proof is `2k + 1` equations (the
/// weighted-product binding and two per bit proof). They are first
/// checked all at once: the transcript is absorbed in one pass and
/// sealed, the one challenge is derived from the sealed digest, and the
/// equations are folded into one multi-exponentiation (see `sigma`'s
/// module docs; the fold accepts a proof with a failing equation with
/// probability at most `(2k + 1)/q`). Only when the fold fails do the
/// checks run one by one under the same challenge, in a fixed order —
/// the binding, then bit proofs least-significant first — so the
/// reported error is the first failure, deterministically.
///
/// The challenge depends on every commitment and every first-move
/// message (`a0ᵢ`, `a1ᵢ`), so a proof with one of those changed fails at
/// the first check that involves a challenge,
/// [`RangeVerifyError::BitProof`]`(0)` — after the binding, which
/// involves none and still names a changed commitment first; a changed
/// response (`e0ᵢ`, `z0ᵢ`, `z1ᵢ`) fails at its own bit.
///
/// # Errors
///
/// Returns [`RangeVerifyError`] naming the first failing check.
pub fn verify_range_detailed(
    pp: &PedersenParams,
    proof: &RangeProof,
    bits: u32,
) -> Result<(), RangeVerifyError> {
    if bits == 0
        || bits > MAX_RANGE_BITS
        || proof.bit_commitments.len() != bits as usize
        || proof.bit_proofs.len() != bits as usize
    {
        return Err(RangeVerifyError::Structure);
    }

    let sealed = seal(
        &proof.commitment,
        &proof.bit_commitments,
        proof.bit_proofs.iter().map(|bp| [bp.a0, bp.a1]),
    );
    let e = proof_challenge(&sealed);
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
        binding,
        &sealed,
        e,
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
    for (i, (c, bp)) in proof
        .bit_commitments
        .iter()
        .zip(&proof.bit_proofs)
        .enumerate()
    {
        if !verify_bit(pp, c, bp, e) {
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
    use crate::sigma::tests::extract_bit;
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
    fn widths_the_scalar_field_cannot_tell_apart_are_refused() {
        let (pp, mut rng) = setup();
        // 60 bits is the widest honest statement.
        let top = (1u64 << 60) - 1;
        let (proof, opening) = prove_range(&pp, top, MAX_RANGE_BITS, &mut rng).unwrap();
        assert_eq!(verify_range_detailed(&pp, &proof, MAX_RANGE_BITS), Ok(()));
        assert_eq!(opening.value, Scalar::new(top));
        assert!(matches!(
            prove_range(&pp, 1u64 << 60, 60, &mut rng),
            Err(RangeError::OutOfRange { bits: 60, .. })
        ));
        // From 61 on, 2^k > q: a value of q + 5 "fits" yet commits to 5,
        // and 64 and up would shift past the word. Typed refusals on
        // both sides, before any shift, in debug and release alike.
        for bits in [61u32, 62, 63, 64, 65, u32::MAX] {
            for value in [5u64, arboretum_crypto::group::GROUP_Q + 5, u64::MAX] {
                assert_eq!(
                    prove_range(&pp, value, bits, &mut rng).unwrap_err(),
                    RangeError::TooWide { bits },
                    "value {value} bits {bits}"
                );
            }
            assert_eq!(
                verify_range_detailed(&pp, &proof, bits),
                Err(RangeVerifyError::Structure),
                "bits {bits}"
            );
        }
        // A 62-bit-shaped proof is refused for its width, not its arity.
        let mut wide = proof.clone();
        wide.bit_commitments
            .extend_from_slice(&proof.bit_commitments[..2]);
        wide.bit_proofs.extend_from_slice(&proof.bit_proofs[..2]);
        assert_eq!(
            verify_range_detailed(&pp, &wide, 62),
            Err(RangeVerifyError::Structure)
        );
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
    fn two_challenges_on_one_set_of_first_moves_extract_every_bit() {
        // `prove_range`'s draws, with the bit provers answering `e + shift`:
        // two runs on one seed share every first move.
        let pp = PedersenParams::standard();
        let (value, bits, seed) = (0b1011_0110u64, 8u32, 0x5e);
        let (honest, _) = prove_range(&pp, value, bits, &mut StdRng::seed_from_u64(seed)).unwrap();
        let answered = |shift: Scalar| {
            let mut rng = StdRng::seed_from_u64(seed);
            let (commitments, openings): (Vec<_>, Vec<_>) = (0..bits)
                .map(|i| pp.commit(Scalar::new((value >> i) & 1), &mut rng))
                .unzip();
            let provers = BitProvers::first_moves(&pp, &openings, &mut rng);
            let e = proof_challenge(&seal(&honest.commitment, &commitments, provers.sent()));
            (provers.respond(e + shift), openings, e)
        };
        let (proofs, openings, e) = answered(Scalar::ZERO);
        assert_eq!(honest.bit_proofs, proofs);
        let (other, _, _) = answered(Scalar::ONE);
        for (i, (c, o)) in honest.bit_commitments.iter().zip(&openings).enumerate() {
            let extracted = extract_bit(e, &proofs[i], e + Scalar::ONE, &other[i])
                .unwrap_or_else(|| panic!("no branch's challenges differ at bit {i}"));
            assert_eq!(extracted, *o, "bit {i}");
            assert_eq!(extracted.value, Scalar::new((value >> i) & 1), "bit {i}");
            assert!(pp.verify(c, &extracted), "bit {i}");
        }
    }

    #[test]
    fn proof_size_linear_in_bits() {
        let (pp, mut rng) = setup();
        let (p8, _) = prove_range(&pp, 5, 8, &mut rng).unwrap();
        let (p16, _) = prove_range(&pp, 5, 16, &mut rng).unwrap();
        assert_eq!(p16.size_bytes() - p8.size_bytes(), 8 * (8 + BitProof::SIZE));
    }
}
