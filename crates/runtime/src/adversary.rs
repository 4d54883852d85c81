//! Byzantine behavior injection for the executor (§5.1, §5.3).
//!
//! The security argument says the runtime *detects* malformed inputs and
//! misbehaving committee members; this module is the hook that lets a
//! test harness make devices actually misbehave, so the claim can be
//! checked end to end. An [`Adversary`] assigns each simulated device
//! and committee member a behavior from a small catalog; the executor
//! consults it at the points where a real deployment would receive
//! attacker-controlled bytes, and reports every rejection as a typed
//! [`Detection`] attributed to the subject that caused it.
//!
//! The honest implementation ([`HonestAdversary`]) is a no-op and the
//! production entry point ([`crate::executor::execute`]) never pays for
//! any of this: behaviors are only consulted when an adversary is
//! supplied.

use arboretum_crypto::group::Scalar;
use arboretum_crypto::pedersen::{Opening, PedersenParams};
use arboretum_crypto::sha256::{sha256, Digest};
use arboretum_zkp::onehot::{prove_from_openings, OneHotProof};
use rand::Rng;

/// What a simulated device does with its upload (§5.3 input validation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeviceBehavior {
    /// Follows the protocol.
    Honest,
    /// Submits well-formed data but corrupts a sigma-protocol response
    /// in its proof (`z0 += 1` on the first bit proof).
    TamperSigmaProof,
    /// Claims two categories at once (one-hot) or drops a per-field
    /// proof (numeric), with otherwise internally consistent proofs.
    MalformedOneHot,
    /// Sends a proof with a missing component (truncated bit-proof
    /// vector / missing trailing field proof).
    TruncatedProof,
    /// Claims a value outside the declared range: a one-hot coordinate
    /// of 2, or numeric fields shifted past the schema's `hi`.
    OutOfRangeValue,
    /// Passes input validation, then submits a BGV ciphertext that does
    /// not match the committed upload.
    WrongBgvCiphertext,
}

/// What the simulated aggregator (the untrusted server, §5.3) does to
/// its published step log and audit responses.
///
/// Target-bearing variants carry a raw seed-derived `draw` rather than
/// a resolved step index: which steps exist depends on how many uploads
/// survive validation, which a schedule cannot know at derivation time.
/// The executor and the harness both resolve the draw through
/// [`AggregatorBehavior::expected_kind`] over the realized step layout,
/// so injection and prediction can never disagree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggregatorBehavior {
    /// Follows the protocol.
    Honest,
    /// Publishes an ⊞-aggregate digest that double-counts the first
    /// accepted upload (a wrong partial sum, committed consistently).
    WrongPartialSum,
    /// Silently drops one accepted upload: the victim's input step is
    /// published as dropped and the aggregate digest excludes it.
    DropUpload {
        /// Seed-derived draw selecting the victim among accepted steps.
        draw: u64,
    },
    /// Tampers with one leaf *after* committing the root, answering
    /// challenges on it with forged contents and a proof from the
    /// tampered tree (which cannot verify against the committed root).
    ForgedLeaf {
        /// Seed-derived draw selecting the tampered step.
        draw: u64,
    },
    /// Publishes a perturbed Merkle root: every honest inclusion proof
    /// fails against it.
    ForgedRoot,
    /// Swaps two accepted input steps in the published log (the tree is
    /// rebuilt, so proofs pass but contents sit at the wrong indices).
    ReorderedSteps {
        /// Seed-derived draw selecting the earlier of the swapped pair.
        draw: u64,
    },
    /// Answers repeated challenges on one step with two different
    /// contents (equivocation across auditors).
    EquivocatingResponses {
        /// Seed-derived draw selecting the equivocated step.
        draw: u64,
    },
}

impl AggregatorBehavior {
    /// The exact detection the device-side audit must produce for this
    /// behavior, given the realized step layout: `ok_steps` are the
    /// step-log indices of accepted input steps (in acceptance order),
    /// `agg_step` the ⊞-aggregation step index, and `total_steps` the
    /// published log length. `None` for honest behavior or when the
    /// layout is too small to inject (no accepted step to drop, fewer
    /// than two to reorder) — the executor skips injection in exactly
    /// those cases, so prediction and injection stay in lockstep.
    pub fn expected_kind(
        &self,
        ok_steps: &[usize],
        agg_step: usize,
        total_steps: usize,
    ) -> Option<DetectionKind> {
        match *self {
            Self::Honest => None,
            Self::WrongPartialSum => Some(DetectionKind::AuditStepMismatch { step: agg_step }),
            Self::DropUpload { draw } => {
                if ok_steps.is_empty() {
                    return None;
                }
                let step = ok_steps[(draw % ok_steps.len() as u64) as usize];
                Some(DetectionKind::AuditDroppedUpload { step })
            }
            Self::ForgedLeaf { draw } => Some(DetectionKind::AuditForgedProof {
                step: (draw % total_steps as u64) as usize,
            }),
            Self::ForgedRoot => Some(DetectionKind::AuditRootMismatch),
            Self::ReorderedSteps { draw } => {
                if ok_steps.len() < 2 {
                    return None;
                }
                let j = (draw % (ok_steps.len() - 1) as u64) as usize;
                Some(DetectionKind::AuditReorderedSteps {
                    earlier: ok_steps[j],
                    later: ok_steps[j + 1],
                })
            }
            Self::EquivocatingResponses { draw } => Some(DetectionKind::AuditEquivocation {
                step: (draw % total_steps as u64) as usize,
            }),
        }
    }

    /// The detection class [`Self::expected_kind`] resolves to,
    /// independent of the realized step layout (assuming the layout is
    /// large enough to inject into).
    pub fn expected_class(&self) -> Option<DetectionClass> {
        match self {
            Self::Honest => None,
            Self::WrongPartialSum => Some(DetectionClass::AuditStepMismatch),
            Self::DropUpload { .. } => Some(DetectionClass::AuditDroppedUpload),
            Self::ForgedLeaf { .. } => Some(DetectionClass::AuditForgedProof),
            Self::ForgedRoot => Some(DetectionClass::AuditRootMismatch),
            Self::ReorderedSteps { .. } => Some(DetectionClass::AuditReorderedSteps),
            Self::EquivocatingResponses { .. } => Some(DetectionClass::AuditEquivocation),
        }
    }
}

/// What a simulated committee member does (§5.2 certificate + VSR).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommitteeBehavior {
    /// Follows the protocol.
    Honest,
    /// Signs a stale certificate body (previous beacon) instead of the
    /// current one.
    StaleSignature,
    /// Redistributes a value different from its committed share during
    /// the VSR key handoff (caught by the constant-term check).
    EquivocateCommit,
    /// Publishes an internally inconsistent VSR subshare batch (caught
    /// by per-subshare Feldman verification).
    InconsistentVsrShares,
}

/// Who a detection is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subject {
    /// An uploading device, by registry index.
    Device(usize),
    /// A committee member.
    CommitteeMember {
        /// Committee index (0 = key generation).
        committee: usize,
        /// Seat within the committee.
        member: usize,
        /// The member's device registry index.
        device: usize,
    },
    /// The aggregator (the untrusted server, §5.3).
    Aggregator,
}

/// The typed reason a subject was rejected, with enough indices to
/// pinpoint the failing check.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum DetectionKind {
    /// One-hot proof missing or structurally malformed.
    OneHotStructure,
    /// One-hot bit proof failed at a coordinate.
    OneHotBitProof {
        /// Failing coordinate.
        index: usize,
    },
    /// One-hot coordinate-sum proof failed (claimed sum ≠ 1).
    OneHotSumProof,
    /// Range-proof vector structurally malformed (wrong arity).
    RangeStructure,
    /// A numeric upload arrived without range proofs.
    RangeProofMissing,
    /// Range bit proof failed.
    RangeBitProof {
        /// Which field of the row.
        field: usize,
        /// Failing bit position within the field's proof.
        index: usize,
    },
    /// Range proof bits do not bind to the value commitment.
    RangeBinding {
        /// Which field of the row.
        field: usize,
    },
    /// Submitted BGV ciphertext does not match the committed upload.
    CiphertextMismatch,
    /// Certificate signature over a stale body.
    StaleSignature,
    /// VSR batch constant term disagrees with the member's committed
    /// share (equivocation).
    VsrEquivocation,
    /// VSR batch contained inconsistent subshares.
    VsrBadSubshares {
        /// Evaluation points of the failing subshares.
        subshares: Vec<u64>,
    },
    /// A committee member went silent during a streaming window-boundary
    /// key handoff: its subshare batch never arrived.
    HandoffDropout {
        /// The window boundary (handoff from window `boundary` to
        /// `boundary + 1`) where the member dropped out.
        boundary: usize,
    },
    /// The published step log commits contents that disagree with the
    /// honest recomputation at one step (e.g. a wrong partial sum).
    AuditStepMismatch {
        /// The mismatching step-log index.
        step: usize,
    },
    /// The published step log records an accepted upload as dropped.
    AuditDroppedUpload {
        /// The victim's step-log index.
        step: usize,
    },
    /// A challenge response carried an inclusion proof that fails
    /// against the committed root (leaf tampered after commitment).
    AuditForgedProof {
        /// The step whose proof fails.
        step: usize,
    },
    /// Every challenged inclusion proof fails: the published root does
    /// not commit the log being served.
    AuditRootMismatch,
    /// Two accepted input steps appear at each other's indices in the
    /// published log.
    AuditReorderedSteps {
        /// The smaller step-log index of the swapped pair.
        earlier: usize,
        /// The larger step-log index of the swapped pair.
        later: usize,
    },
    /// Repeated challenges on one step were answered with different
    /// contents.
    AuditEquivocation {
        /// The equivocated step-log index.
        step: usize,
    },
}

/// [`DetectionKind`] with the indices erased — the behavior *class*.
///
/// Schedules know which class each injected behavior must produce, but
/// not always the exact index (e.g. which coordinate of a one-hot row is
/// hot depends on the device's data), so sweep assertions match on
/// classes while targeted unit tests pin exact indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DetectionClass {
    /// See [`DetectionKind::OneHotStructure`].
    OneHotStructure,
    /// See [`DetectionKind::OneHotBitProof`].
    OneHotBitProof,
    /// See [`DetectionKind::OneHotSumProof`].
    OneHotSumProof,
    /// See [`DetectionKind::RangeStructure`].
    RangeStructure,
    /// See [`DetectionKind::RangeProofMissing`].
    RangeProofMissing,
    /// See [`DetectionKind::RangeBitProof`].
    RangeBitProof,
    /// See [`DetectionKind::RangeBinding`].
    RangeBinding,
    /// See [`DetectionKind::CiphertextMismatch`].
    CiphertextMismatch,
    /// See [`DetectionKind::StaleSignature`].
    StaleSignature,
    /// See [`DetectionKind::VsrEquivocation`].
    VsrEquivocation,
    /// See [`DetectionKind::VsrBadSubshares`].
    VsrBadSubshares,
    /// See [`DetectionKind::HandoffDropout`].
    HandoffDropout,
    /// See [`DetectionKind::AuditStepMismatch`].
    AuditStepMismatch,
    /// See [`DetectionKind::AuditDroppedUpload`].
    AuditDroppedUpload,
    /// See [`DetectionKind::AuditForgedProof`].
    AuditForgedProof,
    /// See [`DetectionKind::AuditRootMismatch`].
    AuditRootMismatch,
    /// See [`DetectionKind::AuditReorderedSteps`].
    AuditReorderedSteps,
    /// See [`DetectionKind::AuditEquivocation`].
    AuditEquivocation,
}

impl DetectionKind {
    /// The index-erased class of this detection.
    pub fn class(&self) -> DetectionClass {
        match self {
            Self::OneHotStructure => DetectionClass::OneHotStructure,
            Self::OneHotBitProof { .. } => DetectionClass::OneHotBitProof,
            Self::OneHotSumProof => DetectionClass::OneHotSumProof,
            Self::RangeStructure => DetectionClass::RangeStructure,
            Self::RangeProofMissing => DetectionClass::RangeProofMissing,
            Self::RangeBitProof { .. } => DetectionClass::RangeBitProof,
            Self::RangeBinding { .. } => DetectionClass::RangeBinding,
            Self::CiphertextMismatch => DetectionClass::CiphertextMismatch,
            Self::StaleSignature => DetectionClass::StaleSignature,
            Self::VsrEquivocation => DetectionClass::VsrEquivocation,
            Self::VsrBadSubshares { .. } => DetectionClass::VsrBadSubshares,
            Self::HandoffDropout { .. } => DetectionClass::HandoffDropout,
            Self::AuditStepMismatch { .. } => DetectionClass::AuditStepMismatch,
            Self::AuditDroppedUpload { .. } => DetectionClass::AuditDroppedUpload,
            Self::AuditForgedProof { .. } => DetectionClass::AuditForgedProof,
            Self::AuditRootMismatch => DetectionClass::AuditRootMismatch,
            Self::AuditReorderedSteps { .. } => DetectionClass::AuditReorderedSteps,
            Self::AuditEquivocation { .. } => DetectionClass::AuditEquivocation,
        }
    }
}

/// One flagged subject with its typed reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Detection {
    /// The ingestion window the fault was detected in (for handoff
    /// faults: the boundary's left window); 0 in a one-window epoch.
    pub window: usize,
    /// Who was flagged.
    pub subject: Subject,
    /// Why.
    pub kind: DetectionKind,
}

impl Detection {
    /// `(subject, class)` pair for order-insensitive sweep matching.
    pub fn classified(&self) -> (Subject, DetectionClass) {
        (self.subject, self.kind.class())
    }
}

impl DeviceBehavior {
    /// The detection class this behavior must produce — `None` for
    /// honest devices. `one_hot` selects the schema family, since the
    /// same behavior manifests differently per proof system.
    pub fn expected_class(&self, one_hot: bool) -> Option<DetectionClass> {
        match self {
            Self::Honest => None,
            Self::TamperSigmaProof => Some(if one_hot {
                DetectionClass::OneHotBitProof
            } else {
                DetectionClass::RangeBitProof
            }),
            Self::MalformedOneHot => Some(if one_hot {
                DetectionClass::OneHotSumProof
            } else {
                DetectionClass::RangeStructure
            }),
            Self::TruncatedProof => Some(if one_hot {
                DetectionClass::OneHotStructure
            } else {
                DetectionClass::RangeStructure
            }),
            Self::OutOfRangeValue => Some(if one_hot {
                DetectionClass::OneHotBitProof
            } else {
                DetectionClass::RangeProofMissing
            }),
            Self::WrongBgvCiphertext => Some(DetectionClass::CiphertextMismatch),
        }
    }
}

impl CommitteeBehavior {
    /// The detection class this behavior must produce — `None` for
    /// honest members.
    pub fn expected_class(&self) -> Option<DetectionClass> {
        match self {
            Self::Honest => None,
            Self::StaleSignature => Some(DetectionClass::StaleSignature),
            Self::EquivocateCommit => Some(DetectionClass::VsrEquivocation),
            Self::InconsistentVsrShares => Some(DetectionClass::VsrBadSubshares),
        }
    }
}

/// Behavior oracle consulted by the executor at attacker-controllable
/// points. Every method defaults to honest, so an implementation names
/// only the behaviors it injects. Implementations must be pure
/// functions of their inputs so a run reproduces bitwise from its seed.
pub trait Adversary {
    /// Behavior of uploading device `device` (registry index) when it
    /// uploads in ingestion window `window` (always 0 for a one-window
    /// epoch, i.e. [`crate::executor::execute`]).
    fn device_behavior(&self, window: usize, device: usize) -> DeviceBehavior {
        let _ = (window, device);
        DeviceBehavior::Honest
    }

    /// Behavior of seat `member` on committee `committee`: consulted
    /// when committee 0 signs the query certificate and again when it
    /// hands the key to the decryption committee at epoch close.
    fn committee_behavior(&self, committee: usize, member: usize) -> CommitteeBehavior {
        let _ = (committee, member);
        CommitteeBehavior::Honest
    }

    /// Behavior of committee seat `member` during the VSR handoff at
    /// window boundary `boundary` (between windows `boundary` and
    /// `boundary + 1`).
    fn handoff_behavior(&self, boundary: usize, member: usize) -> CommitteeBehavior {
        let _ = (boundary, member);
        CommitteeBehavior::Honest
    }

    /// Whether committee seat `member` crashes during the handoff at
    /// `boundary`: its subshare batch never arrives. Survivable while
    /// ≥ t+1 honest batches remain; always yields a typed
    /// [`DetectionKind::HandoffDropout`].
    fn handoff_crash(&self, boundary: usize, member: usize) -> bool {
        let _ = (boundary, member);
        false
    }

    /// Behavior of the aggregator (the untrusted server, §5.3),
    /// consulted once, immediately before the first ⊞-fold.
    fn aggregator_behavior(&self) -> AggregatorBehavior {
        AggregatorBehavior::Honest
    }
}

/// The no-op adversary: everyone follows the protocol.
#[derive(Clone, Copy, Debug, Default)]
pub struct HonestAdversary;

impl Adversary for HonestAdversary {}

/// Builds a one-hot proof for an arbitrary claimed vector, the way a
/// cheating client would: it commits to the vector it claims and runs
/// the honest prover ([`prove_from_openings`], the body of
/// [`prove_one_hot`]) on openings that lie wherever the truth cannot be
/// proven — a coordinate that is not a bit is claimed to be 1.
///
/// For a vector whose coordinates are all bits but whose sum exceeds
/// one, every bit proof verifies and the *sum* proof is the first
/// failure; for a vector with an out-of-range coordinate, the *bit*
/// proof at that coordinate fails first. [`prove_one_hot`] refuses both
/// inputs, which is exactly why the harness needs this forgery.
///
/// # Panics
///
/// Panics if `bits` is empty.
///
/// [`prove_one_hot`]: arboretum_zkp::onehot::prove_one_hot
pub fn forge_one_hot<R: Rng + ?Sized>(
    pp: &PedersenParams,
    bits: &[u64],
    rng: &mut R,
) -> OneHotProof {
    assert!(!bits.is_empty(), "cannot forge an empty one-hot proof");
    let (commitments, claimed): (Vec<_>, Vec<_>) = bits
        .iter()
        .map(|&b| {
            let (c, o) = pp.commit(Scalar::new(b), rng);
            // The prover refuses non-bit openings; the forger lies about
            // the opened value and keeps the real blinding, which is the
            // best any cheater can do without breaking the commitment.
            // The prover trusts the opening, so with the lie neither OR
            // branch verifies at this coordinate.
            let value = if b > 1 { Scalar::ONE } else { o.value };
            (c, Opening { value, ..o })
        })
        .unzip();
    prove_from_openings(pp, commitments, &claimed, rng)
}

/// Digest of a BGV ciphertext, used to bind the submitted ciphertext to
/// the one recomputed from the validated upload.
pub fn ciphertext_digest(ct: &arboretum_bgv::Ciphertext) -> Digest {
    let mut bytes = Vec::new();
    for poly in [&ct.c0, &ct.c1] {
        for row in &poly.rows {
            for &c in row {
                bytes.extend_from_slice(&c.to_be_bytes());
            }
        }
    }
    sha256(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arboretum_zkp::onehot::{verify_one_hot_detailed, OneHotVerifyError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forged_overfull_vector_fails_at_sum_proof() {
        let pp = PedersenParams::standard();
        let mut rng = StdRng::seed_from_u64(17);
        let proof = forge_one_hot(&pp, &[1, 0, 1, 0], &mut rng);
        assert_eq!(
            verify_one_hot_detailed(&pp, &proof),
            Err(OneHotVerifyError::SumProof)
        );
    }

    #[test]
    fn forged_out_of_range_coordinate_fails_at_its_bit_proof() {
        let pp = PedersenParams::standard();
        let mut rng = StdRng::seed_from_u64(18);
        let proof = forge_one_hot(&pp, &[0, 0, 2, 0], &mut rng);
        assert_eq!(
            verify_one_hot_detailed(&pp, &proof),
            Err(OneHotVerifyError::BitProof(2))
        );
    }

    #[test]
    fn forging_a_genuinely_one_hot_vector_yields_a_valid_proof() {
        // Sanity: the forgery only "succeeds" when the statement is
        // actually true, i.e. it grants the cheater nothing.
        let pp = PedersenParams::standard();
        let mut rng = StdRng::seed_from_u64(19);
        let proof = forge_one_hot(&pp, &[0, 1, 0], &mut rng);
        assert_eq!(verify_one_hot_detailed(&pp, &proof), Ok(()));
    }

    #[test]
    fn honest_adversary_is_a_no_op() {
        let adv = HonestAdversary;
        assert_eq!(adv.device_behavior(0, 3), DeviceBehavior::Honest);
        assert_eq!(adv.committee_behavior(0, 4), CommitteeBehavior::Honest);
        assert_eq!(adv.aggregator_behavior(), AggregatorBehavior::Honest);
    }

    #[test]
    fn aggregator_expected_kinds_resolve_draws_over_the_step_layout() {
        let ok_steps: Vec<usize> = (0..10).collect();
        let (agg, total) = (10, 14);
        assert_eq!(
            AggregatorBehavior::WrongPartialSum.expected_kind(&ok_steps, agg, total),
            Some(DetectionKind::AuditStepMismatch { step: 10 })
        );
        assert_eq!(
            AggregatorBehavior::DropUpload { draw: 23 }.expected_kind(&ok_steps, agg, total),
            Some(DetectionKind::AuditDroppedUpload { step: 3 })
        );
        assert_eq!(
            AggregatorBehavior::ForgedLeaf { draw: 27 }.expected_kind(&ok_steps, agg, total),
            Some(DetectionKind::AuditForgedProof { step: 13 })
        );
        assert_eq!(
            AggregatorBehavior::ReorderedSteps { draw: 8 }.expected_kind(&ok_steps, agg, total),
            Some(DetectionKind::AuditReorderedSteps {
                earlier: 8,
                later: 9
            })
        );
        assert_eq!(
            AggregatorBehavior::EquivocatingResponses { draw: 1 }
                .expected_kind(&ok_steps, agg, total),
            Some(DetectionKind::AuditEquivocation { step: 1 })
        );
        // Layouts too small to inject into predict no detection.
        assert_eq!(
            AggregatorBehavior::DropUpload { draw: 0 }.expected_kind(&[], 0, 4),
            None
        );
        assert_eq!(
            AggregatorBehavior::ReorderedSteps { draw: 0 }.expected_kind(&[0], 1, 5),
            None
        );
        assert_eq!(
            AggregatorBehavior::Honest.expected_kind(&ok_steps, agg, total),
            None
        );
        // Classes line up with the resolved kinds.
        for b in [
            AggregatorBehavior::WrongPartialSum,
            AggregatorBehavior::DropUpload { draw: 5 },
            AggregatorBehavior::ForgedLeaf { draw: 5 },
            AggregatorBehavior::ForgedRoot,
            AggregatorBehavior::ReorderedSteps { draw: 5 },
            AggregatorBehavior::EquivocatingResponses { draw: 5 },
        ] {
            assert_eq!(
                b.expected_kind(&ok_steps, agg, total).map(|k| k.class()),
                b.expected_class()
            );
        }
        assert_eq!(AggregatorBehavior::Honest.expected_class(), None);
    }

    #[test]
    fn expected_classes_cover_the_catalog() {
        assert_eq!(DeviceBehavior::Honest.expected_class(true), None);
        assert_eq!(
            DeviceBehavior::OutOfRangeValue.expected_class(false),
            Some(DetectionClass::RangeProofMissing)
        );
        assert_eq!(
            DeviceBehavior::WrongBgvCiphertext.expected_class(true),
            Some(DetectionClass::CiphertextMismatch)
        );
        assert_eq!(
            CommitteeBehavior::EquivocateCommit.expected_class(),
            Some(DetectionClass::VsrEquivocation)
        );
        assert_eq!(CommitteeBehavior::Honest.expected_class(), None);
    }
}
