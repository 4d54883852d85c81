//! Verifiable Secret Redistribution (VSR) between committees.
//!
//! Arboretum moves secrets (the BGV private key, intermediate MPC state)
//! from one committee to the next (§5.2, §5.4): the old committee holds
//! Shamir shares, each member re-shares its share to the new committee
//! with Feldman commitments, and new members combine verified subshares
//! with Lagrange weights. As long as both committees have honest
//! majorities, the secret survives the handoff, and no mixed coalition of
//! minorities learns it. This implements the Extended-VSR structure the
//! paper takes from Gupta–Gopinath via Mycelium.
//!
//! Sharing is over the commitment group's scalar field `Z_q`, with
//! `g^coeff` Feldman commitments making every subshare verifiable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use arboretum_crypto::group::{GroupElem, Scalar};
use arboretum_field::shamir::{basis_at_zero, evaluate, lagrange_at_zero, ShamirError};
use rand::Rng;

/// A Shamir share over the scalar field: evaluation point and value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VShare {
    /// Evaluation point (1-based party index).
    pub x: u64,
    /// Share value.
    pub y: Scalar,
}

/// A Feldman-committed sharing: shares plus coefficient commitments.
#[derive(Clone, Debug)]
pub struct FeldmanSharing {
    /// The shares, one per party.
    pub shares: Vec<VShare>,
    /// Commitments `g^{a_j}` to the polynomial coefficients.
    pub commitments: Vec<GroupElem>,
}

/// Errors from VSR operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VsrError {
    /// Not enough valid shares to reconstruct.
    NotEnoughShares {
        /// Valid shares found.
        got: usize,
        /// Shares required.
        need: usize,
    },
    /// A subshare failed Feldman verification.
    BadSubshare {
        /// The old-committee member whose batch failed.
        from: u64,
        /// The new-committee member whose subshare failed.
        to: u64,
    },
    /// Duplicate evaluation points.
    DuplicatePoint(u64),
    /// Too many redistribution batches failed verification, naming the
    /// rejected old-member evaluation points.
    BadBatches {
        /// Evaluation points of old members whose batches were rejected.
        rejected: Vec<u64>,
        /// Valid batches found.
        got: usize,
        /// Batches required.
        need: usize,
    },
}

impl std::fmt::Display for VsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotEnoughShares { got, need } => write!(f, "got {got} valid shares, need {need}"),
            Self::BadSubshare { from, to } => {
                write!(f, "subshare from {from} to {to} failed verification")
            }
            Self::DuplicatePoint(x) => write!(f, "duplicate evaluation point {x}"),
            Self::BadBatches {
                rejected,
                got,
                need,
            } => write!(
                f,
                "batches from old members {rejected:?} rejected; got {got} valid, need {need}"
            ),
        }
    }
}

impl std::error::Error for VsrError {}

impl From<ShamirError> for VsrError {
    fn from(e: ShamirError) -> Self {
        match e {
            ShamirError::NotEnoughShares { got, need } => Self::NotEnoughShares { got, need },
            ShamirError::DuplicatePoint(x) => Self::DuplicatePoint(x),
        }
    }
}

/// Feldman-shares `secret` with threshold `t` (any `t + 1` reconstruct)
/// among `m` parties.
///
/// # Panics
///
/// Panics if `t >= m` or `m == 0`.
pub fn feldman_share<R: Rng + ?Sized>(
    secret: Scalar,
    t: usize,
    m: usize,
    rng: &mut R,
) -> FeldmanSharing {
    assert!(m > 0 && t < m, "invalid access structure t={t}, m={m}");
    let coeffs: Vec<Scalar> = std::iter::once(secret)
        .chain((0..t).map(|_| Scalar::new(rng.gen())))
        .collect();
    let commitments = coeffs.iter().map(|&a| GroupElem::mul_base(a)).collect();
    let shares = evaluate(&coeffs, m).map(|(x, y)| VShare { x, y }).collect();
    FeldmanSharing {
        shares,
        commitments,
    }
}

/// Verifies one share against the Feldman commitments:
/// `g^y == Π_j A_j^{x^j}`.
pub fn feldman_verify(share: &VShare, commitments: &[GroupElem]) -> bool {
    let mut expected = GroupElem::IDENTITY;
    let mut xpow = Scalar::ONE;
    let fx = Scalar::new(share.x);
    for &a in commitments {
        expected = expected + a.pow(xpow);
        xpow *= fx;
    }
    GroupElem::mul_base(share.y) == expected
}

/// Reconstructs the secret from at least `t + 1` shares.
///
/// # Errors
///
/// Returns [`VsrError`] on insufficient or inconsistent shares.
pub fn reconstruct(shares: &[VShare], t: usize) -> Result<Scalar, VsrError> {
    let xs: Vec<u64> = shares.iter().map(|s| s.x).collect();
    let lambda: Vec<Scalar> = basis_at_zero(&xs, t)?;
    Ok(shares.iter().zip(&lambda).map(|(s, &l)| s.y * l).sum())
}

/// One old member's redistribution batch: a Feldman sharing of its share.
#[derive(Clone, Debug)]
pub struct SubshareBatch {
    /// The old member's evaluation point.
    pub from: u64,
    /// The Feldman sharing of that member's share for the new committee.
    pub sharing: FeldmanSharing,
}

/// Produces the redistribution batch for one old member.
pub fn redistribute_share<R: Rng + ?Sized>(
    old_share: &VShare,
    t_new: usize,
    m_new: usize,
    rng: &mut R,
) -> SubshareBatch {
    SubshareBatch {
        from: old_share.x,
        sharing: feldman_share(old_share.y, t_new, m_new, rng),
    }
}

/// Why a redistribution batch was rejected by [`verify_batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchRejectReason {
    /// The batch's constant-term commitment disagrees with `g^{y_from}`
    /// derived from the old Feldman commitments — the old member
    /// re-shared a value other than its share (equivocation).
    WrongConstantTerm,
    /// The batch's own subshares failed Feldman verification at the
    /// listed new-member evaluation points — the member published an
    /// internally inconsistent sharing.
    BadSubshares(Vec<u64>),
}

impl std::fmt::Display for BatchRejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WrongConstantTerm => write!(f, "constant-term commitment mismatch"),
            Self::BadSubshares(xs) => write!(f, "subshares at points {xs:?} failed verification"),
        }
    }
}

/// A rejected redistribution batch with its typed reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRejection {
    /// The old member's evaluation point.
    pub from: u64,
    /// Why the batch was rejected.
    pub reason: BatchRejectReason,
}

/// Verifies one redistribution batch against the old committee's
/// Feldman commitments: the constant term must equal `g^{y_from}` and
/// every subshare must verify against the batch's own commitments.
///
/// # Errors
///
/// Returns the first applicable [`BatchRejectReason`] — constant-term
/// equivocation takes precedence over inconsistent subshares.
pub fn verify_batch(
    batch: &SubshareBatch,
    old_commitments: &[GroupElem],
) -> Result<(), BatchRejectReason> {
    // g^{y_from} derived from the old commitments.
    let expected = {
        let mut acc = GroupElem::IDENTITY;
        let mut xpow = Scalar::ONE;
        let fx = Scalar::new(batch.from);
        for &a in old_commitments {
            acc = acc + a.pow(xpow);
            xpow *= fx;
        }
        acc
    };
    if batch.sharing.commitments.first() != Some(&expected) {
        return Err(BatchRejectReason::WrongConstantTerm);
    }
    let bad: Vec<u64> = batch
        .sharing
        .shares
        .iter()
        .filter(|s| !feldman_verify(s, &batch.sharing.commitments))
        .map(|s| s.x)
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(BatchRejectReason::BadSubshares(bad))
    }
}

/// Combines verified subshare batches into the new committee's shares,
/// also reporting which batches were rejected and why.
///
/// Same acceptance rule as [`combine_batches`]; the extra return value
/// lists every rejected batch with a typed [`BatchRejectReason`] so the
/// runtime can attribute misbehavior to specific old-committee members.
///
/// # Errors
///
/// Returns [`VsrError::BadBatches`] (naming the rejected old-member
/// points) if fewer than `t_old + 1` batches survive verification.
pub fn combine_batches_detailed(
    batches: &[SubshareBatch],
    old_commitments: &[GroupElem],
    t_old: usize,
    m_new: usize,
) -> Result<(Vec<VShare>, Vec<BatchRejection>), VsrError> {
    let mut valid: Vec<&SubshareBatch> = Vec::with_capacity(batches.len());
    let mut rejections = Vec::new();
    for b in batches {
        match verify_batch(b, old_commitments) {
            Ok(()) => valid.push(b),
            Err(reason) => rejections.push(BatchRejection {
                from: b.from,
                reason,
            }),
        }
    }
    if valid.len() < t_old + 1 {
        return Err(VsrError::BadBatches {
            rejected: rejections.iter().map(|r| r.from).collect(),
            got: valid.len(),
            need: t_old + 1,
        });
    }
    let chosen = &valid[..t_old + 1];
    let xs: Vec<u64> = chosen.iter().map(|b| b.from).collect();
    let lambda: Vec<Scalar> = lagrange_at_zero(&xs);
    let shares = (0..m_new)
        .map(|j| {
            let y = chosen
                .iter()
                .zip(&lambda)
                .map(|(b, &l)| b.sharing.shares[j].y * l)
                .fold(Scalar::ZERO, |a, b| a + b);
            VShare { x: j as u64 + 1, y }
        })
        .collect();
    Ok((shares, rejections))
}

/// Combines verified subshare batches into the new committee's shares.
///
/// Each new member `j` verifies its subshare from every old member
/// against that batch's Feldman commitments, then combines the first
/// `t_old + 1` valid batches with Lagrange weights. Additionally, each
/// batch's constant-term commitment is checked against the *old* Feldman
/// commitments (`g^{y_i}` must match), preventing an old member from
/// re-sharing a wrong value.
///
/// # Errors
///
/// Returns [`VsrError`] if fewer than `t_old + 1` batches survive
/// verification.
pub fn combine_batches(
    batches: &[SubshareBatch],
    old_commitments: &[GroupElem],
    t_old: usize,
    m_new: usize,
) -> Result<Vec<VShare>, VsrError> {
    combine_batches_detailed(batches, old_commitments, t_old, m_new)
        .map(|(shares, _)| shares)
        .map_err(|e| match e {
            VsrError::BadBatches { got, need, .. } => VsrError::NotEnoughShares { got, need },
            other => other,
        })
}

/// Combines the Feldman commitments of the chosen batches into
/// commitments for the new polynomial, enabling chained redistribution.
///
/// # Panics
///
/// Panics if `batches` is empty or batches disagree on degree.
pub fn combine_commitments(batches: &[&SubshareBatch]) -> Vec<GroupElem> {
    assert!(!batches.is_empty(), "need at least one batch");
    let xs: Vec<u64> = batches.iter().map(|b| b.from).collect();
    let lambda: Vec<Scalar> = lagrange_at_zero(&xs);
    let deg = batches[0].sharing.commitments.len();
    let mut out = vec![GroupElem::IDENTITY; deg];
    for (b, &l) in batches.iter().zip(&lambda) {
        assert_eq!(b.sharing.commitments.len(), deg, "degree mismatch");
        for (k, &c) in b.sharing.commitments.iter().enumerate() {
            out[k] = out[k] + c.pow(l);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(55)
    }

    #[test]
    fn feldman_share_verify_reconstruct() {
        let mut r = rng();
        let secret = Scalar::new(987_654_321);
        let sharing = feldman_share(secret, 3, 8, &mut r);
        for s in &sharing.shares {
            assert!(feldman_verify(s, &sharing.commitments));
        }
        assert_eq!(reconstruct(&sharing.shares, 3).unwrap(), secret);
    }

    #[test]
    fn tampered_share_fails_verification() {
        let mut r = rng();
        let sharing = feldman_share(Scalar::new(42), 2, 5, &mut r);
        let mut bad = sharing.shares[0];
        bad.y += Scalar::ONE;
        assert!(!feldman_verify(&bad, &sharing.commitments));
    }

    #[test]
    fn full_redistribution_preserves_secret() {
        let mut r = rng();
        let secret = Scalar::new(123_456_789);
        let (t_old, m_old) = (3, 8);
        let (t_new, m_new) = (4, 11);
        let old = feldman_share(secret, t_old, m_old, &mut r);
        let batches: Vec<SubshareBatch> = old
            .shares
            .iter()
            .map(|s| redistribute_share(s, t_new, m_new, &mut r))
            .collect();
        let new_shares = combine_batches(&batches, &old.commitments, t_old, m_new).unwrap();
        assert_eq!(new_shares.len(), m_new);
        assert_eq!(reconstruct(&new_shares, t_new).unwrap(), secret);
    }

    #[test]
    fn redistribution_works_with_subset_of_old_members() {
        // Only t_old + 1 honest old members redistribute (the rest are
        // offline); the secret still transfers.
        let mut r = rng();
        let secret = Scalar::new(777);
        let old = feldman_share(secret, 2, 7, &mut r);
        let batches: Vec<SubshareBatch> = old.shares[2..5]
            .iter()
            .map(|s| redistribute_share(s, 3, 9, &mut r))
            .collect();
        let new_shares = combine_batches(&batches, &old.commitments, 2, 9).unwrap();
        assert_eq!(reconstruct(&new_shares, 3).unwrap(), secret);
    }

    #[test]
    fn lying_old_member_is_excluded() {
        // One old member re-shares a wrong value; its batch's constant
        // commitment mismatches and must be filtered out.
        let mut r = rng();
        let secret = Scalar::new(31_337);
        let old = feldman_share(secret, 2, 6, &mut r);
        let mut batches: Vec<SubshareBatch> = old
            .shares
            .iter()
            .map(|s| redistribute_share(s, 2, 7, &mut r))
            .collect();
        // Member 0 lies: re-shares y + 5 instead of y.
        let lie = VShare {
            x: old.shares[0].x,
            y: old.shares[0].y + Scalar::new(5),
        };
        batches[0] = redistribute_share(&lie, 2, 7, &mut r);
        let new_shares = combine_batches(&batches, &old.commitments, 2, 7).unwrap();
        assert_eq!(
            reconstruct(&new_shares, 2).unwrap(),
            secret,
            "honest majority must recover the true secret"
        );
    }

    #[test]
    fn too_many_liars_detected() {
        let mut r = rng();
        let secret = Scalar::new(1);
        let old = feldman_share(secret, 2, 4, &mut r);
        // Only 2 honest batches but t_old + 1 = 3 needed.
        let batches: Vec<SubshareBatch> = old
            .shares
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i < 2 {
                    redistribute_share(s, 2, 5, &mut r)
                } else {
                    let lie = VShare {
                        x: s.x,
                        y: s.y + Scalar::ONE,
                    };
                    redistribute_share(&lie, 2, 5, &mut r)
                }
            })
            .collect();
        assert!(matches!(
            combine_batches(&batches, &old.commitments, 2, 5),
            Err(VsrError::NotEnoughShares { got: 2, need: 3 })
        ));
    }

    #[test]
    fn chained_redistribution() {
        // Key generation committee → decryption committee → output
        // committee: two hops must still preserve the secret.
        let mut r = rng();
        let secret = Scalar::new(2_718_281_828);
        let c1 = feldman_share(secret, 2, 5, &mut r);
        let b1: Vec<SubshareBatch> = c1
            .shares
            .iter()
            .map(|s| redistribute_share(s, 3, 7, &mut r))
            .collect();
        let c2_shares = combine_batches(&b1, &c1.commitments, 2, 7).unwrap();
        let chosen: Vec<&SubshareBatch> = b1.iter().take(3).collect();
        let c2_commitments = combine_commitments(&chosen);
        let b2: Vec<SubshareBatch> = c2_shares
            .iter()
            .map(|s| redistribute_share(s, 2, 5, &mut r))
            .collect();
        let c3_shares = combine_batches(&b2, &c2_commitments, 3, 5).unwrap();
        assert_eq!(reconstruct(&c3_shares, 2).unwrap(), secret);
    }

    #[test]
    fn reconstruct_rejects_duplicates() {
        let mut r = rng();
        let sharing = feldman_share(Scalar::new(5), 2, 5, &mut r);
        let shares = vec![sharing.shares[0], sharing.shares[0], sharing.shares[1]];
        assert!(matches!(
            reconstruct(&shares, 2),
            Err(VsrError::DuplicatePoint(1))
        ));
    }
}
