//! Shamir secret sharing over the Goldilocks field.
//!
//! Arboretum's committees run honest-majority MPC in the SPDZ-wise Shamir
//! style (§6): a secret is a degree-`t` polynomial evaluated at party
//! points `1..=m`, and any `t + 1` shares reconstruct it by Lagrange
//! interpolation at zero.

pub use arboretum_field::shamir::ShamirError;
use arboretum_field::shamir::{basis_at_zero, evaluate};
use arboretum_field::FGold;
use rand::Rng;

/// A single party's share: the evaluation point and value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Share {
    /// Evaluation point (party index, 1-based).
    pub x: u64,
    /// Polynomial evaluation at `x`.
    pub y: FGold,
}

/// Splits `secret` into one share per slot of `out` — party `p`'s at
/// point `p + 1` — with reconstruction threshold `t + 1` (any `t` shares
/// reveal nothing; `t + 1` reconstruct). The `t` random coefficients
/// are drawn into `coeffs`, a scratch buffer the caller reuses across
/// sharings, so a sharing allocates nothing of its own, and the
/// polynomial is evaluated by forward differences.
///
/// # Panics
///
/// Panics if `t >= out.len()` (no valid access structure).
pub fn share<R: Rng + ?Sized>(
    secret: FGold,
    t: usize,
    coeffs: &mut Vec<FGold>,
    out: &mut [FGold],
    rng: &mut R,
) {
    let m = out.len();
    assert!(t < m, "invalid access structure t={t}, m={m}");
    // Random degree-t polynomial with constant term = secret.
    coeffs.clear();
    coeffs.push(secret);
    coeffs.extend((0..t).map(|_| FGold::new(rng.gen())));
    evaluate(coeffs, out);
}

/// The Lagrange basis at zero over a committee's own points `1..=t+1`:
/// what an engine computes once, after which every value shared over
/// those points reconstructs as a `t + 1`-term dot product.
#[allow(clippy::expect_used)] // `t + 1` distinct points always meet the threshold `t`.
pub fn committee_basis(t: usize) -> Vec<FGold> {
    let xs: Vec<u64> = (1..=t as u64 + 1).collect();
    basis_at_zero(&xs, t).expect("points 1..=t+1 are distinct")
}

/// Reconstructs the secret from at least `t + 1` shares.
///
/// # Errors
///
/// Returns [`ShamirError`] on insufficient or inconsistent inputs.
pub fn reconstruct(shares: &[Share], t: usize) -> Result<FGold, ShamirError> {
    let xs: Vec<u64> = shares.iter().map(|s| s.x).collect();
    let lambda: Vec<FGold> = basis_at_zero(&xs, t)?;
    Ok(shares.iter().zip(&lambda).map(|(s, &l)| s.y * l).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use arboretum_field::shamir::lagrange_at_zero;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `m` shares of `secret` with their points.
    fn share(secret: FGold, t: usize, m: usize, rng: &mut StdRng) -> Vec<Share> {
        let mut ys = vec![FGold::ZERO; m];
        super::share(secret, t, &mut Vec::new(), &mut ys, rng);
        (1..).zip(ys).map(|(x, y)| Share { x, y }).collect()
    }

    #[test]
    fn share_reconstruct_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        for secret in [0u64, 1, 42, u64::MAX - 5] {
            let s = FGold::new(secret);
            let shares = share(s, 3, 10, &mut rng);
            assert_eq!(reconstruct(&shares, 3).unwrap(), s);
        }
    }

    #[test]
    fn any_subset_above_threshold_reconstructs() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = FGold::new(123_456);
        let shares = share(s, 2, 7, &mut rng);
        // Try several 3-subsets.
        for subset in [[0, 1, 2], [4, 5, 6], [0, 3, 6], [1, 2, 5]] {
            let sub: Vec<Share> = subset.iter().map(|&i| shares[i]).collect();
            assert_eq!(reconstruct(&sub, 2).unwrap(), s);
        }
    }

    #[test]
    fn below_threshold_fails() {
        let mut rng = StdRng::seed_from_u64(5);
        let shares = share(FGold::new(9), 3, 8, &mut rng);
        let err = reconstruct(&shares[..3], 3).unwrap_err();
        assert!(matches!(
            err,
            ShamirError::NotEnoughShares { got: 3, need: 4 }
        ));
    }

    #[test]
    fn duplicate_points_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut shares = share(FGold::new(9), 2, 5, &mut rng);
        shares[1] = shares[0];
        assert!(matches!(
            reconstruct(&shares[..3], 2),
            Err(ShamirError::DuplicatePoint(1))
        ));
    }

    #[test]
    fn cached_basis_reconstruction_equals_reconstruct() {
        // The committee shapes the workspace's tests and harnesses use.
        let mut rng = StdRng::seed_from_u64(9);
        for (m, t) in [(5, 2), (7, 3), (9, 4), (13, 6), (40, 19)] {
            let lambda = committee_basis(t);
            assert_eq!(lambda.len(), t + 1);
            for secret in [0u64, 1, 42, u64::MAX - 5] {
                let shares = share(FGold::new(secret), t, m, &mut rng);
                let dot: FGold = shares.iter().zip(&lambda).map(|(s, &l)| s.y * l).sum();
                assert_eq!(dot, reconstruct(&shares, t).unwrap(), "m={m} t={t}");
                assert_eq!(dot, FGold::new(secret), "m={m} t={t}");
            }
        }
        assert_eq!(
            basis_at_zero::<{ FGold::MODULUS }>(&[1, 2, 3], 3),
            Err(ShamirError::NotEnoughShares { got: 3, need: 4 })
        );
        assert_eq!(
            basis_at_zero::<{ FGold::MODULUS }>(&[1, 1, 3], 2),
            Err(ShamirError::DuplicatePoint(1))
        );
    }

    /// A sharing draws exactly its `t` coefficients from the RNG, in
    /// order, and its shares are Horner's evaluation of that polynomial:
    /// forward differences change no draw and no share.
    #[test]
    fn share_draws_exactly_t_values() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut coeffs = Vec::new();
        for t in 0..=19 {
            for m in t + 1..=40 {
                let secret = FGold::new(rng.gen());
                let mut after = rng.clone();
                let mut ys = vec![FGold::ZERO; m];
                super::share(secret, t, &mut coeffs, &mut ys, &mut after);
                let poly: Vec<FGold> = std::iter::once(secret)
                    .chain((0..t).map(|_| FGold::new(rng.gen())))
                    .collect();
                assert_eq!(after, rng, "t={t} m={m}: draws");
                for (x, y) in (1..).zip(&ys) {
                    let fx = FGold::new(x);
                    let horner = poly.iter().rev().fold(FGold::ZERO, |acc, &c| acc * fx + c);
                    assert_eq!(*y, horner, "t={t} m={m} x={x}");
                }
            }
        }
    }

    #[test]
    fn shares_are_additive() {
        // Shamir is linear: share-wise sums reconstruct to the sum.
        let mut rng = StdRng::seed_from_u64(7);
        let a = share(FGold::new(100), 2, 5, &mut rng);
        let b = share(FGold::new(23), 2, 5, &mut rng);
        let sum: Vec<Share> = a
            .iter()
            .zip(&b)
            .map(|(sa, sb)| Share {
                x: sa.x,
                y: sa.y + sb.y,
            })
            .collect();
        assert_eq!(reconstruct(&sum, 2).unwrap(), FGold::new(123));
    }

    #[test]
    fn t_shares_leak_nothing_statistically() {
        // With t = 1, a single share of two different secrets should be
        // identically distributed; spot-check that share values differ
        // across runs (randomized polynomial).
        let mut rng = StdRng::seed_from_u64(8);
        let s1 = share(FGold::new(0), 1, 3, &mut rng);
        let s2 = share(FGold::new(0), 1, 3, &mut rng);
        assert_ne!(s1[0].y, s2[0].y, "fresh randomness per sharing");
    }

    #[test]
    fn lagrange_coefficients_sum_to_one_for_constant() {
        // Interpolating a constant polynomial: coefficients must sum to 1.
        let xs = [1u64, 2, 5, 9];
        let lambda: Vec<FGold> = lagrange_at_zero(&xs);
        let sum = lambda.iter().fold(FGold::ZERO, |a, &b| a + b);
        assert_eq!(sum, FGold::ONE);
    }
}
