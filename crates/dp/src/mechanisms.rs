//! Differential-privacy mechanisms: exponential (two instantiations),
//! top-k selection and the free-gap variant. Released Laplace noise is
//! [`crate::noise::laplace_fix`].
//!
//! The two exponential-mechanism instantiations mirror Figure 4 of the
//! paper: the textbook exponentiate-and-sample form (with the score
//! window normalization that yields `(ε, δ)`-DP at finite precision) and
//! the Gumbel-noise argmax form. They compute identical distributions;
//! the planner chooses between them by cost, since their FHE/MPC costs
//! differ sharply.

use arboretum_field::fixed::Fix;
use rand::Rng;

use crate::noise::{gumbel_fix, uniform_open_fix};

/// Errors raised by mechanism evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum MechanismError {
    /// Empty score vector.
    EmptyScores,
    /// Epsilon must be positive.
    NonPositiveEpsilon(f64),
    /// Sensitivity must be positive.
    NonPositiveSensitivity(f64),
    /// `k` exceeds the number of categories.
    KTooLarge {
        /// Requested k.
        k: usize,
        /// Available categories.
        n: usize,
    },
}

impl std::fmt::Display for MechanismError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyScores => write!(f, "score vector is empty"),
            Self::NonPositiveEpsilon(e) => write!(f, "epsilon {e} must be positive"),
            Self::NonPositiveSensitivity(s) => write!(f, "sensitivity {s} must be positive"),
            Self::KTooLarge { k, n } => write!(f, "k={k} exceeds {n} categories"),
        }
    }
}

impl std::error::Error for MechanismError {}

fn check(eps: f64, sens: f64) -> Result<(), MechanismError> {
    if eps <= 0.0 {
        return Err(MechanismError::NonPositiveEpsilon(eps));
    }
    if sens <= 0.0 {
        return Err(MechanismError::NonPositiveSensitivity(sens));
    }
    Ok(())
}

/// Exponential mechanism, Gumbel instantiation (Figure 4, right): add
/// `Gumbel(2·sens/eps)` to each score and return the argmax index.
///
/// # Errors
///
/// Returns [`MechanismError`] on bad parameters or empty scores.
pub fn em_gumbel<R: Rng + ?Sized>(
    scores: &[i64],
    sens: f64,
    eps: f64,
    rng: &mut R,
) -> Result<usize, MechanismError> {
    check(eps, sens)?;
    if scores.is_empty() {
        return Err(MechanismError::EmptyScores);
    }
    let scale = Fix::from_f64(2.0 * sens / eps).expect("scale in range");
    let mut best = 0usize;
    let mut best_val = Fix::MIN;
    for (i, &s) in scores.iter().enumerate() {
        let noised = Fix::from_int(s)
            .unwrap_or(Fix::MAX)
            .checked_add(gumbel_fix(rng, scale))
            .unwrap_or(Fix::MAX);
        if noised > best_val {
            best_val = noised;
            best = i;
        }
    }
    Ok(best)
}

/// Exponential mechanism, exponentiation instantiation (Figure 4, left).
///
/// Normalizes scores into a 16-bit window below the maximum (scores
/// further than `L = 11/ln2 ≈ 16` units of `eps/(2·sens)` below the top
/// are dropped, the paper's finite-precision adjustment yielding
/// `(ε, δ)`-DP), exponentiates in base 2 (per Ilvento), and samples
/// proportionally.
///
/// # Errors
///
/// Returns [`MechanismError`] on bad parameters or empty scores.
pub fn em_exponentiate<R: Rng + ?Sized>(
    scores: &[i64],
    sens: f64,
    eps: f64,
    rng: &mut R,
) -> Result<usize, MechanismError> {
    check(eps, sens)?;
    if scores.is_empty() {
        return Err(MechanismError::EmptyScores);
    }
    let max_score = *scores.iter().max().expect("nonempty");
    // Weight_i = 2^{(s_i - max) · eps / (2 sens ln 2)}, in fixed point;
    // window of 16 bits below the top (weights under 2^-16 vanish).
    let coef = eps / (2.0 * sens * std::f64::consts::LN_2);
    let mut weights = Vec::with_capacity(scores.len());
    let mut total = Fix::ZERO;
    for &s in scores {
        let exponent = (s - max_score) as f64 * coef;
        let w = if exponent < -16.0 {
            Fix::ZERO
        } else {
            Fix::from_f64(exponent)
                .ok()
                .and_then(|e| e.exp2().ok())
                .unwrap_or(Fix::ZERO)
        };
        total = total.checked_add(w).unwrap_or(Fix::MAX);
        weights.push(w);
    }
    // r uniform in (0, total): scale a unit uniform.
    let r = uniform_open_fix(rng)
        .checked_mul(total)
        .unwrap_or(Fix::ZERO);
    let mut acc = Fix::ZERO;
    for (i, &w) in weights.iter().enumerate() {
        acc = acc.checked_add(w).unwrap_or(Fix::MAX);
        if r < acc {
            return Ok(i);
        }
    }
    // Rounding put r at the very top: return the last non-zero weight.
    Ok(weights
        .iter()
        .rposition(|w| w.raw() > 0)
        .expect("max score has weight 1"))
}

/// Top-k selection with one-shot Gumbel noise (Durfee–Rogers): noise each
/// score once and release the indices of the `k` highest, giving
/// `(√k · ε)`-DP (see §2.1).
///
/// # Errors
///
/// Returns [`MechanismError`] on bad parameters or `k > scores.len()`.
pub fn top_k_oneshot<R: Rng + ?Sized>(
    scores: &[i64],
    k: usize,
    sens: f64,
    eps: f64,
    rng: &mut R,
) -> Result<Vec<usize>, MechanismError> {
    check(eps, sens)?;
    if k > scores.len() {
        return Err(MechanismError::KTooLarge { k, n: scores.len() });
    }
    let scale = Fix::from_f64(2.0 * sens / eps).expect("scale in range");
    let mut noised: Vec<(Fix, usize)> = scores
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let v = Fix::from_int(s)
                .unwrap_or(Fix::MAX)
                .checked_add(gumbel_fix(rng, scale))
                .unwrap_or(Fix::MAX);
            (v, i)
        })
        .collect();
    noised.sort_by_key(|&(v, _)| std::cmp::Reverse(v));
    Ok(noised[..k].iter().map(|&(_, i)| i).collect())
}

/// The "gap" variant (Ding et al.): exponential mechanism that also
/// releases the noisy gap between the best and runner-up scores, which
/// comes free under the same `ε`.
///
/// # Errors
///
/// Returns [`MechanismError`] on bad parameters or fewer than two scores.
pub fn em_with_gap<R: Rng + ?Sized>(
    scores: &[i64],
    sens: f64,
    eps: f64,
    rng: &mut R,
) -> Result<(usize, Fix), MechanismError> {
    check(eps, sens)?;
    if scores.len() < 2 {
        return Err(MechanismError::EmptyScores);
    }
    let scale = Fix::from_f64(2.0 * sens / eps).expect("scale in range");
    let noised: Vec<Fix> = scores
        .iter()
        .map(|&s| {
            Fix::from_int(s)
                .unwrap_or(Fix::MAX)
                .checked_add(gumbel_fix(rng, scale))
                .unwrap_or(Fix::MAX)
        })
        .collect();
    let (best, _) = noised
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1))
        .expect("nonempty");
    let runner_up = noised
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != best)
        .map(|(_, &v)| v)
        .max()
        .expect("len >= 2");
    let gap = noised[best].checked_sub(runner_up).unwrap_or(Fix::ZERO);
    Ok((best, gap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parameter_validation() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(em_gumbel(&[1], 1.0, 0.0, &mut rng).is_err());
        assert!(em_gumbel(&[1], -1.0, 0.1, &mut rng).is_err());
        assert!(em_gumbel(&[], 1.0, 0.1, &mut rng).is_err());
        assert!(top_k_oneshot(&[1, 2], 3, 1.0, 0.1, &mut rng).is_err());
    }

    #[test]
    fn em_gumbel_favors_high_scores() {
        let mut rng = StdRng::seed_from_u64(3);
        let scores = [10i64, 500, 30, 20];
        let mut wins = [0usize; 4];
        for _ in 0..500 {
            wins[em_gumbel(&scores, 1.0, 1.0, &mut rng).unwrap()] += 1;
        }
        assert!(wins[1] > 450, "clear winner should dominate: {wins:?}");
    }

    #[test]
    fn em_exponentiate_favors_high_scores() {
        let mut rng = StdRng::seed_from_u64(4);
        let scores = [10i64, 500, 30, 20];
        let mut wins = [0usize; 4];
        for _ in 0..500 {
            wins[em_exponentiate(&scores, 1.0, 1.0, &mut rng).unwrap()] += 1;
        }
        assert!(wins[1] > 450, "clear winner should dominate: {wins:?}");
    }

    #[test]
    fn em_instantiations_agree_in_distribution() {
        // Figure 4's two instantiations implement the same mechanism;
        // their selection frequencies must match closely.
        let mut rng = StdRng::seed_from_u64(5);
        let scores = [100i64, 104, 98, 103];
        let trials = 4000;
        let mut freq_g = [0f64; 4];
        let mut freq_e = [0f64; 4];
        for _ in 0..trials {
            freq_g[em_gumbel(&scores, 1.0, 1.0, &mut rng).unwrap()] += 1.0;
            freq_e[em_exponentiate(&scores, 1.0, 1.0, &mut rng).unwrap()] += 1.0;
        }
        for i in 0..4 {
            let (g, e) = (freq_g[i] / trials as f64, freq_e[i] / trials as f64);
            assert!(
                (g - e).abs() < 0.05,
                "category {i}: gumbel {g:.3} vs exp {e:.3}"
            );
        }
    }

    #[test]
    fn em_randomizes_near_ties() {
        let mut rng = StdRng::seed_from_u64(6);
        let scores = [100i64, 101];
        let mut wins = [0usize; 2];
        for _ in 0..1000 {
            wins[em_gumbel(&scores, 1.0, 0.5, &mut rng).unwrap()] += 1;
        }
        // Near-ties with small eps: both should win substantially.
        assert!(wins[0] > 200 && wins[1] > 200, "{wins:?}");
        assert!(
            wins[1] > wins[0],
            "higher score should still lead: {wins:?}"
        );
    }

    #[test]
    fn top_k_returns_plausible_set() {
        let mut rng = StdRng::seed_from_u64(7);
        let scores = [1000i64, 900, 800, 5, 3, 2];
        let mut hits = 0;
        for _ in 0..200 {
            let top = top_k_oneshot(&scores, 3, 1.0, 2.0, &mut rng).unwrap();
            assert_eq!(top.len(), 3);
            if top.contains(&0) && top.contains(&1) && top.contains(&2) {
                hits += 1;
            }
        }
        assert!(hits > 180, "clear top-3 should be found: {hits}");
    }

    #[test]
    fn gap_mechanism_reports_margin() {
        let mut rng = StdRng::seed_from_u64(8);
        let scores = [1000i64, 100, 50];
        let (winner, gap) = em_with_gap(&scores, 1.0, 1.0, &mut rng).unwrap();
        assert_eq!(winner, 0);
        // True gap is 900; the noisy gap should be in the neighborhood.
        assert!(
            (gap.to_f64() - 900.0).abs() < 50.0,
            "gap {gap} far from 900"
        );
    }
}
