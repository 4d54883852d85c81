//! Minimum committee-size computation (§5.1).
//!
//! A committee of `m` members drawn from a population with malicious
//! fraction `f` must keep an honest majority among the `(1 − g)·m`
//! members that remain after churn, in *every one* of the `c` committees,
//! with failure probability at most `p1`. The paper chooses the smallest
//! `m` such that
//!
//! ```text
//! 1 − ( Σ_{i=0}^{⌊(1−g)m/2⌋} C(m,i) f^i (1−f)^{m−i} )^c  ≤  p1
//! ```
//!
//! The tail probabilities involved are as small as `10^-17`, so all the
//! binomial arithmetic is done in log space.

/// Parameters of the sortition failure model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SortitionParams {
    /// Fraction of malicious participants (paper: 0.03).
    pub f: f64,
    /// Tolerated offline (churn) fraction per committee (paper: 0.15).
    pub g: f64,
    /// Total privacy-failure budget over the system lifetime (paper:
    /// `10^-8`).
    pub p_total: f64,
    /// Number of rounds (queries) the budget is spread over (paper:
    /// 1,000).
    pub rounds: u64,
}

impl Default for SortitionParams {
    fn default() -> Self {
        Self {
            f: 0.03,
            g: 0.15,
            p_total: 1e-8,
            rounds: 1000,
        }
    }
}

impl SortitionParams {
    /// Per-round failure budget: `p1` with `p = 1 − (1 − p1)^R`.
    pub fn p1(&self) -> f64 {
        // For tiny p, p1 ≈ p / R; compute exactly via ln1p for stability.
        1.0 - (1.0 - self.p_total).powf(1.0 / self.rounds as f64)
    }
}

/// Natural log of `n!` via Stirling–Lanczos-free summation (exact-enough
/// for `n` up to a few thousand).
fn ln_factorial(n: u64) -> f64 {
    (2..=n).map(|k| (k as f64).ln()).sum()
}

/// Natural log of the binomial pmf `C(m, i) f^i (1-f)^(m-i)`.
fn ln_binom_pmf(m: u64, i: u64, f: f64) -> f64 {
    ln_factorial(m) - ln_factorial(i) - ln_factorial(m - i)
        + i as f64 * f.ln()
        + (m - i) as f64 * (1.0 - f).ln()
}

/// Log-sum-exp over a slice of log-probabilities.
fn log_sum_exp(ls: &[f64]) -> f64 {
    let mx = ls.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if mx == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    mx + ls.iter().map(|&l| (l - mx).exp()).sum::<f64>().ln()
}

/// Log of the per-committee failure probability: `P(X > ⌊(1−g)m/2⌋)` for
/// `X ~ Binomial(m, f)`.
pub fn ln_committee_failure(m: u64, f: f64, g: f64) -> f64 {
    let threshold = (((1.0 - g) * m as f64) / 2.0).floor() as u64;
    let tail: Vec<f64> = (threshold + 1..=m).map(|i| ln_binom_pmf(m, i, f)).collect();
    log_sum_exp(&tail)
}

/// Largest committee size the scan tries before giving up.
const MAX_COMMITTEE_SIZE: u64 = 10_000;

/// Smallest committee size `m` such that `c` committees all keep honest
/// majorities (after `g` churn) except with probability `p1`.
///
/// Returns `None` when no size can meet the bound, and says so at once:
/// with `f ≥ (1 − g)/2` the expected number of malicious members is at
/// or above the majority threshold, so the tail never falls as `m`
/// grows; `f`, `g` or `p_total` outside `(0, 1)` (NaN included),
/// `rounds == 0`, and a budget so small that `p1` rounds to zero
/// describe no deployment. A feasible-looking setting whose answer lies
/// beyond `m = 10,000` is `None` too.
pub fn min_committee_size(c: u64, params: &SortitionParams) -> Option<u64> {
    let unit = |x: f64| x > 0.0 && x < 1.0;
    if params.rounds == 0
        || !(unit(params.f) && unit(params.g) && unit(params.p_total))
        || params.f >= (1.0 - params.g) / 2.0
    {
        return None;
    }
    let ln_p1 = params.p1().ln();
    if ln_p1 == f64::NEG_INFINITY {
        return None;
    }
    let ln_c = (c as f64).ln();
    // Union bound: c committees fail with probability ≤ c · q; require
    // ln q ≤ ln p1 − ln c. (The union bound is within rounding of the
    // exact 1 − (1 − q)^c for these magnitudes and is conservative.)
    (3..=MAX_COMMITTEE_SIZE).find(|&m| ln_committee_failure(m, params.f, params.g) + ln_c <= ln_p1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p1_approximates_p_over_r() {
        let p = SortitionParams::default();
        let ratio = p.p1() / (p.p_total / p.rounds as f64);
        assert!((ratio - 1.0).abs() < 1e-3, "ratio {ratio}");
    }

    #[test]
    fn paper_scale_committee_sizes() {
        // §7.1: "committee sizes of about 40 members (depending on the
        // number of committees)".
        let p = SortitionParams::default();
        let single = min_committee_size(1, &p).unwrap();
        assert!(
            (25..=45).contains(&single),
            "single committee size {single}"
        );
        // topK in §7.2 has 115,334 operation committees; sizes grow only
        // logarithmically with c.
        let many = min_committee_size(115_334, &p).unwrap();
        assert!((35..=60).contains(&many), "large-c committee size {many}");
        assert!(many > single);
    }

    #[test]
    fn size_monotone_in_committee_count() {
        let p = SortitionParams::default();
        let mut prev = 0;
        for c in [1u64, 10, 1_000, 100_000] {
            let m = min_committee_size(c, &p).unwrap();
            assert!(m >= prev, "m must grow with c");
            prev = m;
        }
    }

    #[test]
    fn size_grows_with_malice_and_churn() {
        let base = SortitionParams::default();
        let m0 = min_committee_size(100, &base).unwrap();
        let worse_f = SortitionParams { f: 0.10, ..base };
        let worse_g = SortitionParams { g: 0.40, ..base };
        assert!(min_committee_size(100, &worse_f).unwrap() > m0);
        assert!(min_committee_size(100, &worse_g).unwrap() > m0);
    }

    #[test]
    fn infeasible_parameters_are_refused_at_once() {
        let base = SortitionParams::default();
        let refused = [
            // f ≥ (1 − g)/2: the tail never falls.
            SortitionParams { f: 0.45, ..base },
            SortitionParams { f: 0.6, ..base },
            SortitionParams { f: 0.425, ..base },
            SortitionParams { g: 0.95, ..base },
            // Outside (0, 1), NaN included.
            SortitionParams {
                f: f64::NAN,
                ..base
            },
            SortitionParams { f: -0.03, ..base },
            SortitionParams { f: 0.0, ..base },
            SortitionParams {
                g: f64::NAN,
                ..base
            },
            SortitionParams { g: -0.15, ..base },
            SortitionParams { g: 1.0, ..base },
            SortitionParams {
                p_total: f64::NAN,
                ..base
            },
            SortitionParams {
                p_total: 0.0,
                ..base
            },
            SortitionParams {
                p_total: 1.0,
                ..base
            },
            SortitionParams {
                p_total: -1e-8,
                ..base
            },
            // A budget whose per-round share rounds to zero.
            SortitionParams {
                p_total: 1e-20,
                ..base
            },
            SortitionParams { rounds: 0, ..base },
        ];
        // The scan this replaces walked to m = 10,000 at O(m²) `ln`s a
        // step (tens of minutes) before panicking; a refusal evaluates
        // no tail at all. Fastest of five passes, so a descheduled
        // thread does not read as a slow refusal.
        let fastest = (0..5)
            .map(|_| {
                let start = std::time::Instant::now();
                for p in &refused {
                    for c in [1u64, 1_000, 1 << 40] {
                        assert_eq!(min_committee_size(c, p), None, "{p:?}");
                    }
                }
                start.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            fastest < std::time::Duration::from_millis(1),
            "refusals took {fastest:?}"
        );
        assert!(min_committee_size(1, &base).is_some());
    }

    #[test]
    fn failure_probability_decreases_in_m() {
        let (f, g) = (0.03, 0.15);
        let mut prev = 0.0_f64;
        for (i, m) in [10u64, 20, 40, 80].iter().enumerate() {
            let lq = ln_committee_failure(*m, f, g);
            if i > 0 {
                assert!(lq < prev, "tail must shrink with m");
            }
            prev = lq;
        }
    }

    #[test]
    fn binomial_tail_sanity() {
        // P(X > 0) for Bin(10, 0.5) = 1 - 2^-10.
        let ln_q = {
            let tail: Vec<f64> = (1..=10).map(|i| ln_binom_pmf(10, i, 0.5)).collect();
            log_sum_exp(&tail)
        };
        let want = (1.0 - 0.5f64.powi(10)).ln();
        assert!((ln_q - want).abs() < 1e-9);
    }

    #[test]
    fn ln_factorial_matches_direct() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        let got = ln_factorial(10);
        let want = (3628800f64).ln();
        assert!((got - want).abs() < 1e-9);
    }
}
