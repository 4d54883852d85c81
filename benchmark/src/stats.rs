//! Order statistics over timing samples.

/// The `p`-th percentile (0–100) of `sorted` by linear interpolation
/// between closest ranks.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The three quartiles of `sorted`, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's rule:
/// cut points at `i·(n+1)/4`, clamped to the data).
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// The percentiles a tail may be reported at, ascending.
const TAIL_LADDER: [u32; 5] = [50, 75, 90, 95, 99];

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// ten of `n` samples beyond it; the median when `n` is too small for
/// any tail to be meaningful.
pub fn tail_percentile(n: usize) -> u32 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n * (100 - p as usize) >= 1000)
        .unwrap_or(50)
}

/// Sample count, quartiles, and the rule-chosen tail of one timing.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Samples taken.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Which percentile [`Self::tail`] is (see [`tail_percentile`]).
    pub tail_pct: u32,
    /// The value at that percentile.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(sorted.len());
        let [q1, median, q3] = quartiles(&sorted);
        Some(Self {
            n: sorted.len(),
            q1,
            median,
            q3,
            tail_pct,
            tail: percentile(&sorted, f64::from(tail_pct)),
        })
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// The median of `samples` (0 when empty, for metrics a workload does
/// not exercise).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// The fastest sample. The host's other tenants only ever add time, in
/// plateaus that can outlast a run's median (README, "Noise on this
/// host"), so the fastest sample is what the program itself costs.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), 50);
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(39), 50);
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(99), 75);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(199), 90);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(1000), 99);
    }

    #[test]
    fn percentiles_interpolate() {
        let s: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 75.0), 4.0);
        assert_eq!(percentile(&s, 90.0), 4.6);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let sum = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((sum.n, sum.q1, sum.median, sum.q3), (5, 1.5, 3.0, 4.5));
        assert_eq!(sum.spread(), 1.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }
}
