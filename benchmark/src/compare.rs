//! `benchmark compare A B`: do two sets of runs agree?
//!
//! Each file holds the lines `--out` appends, one value a line:
//! `workload seed trace name value`, where `name` is a metric or one of
//! the run's `attempted` / `failed` check counts. B is acceptable when,
//! per workload, no end-to-end median is worse than A's by more than
//! the metric's bound, B fails no larger share of its checks than A,
//! nothing A measured is missing from B, and the exact counts of the
//! traced runs are identical for every `(workload, seed)`.

use std::collections::BTreeMap;

use crate::spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::Summary;

/// `(workload, seed)` → name → value, for one trace mode.
type Runs = BTreeMap<(String, u64), BTreeMap<String, f64>>;

/// One side of the comparison.
#[derive(Default)]
pub struct RunSet {
    plain: Runs,
    traced: Runs,
}

impl RunSet {
    /// Parses the lines of one result file.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut set = Self::default();
        for (i, line) in text.lines().enumerate() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let parsed = match fields.as_slice() {
                [] => continue,
                [workload, seed, trace @ ("0" | "1"), name, value] => seed
                    .parse::<u64>()
                    .ok()
                    .zip(value.parse::<f64>().ok())
                    .map(|(seed, value)| (*workload, seed, *trace == "1", *name, value)),
                _ => None,
            };
            let (workload, seed, traced, name, value) = parsed
                .ok_or_else(|| format!("line {}: not `workload seed 0|1 name value`", i + 1))?;
            let side = if traced {
                &mut set.traced
            } else {
                &mut set.plain
            };
            side.entry((workload.to_string(), seed))
                .or_default()
                .insert(name.to_string(), value);
        }
        Ok(set)
    }

    fn samples(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.plain
            .iter()
            .filter(|((w, _), _)| w == workload)
            .filter_map(|(_, m)| m.get(metric).copied())
            .collect()
    }

    /// Failed checks ÷ attempted ones over every run of `workload`,
    /// plain and traced; `None` when the set holds no run of it.
    fn failed_share(&self, workload: &str) -> Option<f64> {
        let sum = |name: &str| -> f64 {
            self.plain
                .iter()
                .chain(&self.traced)
                .filter(|((w, _), _)| w == workload)
                .filter_map(|(_, m)| m.get(name))
                .sum()
        };
        let attempted = sum("attempted");
        (attempted > 0.0).then(|| sum("failed") / attempted)
    }
}

/// How one end-to-end metric of one workload compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's, and the spread resolves it.
    Ok,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
    /// B's median is worse than A's by more than the bound.
    Worse,
}

/// Compares B's samples of `m` against A's.
pub fn judge(m: &MetricSpec, a: &[f64], b: &[f64]) -> Option<(Summary, Summary, f64, Verdict)> {
    let (sa, sb) = (Summary::of(a)?, Summary::of(b)?);
    // Positive = B is worse, as a share of A's median.
    let sign = if m.better == "lower" { 1.0 } else { -1.0 };
    let worse_by = sign * (sb.median - sa.median) / sa.median;
    let every_b_better = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
    let verdict = if worse_by > m.bound {
        Verdict::Worse
    } else if sa.spread().max(sb.spread()) > m.bound && !every_b_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Some((sa, sb, worse_by, verdict))
}

/// Prints the comparison; returns whether B is acceptable.
pub fn compare(a: &RunSet, b: &RunSet) -> bool {
    let mut acceptable = true;
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B worse", "bound"
    );
    for workload in WORKLOADS {
        for m in &END_TO_END {
            let (xa, xb) = (a.samples(workload, m.name), b.samples(workload, m.name));
            let Some((sa, sb, worse_by, verdict)) = judge(m, &xa, &xb) else {
                if !xa.is_empty() {
                    acceptable = false;
                    println!("{workload:<14} {:<22} missing from B", m.name);
                }
                continue;
            };
            acceptable &= verdict != Verdict::Worse;
            println!(
                "{workload:<14} {:<22} {:>14.6} {:>14.6} {:>7.1}% {:>5.0}%  {} (n={}/{}, spread {:.1}%/{:.1}%)",
                m.name,
                sa.median,
                sb.median,
                100.0 * worse_by,
                100.0 * m.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Worse => "worse",
                },
                sa.n,
                sb.n,
                100.0 * sa.spread(),
                100.0 * sb.spread(),
            );
        }
        // What ISSUE 11 called `failed_share`, bound 0: a gain does not
        // count when more operations fail than at the parent.
        match (a.failed_share(workload), b.failed_share(workload)) {
            (Some(fa), Some(fb)) if fb > fa => {
                acceptable = false;
                println!("{workload:<14} failed checks: {fa:.4} of A's, {fb:.4} of B's: worse");
            }
            (Some(_), None) => {
                acceptable = false;
                println!("{workload:<14} missing from B");
            }
            _ => {}
        }
    }
    let mut pairs = 0;
    for (key, ma) in &a.traced {
        let Some(mb) = b.traced.get(key) else {
            acceptable = false;
            println!("{} seed {}: traced run missing from B", key.0, key.1);
            continue;
        };
        pairs += 1;
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            if ma.get(m.name) != mb.get(m.name) {
                acceptable = false;
                println!(
                    "{} seed {}: {} differs: {:?} vs {:?}",
                    key.0,
                    key.1,
                    m.name,
                    ma.get(m.name),
                    mb.get(m.name)
                );
            }
        }
    }
    println!("exact counts compared on {pairs} traced (workload, seed) pairs");
    acceptable && pairs > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::find;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let lat = MetricSpec {
            bound: 0.25,
            ..*find("query_latency_min_s").unwrap()
        };
        let a = [1.0, 1.01, 1.02, 0.99, 1.0];
        let v = |b: &[f64]| judge(&lat, &a, b).unwrap().3;
        assert_eq!(v(&[1.05, 1.04, 1.06, 1.05, 1.05]), Verdict::Ok);
        assert_eq!(v(&[1.3, 1.31, 1.29, 1.3, 1.3]), Verdict::Worse);
        assert_eq!(v(&[0.7, 1.3, 1.0, 0.8, 1.2]), Verdict::Unresolved);
        // Noisy, but every run of B beats every run of A.
        assert_eq!(v(&[0.3, 0.9, 0.6, 0.5, 0.8]), Verdict::Ok);
        // Higher is better: a drop is what is worse.
        let qps = MetricSpec {
            bound: 0.25,
            ..*find("runtime.queries_per_s").unwrap()
        };
        assert_eq!(judge(&qps, &a, &[0.7; 5]).unwrap().3, Verdict::Worse);
        assert_eq!(judge(&qps, &a, &[1.3; 5]).unwrap().3, Verdict::Ok);
        assert!(judge(&lat, &[], &a).is_none());
    }

    #[test]
    fn compare_rejects_a_regression_and_a_changed_count() {
        let base: String = (0..5)
            .map(|s| {
                format!(
                    "ingest_wide {s} 0 query_latency_min_s {}\n\
                     ingest_wide {s} 0 attempted 20\n\
                     ingest_wide {s} 0 failed 0\n\
                     ingest_wide {s} 1 mpc.rounds 384\n",
                    1.0 + s as f64 / 100.0
                )
            })
            .collect();
        let a = RunSet::parse(&base).unwrap();
        let accepts = |b: &str| compare(&a, &RunSet::parse(b).unwrap());
        assert!(accepts(&base));
        assert!(!accepts(&base.replace("_s 1", "_s 2")), "2x slower");
        assert!(!accepts(&base.replace("384", "385")), "changed count");
        // Faster, but it fails checks the parent passed.
        let broken = base
            .replace("_s 1", "_s 0")
            .replace("failed 0", "failed 10");
        assert!(!accepts(&broken), "failed checks");
        assert!(!accepts(""), "empty B");
        let no_latency: String = base
            .lines()
            .filter(|l| !l.contains("_s "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(!accepts(&no_latency), "metric missing from B");
        assert!(
            !accepts(&base.replace("ingest_wide 4 1", "ingest_wide 9 1")),
            "traced run missing"
        );
        let plain_only = base.replace(" 1 mpc.rounds", " 0 mpc.rounds");
        let plain = RunSet::parse(&plain_only).unwrap();
        assert!(!compare(&plain, &plain), "no traced pair compared");
        assert!(RunSet::parse("ingest_wide 3 2 x 1").is_err());
        assert!(RunSet::parse("ingest_wide 3 1 x").is_err());
    }
}
