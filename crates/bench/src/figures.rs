//! Data generation for every table and figure in the paper's evaluation.
//!
//! Each `figN_rows` function regenerates the rows/series of the
//! corresponding figure; the binaries in `src/bin/` print them, and the
//! crate tests assert the qualitative shape (who wins, by what factor,
//! where crossovers fall) matches the paper.

use arboretum_planner::cost::{CostModel, Goal, Limits};
use arboretum_planner::logical::{extract, LogicalPlan};
use arboretum_planner::plan::CommitteeRole;
use arboretum_planner::search::{plan, PlanError, PlanStats, PlannerConfig};
use arboretum_queries::baselines::{self, BaselineCost};
use arboretum_queries::corpus::{all_queries, top1, QuerySpec};

use std::time::Instant;

use crate::energy::EnergyModel;

/// The paper's headline deployment size.
pub const PAPER_N: u64 = 1 << 30;

fn logical_plan(q: &QuerySpec) -> LogicalPlan {
    extract(&q.program(), &q.schema, q.certify).unwrap_or_else(|e| panic!("{}: {e}", q.name))
}

/// Plans one query at the paper's settings.
///
/// # Panics
///
/// Panics if the corpus query fails to plan (a harness bug).
pub fn plan_query(q: &QuerySpec, n: u64) -> (arboretum_planner::plan::Plan, PlanStats) {
    let cfg = PlannerConfig::paper_defaults(n);
    plan(&logical_plan(q), &cfg).unwrap_or_else(|e| panic!("{}: {e}", q.name))
}

/// One row of Figure 6: expected per-participant costs.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Query name.
    pub query: &'static str,
    /// Expected bytes sent per participant.
    pub exp_bytes: f64,
    /// Expected computation seconds per participant.
    pub exp_secs: f64,
    /// The original system's cost for adapted queries (Honeycrisp for
    /// cms; Orchard for bayes and k-medians), if applicable.
    pub original_exp_bytes: Option<f64>,
}

/// Regenerates Figure 6 (expected participant bandwidth/computation).
pub fn fig6_rows(n: u64) -> Vec<Fig6Row> {
    let cm = CostModel::default();
    all_queries(n)
        .iter()
        .map(|q| {
            let (p, _) = plan_query(q, n);
            let original_exp_bytes = match q.name {
                "cms" => Some(
                    baselines::orchard(&cm, n, 1, p.committee_size, 0).participant_bytes_typical,
                ),
                "bayes" => Some(
                    baselines::orchard(&cm, n, 115, p.committee_size, 0).participant_bytes_typical,
                ),
                "k-medians" => Some(
                    baselines::orchard(&cm, n, 20, p.committee_size, 0).participant_bytes_typical,
                ),
                _ => None,
            };
            Fig6Row {
                query: q.name,
                exp_bytes: p.metrics.part_exp_bytes,
                exp_secs: p.metrics.part_exp_secs,
                original_exp_bytes,
            }
        })
        .collect()
}

/// One row of Figure 7: per-committee-member costs by committee type.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Query name.
    pub query: &'static str,
    /// `(bytes, secs)` per member for each role, if the plan seats it.
    pub keygen: Option<(f64, f64)>,
    /// Decryption-committee member cost.
    pub decryption: Option<(f64, f64)>,
    /// Operations-committee member cost (worst vignette).
    pub operations: Option<(f64, f64)>,
    /// Fraction of all participants serving on any committee.
    pub serving_fraction: f64,
    /// Committee size for this plan.
    pub committee_size: u64,
}

/// Regenerates Figure 7 (committee-member costs by type).
pub fn fig7_rows(n: u64) -> Vec<Fig7Row> {
    let cm = CostModel::default();
    all_queries(n)
        .iter()
        .map(|q| {
            let (p, _) = plan_query(q, n);
            let get = |role| p.role_member_cost(role, &cm).map(|(s, b)| (b, s));
            Fig7Row {
                query: q.name,
                keygen: get(CommitteeRole::KeyGen),
                decryption: get(CommitteeRole::Decryption),
                operations: get(CommitteeRole::Operations),
                serving_fraction: p.committee_fraction(),
                committee_size: p.committee_size,
            }
        })
        .collect()
}

/// One row of Figure 8: aggregator costs.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Query name.
    pub query: &'static str,
    /// Total bytes the aggregator sends (forwarding + distribution).
    pub bytes_sent: f64,
    /// Aggregator computation in core-seconds.
    pub compute_core_secs: f64,
    /// Of which, input verification.
    pub verification_core_secs: f64,
}

/// Regenerates Figure 8 (aggregator bandwidth/computation).
pub fn fig8_rows(n: u64) -> Vec<Fig8Row> {
    let cm = CostModel::default();
    all_queries(n)
        .iter()
        .map(|q| {
            let (p, _) = plan_query(q, n);
            Fig8Row {
                query: q.name,
                bytes_sent: p.metrics.agg_bytes,
                compute_core_secs: p.metrics.agg_secs,
                verification_core_secs: n as f64 * cm.zkp_verify_secs,
            }
        })
        .collect()
}

/// One row of Figure 9: planner runtime.
#[derive(Clone, Debug)]
pub struct Fig9Row {
    /// Query name.
    pub query: &'static str,
    /// Planning wall-clock time.
    pub planner_secs: f64,
    /// Prefixes considered during search.
    pub prefixes: u64,
    /// Full candidates scored.
    pub candidates: u64,
}

/// Regenerates Figure 9 (query-planner runtime).
pub fn fig9_rows(n: u64) -> Vec<Fig9Row> {
    all_queries(n)
        .iter()
        .map(|q| {
            // The search alone is timed, here: the planner reads no clock.
            let cfg = PlannerConfig::paper_defaults(n);
            let lp = logical_plan(q);
            let start = Instant::now();
            let (_, stats) = plan(&lp, &cfg).unwrap_or_else(|e| panic!("{}: {e}", q.name));
            Fig9Row {
                query: q.name,
                planner_secs: start.elapsed().as_secs_f64(),
                prefixes: stats.prefixes_considered,
                candidates: stats.full_candidates,
            }
        })
        .collect()
}

/// One point of Figure 10: scalability under aggregator limits.
#[derive(Clone, Debug)]
pub struct Fig10Point {
    /// log2 of the population size.
    pub log2_n: u32,
    /// Aggregator core-hour limit (`None` = unlimited).
    pub limit_core_hours: Option<f64>,
    /// Aggregator computation (core-hours), `None` if infeasible.
    pub agg_hours: Option<f64>,
    /// Expected participant computation (minutes).
    pub exp_part_mins: Option<f64>,
    /// Maximum participant computation (minutes).
    pub max_part_mins: Option<f64>,
    /// Whether the plan outsources summation to participants.
    pub outsourced_sum: bool,
}

/// Regenerates Figure 10: `top1` plans for `N = 2^17 .. 2^30` under
/// `A ∈ {1000, 5000, ∞}` core-hours.
pub fn fig10_points(categories: usize) -> Vec<Fig10Point> {
    let mut out = Vec::new();
    for log2_n in 17..=30u32 {
        let n = 1u64 << log2_n;
        for limit in [Some(1000.0), Some(5000.0), None] {
            let q = top1(n, categories);
            let mut cfg = PlannerConfig::paper_defaults(n);
            cfg.limits = Limits {
                agg_secs: limit.map(|h| h * 3600.0),
                ..Limits::paper_defaults()
            };
            cfg.goal = Goal::ParticipantExpectedSecs;
            let lp = extract(&q.program(), &q.schema, q.certify).expect("top1 extracts");
            match plan(&lp, &cfg) {
                Ok((p, _)) => {
                    let outsourced = p
                        .vignettes
                        .iter()
                        .any(|v| matches!(v.op, arboretum_planner::plan::PhysOp::SumTree { .. }));
                    out.push(Fig10Point {
                        log2_n,
                        limit_core_hours: limit,
                        agg_hours: Some(p.metrics.agg_secs / 3600.0),
                        exp_part_mins: Some(p.metrics.part_exp_secs / 60.0),
                        max_part_mins: Some(p.metrics.part_max_secs / 60.0),
                        outsourced_sum: outsourced,
                    });
                }
                Err(PlanError::Infeasible) => out.push(Fig10Point {
                    log2_n,
                    limit_core_hours: limit,
                    agg_hours: None,
                    exp_part_mins: None,
                    max_part_mins: None,
                    outsourced_sum: false,
                }),
                Err(e) => panic!("unexpected planner error: {e}"),
            }
        }
    }
    out
}

/// One bar of Figure 11: worst-case committee energy per query.
#[derive(Clone, Debug)]
pub struct Fig11Row {
    /// Query name.
    pub query: &'static str,
    /// Energy of the most expensive committee role, mAh.
    pub worst_role_mah: f64,
    /// The 5% battery reference, mAh.
    pub five_percent_mah: f64,
}

/// Regenerates Figure 11 (power consumption on a Pi-class device).
pub fn fig11_rows(n: u64) -> Vec<Fig11Row> {
    let cm = CostModel::default();
    let em = EnergyModel::default();
    all_queries(n)
        .iter()
        .map(|q| {
            let (p, _) = plan_query(q, n);
            let worst = [
                CommitteeRole::KeyGen,
                CommitteeRole::Decryption,
                CommitteeRole::Operations,
            ]
            .iter()
            .filter_map(|&r| p.role_member_cost(r, &cm))
            .map(|(secs, bytes)| em.role_mah(secs, bytes))
            .fold(0.0, f64::max);
            Fig11Row {
                query: q.name,
                worst_role_mah: worst,
                five_percent_mah: em.five_percent(),
            }
        })
        .collect()
}

/// One row of Table 1: the strawman comparison at `N = 10^8`,
/// zip-code-sized categories.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Approach name.
    pub approach: &'static str,
    /// The modeled costs.
    pub cost: BaselineCost,
    /// Supports categorical queries at this scale.
    pub categorical: bool,
}

/// Regenerates Table 1.
pub fn table1_rows() -> Vec<Table1Row> {
    let cm = CostModel::default();
    let n = 100_000_000u64;
    let zipcodes = 41_683u64;
    let q = top1(n, zipcodes as usize);
    let (arb, _) = plan_query(&q, n);
    vec![
        Table1Row {
            approach: "FHE",
            cost: baselines::fhe_only(&cm, n, zipcodes),
            categorical: true,
        },
        Table1Row {
            approach: "All-to-all MPC",
            cost: baselines::all_to_all_mpc(&cm, n, zipcodes),
            categorical: true,
        },
        Table1Row {
            approach: "Boehler [14]",
            cost: baselines::boehler(&cm, n, 40),
            categorical: true,
        },
        Table1Row {
            approach: "Orchard [54]",
            cost: baselines::orchard(&cm, n, zipcodes, 40, zipcodes),
            categorical: false, // "Limited" in the paper's table.
        },
        Table1Row {
            approach: "Arboretum",
            cost: BaselineCost {
                agg_secs: arb.metrics.agg_secs,
                participant_bytes_typical: arb.metrics.part_exp_bytes,
                participant_bytes_worst: arb.metrics.part_max_bytes,
                feasible: true,
            },
            categorical: true,
        },
    ]
}

/// One row of Table 2: the supported queries.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Query name.
    pub query: &'static str,
    /// What it computes.
    pub action: &'static str,
    /// Lines in our generated source.
    pub lines: usize,
    /// Lines reported in the paper.
    pub paper_lines: usize,
    /// New query (vs adapted from earlier systems).
    pub is_new: bool,
}

/// Regenerates Table 2.
pub fn table2_rows() -> Vec<Table2Row> {
    all_queries(PAPER_N)
        .iter()
        .map(|q| Table2Row {
            query: q.name,
            action: q.action,
            lines: q.line_count(),
            paper_lines: q.paper_lines,
            is_new: q.is_new,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // A smaller N keeps the committee math identical in structure while
    // the tests stay fast.
    const N: u64 = 1 << 30;

    #[test]
    fn fig6_shape() {
        let rows = fig6_rows(N);
        let get = |name: &str| rows.iter().find(|r| r.query == name).unwrap();
        // Expected costs are low in absolute terms (§7.2: 132 kB–3 MB,
        // 7.1–62.4 s; we check the same order of magnitude).
        for r in &rows {
            assert!(r.exp_bytes < 20.0e6, "{}: {} B", r.query, r.exp_bytes);
            assert!(r.exp_secs < 200.0, "{}: {} s", r.query, r.exp_secs);
        }
        // topK is the most expensive exponential query.
        let topk = get("topK");
        assert!(topk.exp_secs >= get("top1").exp_secs);
        // Laplace queries are cheaper than EM queries.
        assert!(get("cms").exp_secs < get("top1").exp_secs);
        // Adapted queries match the original systems in expectation
        // (within 2×).
        for name in ["cms", "bayes"] {
            let r = get(name);
            let orig = r.original_exp_bytes.unwrap();
            let ratio = r.exp_bytes / orig;
            assert!(
                (0.3..3.0).contains(&ratio),
                "{name}: arboretum {} vs original {orig}",
                r.exp_bytes
            );
        }
    }

    #[test]
    fn fig7_shape() {
        let rows = fig7_rows(N);
        for r in &rows {
            // Keygen is expensive in absolute terms (§7.2: ~700 MB /
            // 14 min at full degree; scaled by ring degree here).
            let (kb, ks) = r.keygen.expect("every plan has keygen");
            assert!(kb > 10.0e6, "{}: keygen bytes {kb}", r.query);
            assert!(ks > 30.0, "{}: keygen secs {ks}", r.query);
            // Serving fractions stay well below 1% (§7.2: 0.00022%–0.49%).
            assert!(
                r.serving_fraction < 0.01,
                "{}: fraction {}",
                r.query,
                r.serving_fraction
            );
            // Committee sizes are tens of members.
            assert!(
                (20..=80).contains(&r.committee_size),
                "{}",
                r.committee_size
            );
        }
        // topK has the highest serving fraction of the corpus.
        let topk = rows.iter().find(|r| r.query == "topK").unwrap();
        for r in &rows {
            assert!(
                r.serving_fraction <= topk.serving_fraction + 1e-12,
                "{} serves more than topK",
                r.query
            );
        }
    }

    #[test]
    fn fig8_shape() {
        let rows = fig8_rows(N);
        let get = |name: &str| rows.iter().find(|r| r.query == name).unwrap();
        for r in &rows {
            // With 1,000 cores the wall-clock stays under ~20 hours.
            let hours_on_1000 = r.compute_core_secs / 3600.0 / 1000.0;
            assert!(hours_on_1000 < 20.0, "{}: {hours_on_1000} h", r.query);
            // Verification is a large share of aggregator compute.
            assert!(r.verification_core_secs <= r.compute_core_secs);
        }
        // EM queries forward more committee traffic than Laplace ones.
        assert!(
            get("topK").bytes_sent > get("cms").bytes_sent,
            "topK {} vs cms {}",
            get("topK").bytes_sent,
            get("cms").bytes_sent
        );
        // Total traffic is in the paper's TB-PB band for the big EMs.
        assert!(get("topK").bytes_sent > 1.0e12);
    }

    #[test]
    fn fig9_shape() {
        let rows = fig9_rows(1 << 26);
        for r in &rows {
            assert!(r.planner_secs < 60.0, "{}: {} s", r.query, r.planner_secs);
            assert!(r.candidates >= 1, "{}", r.query);
            assert!(r.prefixes >= r.candidates, "{}", r.query);
        }
        // More complex queries explore more prefixes: median (score prep
        // + mechanism) above cms (single Laplace).
        let get = |name: &str| rows.iter().find(|r| r.query == name).unwrap();
        assert!(get("median").prefixes > get("cms").prefixes);
    }

    #[test]
    fn fig10_shape() {
        let pts = fig10_points(1 << 12);
        let at = |log2_n: u32, limit: Option<f64>| {
            pts.iter()
                .find(|p| p.log2_n == log2_n && p.limit_core_hours == limit)
                .unwrap()
        };
        // Unlimited: aggregator time grows with N.
        assert!(at(30, None).agg_hours.unwrap() > 10.0 * at(20, None).agg_hours.unwrap());
        // Expected participant cost decreases with N (committee odds
        // shrink); max cost is roughly constant.
        assert!(at(18, None).exp_part_mins.unwrap() > at(30, None).exp_part_mins.unwrap());
        let max18 = at(18, None).max_part_mins.unwrap();
        let max30 = at(30, None).max_part_mins.unwrap();
        assert!((max30 / max18) < 2.0, "max cost should stay flat");
        // The A=1000 line stops at large N (cannot even verify ZKPs),
        // like the paper's red line stopping after 2^28.
        assert!(at(30, Some(1000.0)).agg_hours.is_none(), "A=1000 must stop");
        assert!(at(28, Some(1000.0)).agg_hours.is_some());
        // Before stopping, the binding limit forces outsourcing: the
        // limited plan pays more expected participant time than the
        // unlimited plan at the same N.
        let limited = at(28, Some(1000.0));
        let unlimited = at(28, None);
        assert!(limited.outsourced_sum, "A=1000 at 2^28 must outsource");
        assert!(limited.exp_part_mins.unwrap() >= unlimited.exp_part_mins.unwrap());
        // A=5000 outsources only at the very top of the range.
        assert!(at(30, Some(5000.0)).outsourced_sum);
        assert!(!at(24, Some(5000.0)).outsourced_sum);
    }

    #[test]
    fn fig11_shape() {
        let rows = fig11_rows(N);
        for r in &rows {
            // §7.4: "below 5% for all of the queries we tried", but
            // "certainly nontrivial".
            assert!(
                r.worst_role_mah < r.five_percent_mah,
                "{}: {} mAh vs 5% = {}",
                r.query,
                r.worst_role_mah,
                r.five_percent_mah
            );
            assert!(r.worst_role_mah > 1.0, "{}: {}", r.query, r.worst_role_mah);
        }
    }

    #[test]
    fn table1_shape() {
        let rows = table1_rows();
        let get = |name: &str| rows.iter().find(|r| r.approach == name).unwrap();
        // Only Arboretum is feasible for the zip-code query at 10^8.
        assert!(get("Arboretum").cost.feasible);
        assert!(!get("FHE").cost.feasible);
        assert!(!get("All-to-all MPC").cost.feasible);
        assert!(!get("Boehler [14]").cost.feasible);
        assert!(!get("Orchard [54]").cost.feasible);
        // Arboretum's worst-case participant traffic ≈ 1 GB (Table 1:
        // "~1 GB").
        let worst = get("Arboretum").cost.participant_bytes_worst;
        assert!((1.0e8..4.0e9).contains(&worst), "worst {worst}");
        // Typical participant traffic is MBs for FHE/Orchard/Arboretum.
        for name in ["FHE", "Orchard [54]", "Arboretum"] {
            let t = get(name).cost.participant_bytes_typical;
            assert!((1.0e4..2.0e7).contains(&t), "{name}: {t}");
        }
    }

    #[test]
    fn table2_shape() {
        let rows = table2_rows();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows.iter().filter(|r| r.is_new).count(), 6);
        for r in &rows {
            assert!(r.lines <= 2 * r.paper_lines + 4, "{}: {}", r.query, r.lines);
        }
    }
}
