//! Plan enumeration with branch-and-bound (§4.4, §4.6).
//!
//! For each logical operator the planner generates every physical
//! instantiation × placement alternative (sum as aggregator loop or
//! participant sum trees of many fanouts; `em` as Gumbel-noise argmax
//! with many batch/fanout choices or exponentiate-and-sample; decryption
//! in many batch sizes; score prep in FHE or MPC), then walks the
//! cartesian product depth-first. Partial candidates are scored as they
//! grow and discarded as soon as they exceed an analyst limit or the
//! best known full candidate (the branch-and-bound heuristics of §4.4,
//! which §7.3 shows are the difference between milliseconds and
//! out-of-memory). A full candidate costs O(vignettes) plus one probe of
//! the search's committee-size memo: the §5.1 sizing — by far the most
//! expensive step — runs once per distinct committee total per search,
//! and only a candidate that beats the incumbent is copied into a
//! [`Plan`].

use std::collections::HashMap;

use arboretum_sortition::size::{self, SortitionParams};

use crate::cost::{CostModel, Goal, Limits, Metrics};
use crate::logical::{LogicalOp, LogicalPlan, MechanismKind};
use crate::plan::{
    assemble, score, vignette, vignette_metrics, Location, PhysOp, Plan, Scheme, Vignette,
};

/// Planner configuration.
#[derive(Clone, Debug)]
pub struct PlannerConfig {
    /// Population size `N`.
    pub n: u64,
    /// Optimization goal.
    pub goal: Goal,
    /// Analyst limits.
    pub limits: Limits,
    /// Sortition failure model (determines committee sizes).
    pub sortition: SortitionParams,
    /// The calibrated cost model.
    pub cost_model: CostModel,
    /// Branch-and-bound pruning (disable to reproduce the §7.3 ablation).
    pub use_heuristics: bool,
    /// Streaming deployments: when `Some(w)`, the aggregation stage
    /// additionally offers a [`PhysOp::WindowedIngest`] alternative
    /// that folds uploads over `w` checkpointed windows
    /// (`runtime::stream`). `None` (the default) leaves the plan space
    /// exactly as before.
    pub stream_windows: Option<u64>,
}

impl PlannerConfig {
    /// The paper's evaluation setting: `N = 10^9`, default limits, and
    /// minimize expected participant computation.
    pub fn paper_defaults(n: u64) -> Self {
        Self {
            n,
            goal: Goal::ParticipantExpectedSecs,
            limits: Limits::paper_defaults(),
            sortition: SortitionParams::default(),
            cost_model: CostModel::default(),
            use_heuristics: true,
            stream_windows: None,
        }
    }
}

/// Search statistics (Figure 9 / §7.3 reporting).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Plan prefixes examined.
    pub prefixes_considered: u64,
    /// Complete candidates scored.
    pub full_candidates: u64,
    /// Prefixes pruned by bound or limit.
    pub pruned: u64,
}

/// Planning errors.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// No candidate satisfies the analyst's limits, or the sortition
    /// parameters admit no committee size at all.
    Infeasible,
    /// The logical plan is empty.
    EmptyPlan,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Infeasible => write!(f, "no plan satisfies the given limits"),
            Self::EmptyPlan => write!(f, "logical plan is empty"),
        }
    }
}

impl std::error::Error for PlanError {}

/// The alternatives for one logical operator.
fn alternatives(op: &LogicalOp, lp: &LogicalPlan, cfg: &PlannerConfig) -> Vec<Vec<Vignette>> {
    let c = lp.max_categories().max(1);
    match op {
        LogicalOp::Sample { .. } => {
            // Bin selection rides along with input encryption: no extra
            // vignette variants.
            vec![vec![]]
        }
        LogicalOp::Aggregate { .. } => {
            let mut alts = vec![vec![vignette(
                PhysOp::AggregatorSum,
                Location::Aggregator,
                Scheme::Ahe,
            )]];
            for fanout in [4u64, 16, 64, 256, 1024] {
                alts.push(vec![vignette(
                    PhysOp::SumTree { fanout },
                    Location::Participants(lp.schema.participants / fanout.max(1)),
                    Scheme::Ahe,
                )]);
            }
            // Streaming sessions additionally offer windowed ingestion.
            // Appended last so the lexicographic tie-break (and thus
            // every existing plan signature) is untouched when the cap
            // on per-window aggregator time does not bind.
            if let Some(windows) = cfg.stream_windows {
                alts.push(vec![vignette(
                    PhysOp::WindowedIngest {
                        windows: windows.max(1),
                    },
                    Location::Aggregator,
                    Scheme::Ahe,
                )]);
            }
            alts
        }
        LogicalOp::ScorePrep {
            ops_per_category,
            needs_comparisons,
        } => {
            let mut alts = vec![vec![vignette(
                PhysOp::ScorePrepFhe {
                    ops_per_category: *ops_per_category,
                    cmps_per_category: u64::from(*needs_comparisons),
                },
                Location::Aggregator,
                Scheme::Fhe,
            )]];
            for chunk in [16u64, 64, 256, 1024] {
                let op = PhysOp::ScorePrepMpc {
                    ops_per_category: *ops_per_category,
                    chunk,
                };
                let count = op.committees(c);
                alts.push(vec![vignette(
                    op,
                    Location::Committees(count),
                    Scheme::Shares,
                )]);
            }
            alts
        }
        LogicalOp::Mechanism {
            kind,
            categories,
            k,
        } => mechanism_alternatives(*kind, (*categories).max(1), *k),
        LogicalOp::PostProcess { ops } => vec![vec![vignette(
            PhysOp::PostProcess { ops: *ops },
            Location::Aggregator,
            Scheme::Clear,
        )]],
        LogicalOp::Output => vec![vec![vignette(
            PhysOp::OutputRelease,
            Location::Committees(1),
            Scheme::Shares,
        )]],
    }
}

fn mechanism_alternatives(kind: MechanismKind, c: u64, k: u64) -> Vec<Vec<Vignette>> {
    let mut alts = Vec::new();
    let dec_batches = [32u64, 100, 512];
    match kind {
        MechanismKind::Laplace => {
            for &db in &dec_batches {
                for nb in [1u64, 4, 16, 64] {
                    let dec = PhysOp::DecryptShares { batch: db };
                    let noise = PhysOp::NoiseGen {
                        gumbel: false,
                        batch: nb,
                    };
                    let (dc, nc) = (dec.committees(c), noise.committees(c));
                    alts.push(vec![
                        vignette(dec, Location::Committees(dc), Scheme::Shares),
                        vignette(noise, Location::Committees(nc), Scheme::Shares),
                    ]);
                }
            }
        }
        MechanismKind::EmSelect | MechanismKind::EmTopK | MechanismKind::EmGap => {
            let passes = match kind {
                MechanismKind::EmTopK => k.max(1),
                MechanismKind::EmGap => 2,
                _ => 1,
            };
            // Gumbel-noise instantiation (Figure 4 right / Figure 5).
            for &db in &dec_batches {
                for nb in [1u64, 4, 16, 64] {
                    for fanout in [2u64, 3, 5, 9, 17, 33] {
                        let dec = PhysOp::DecryptShares { batch: db };
                        let noise = PhysOp::NoiseGen {
                            gumbel: true,
                            batch: nb,
                        };
                        let amax = PhysOp::ArgMaxTree { fanout, passes };
                        let (dc, nc, ac) =
                            (dec.committees(c), noise.committees(c), amax.committees(c));
                        alts.push(vec![
                            vignette(dec, Location::Committees(dc), Scheme::Shares),
                            vignette(noise, Location::Committees(nc), Scheme::Shares),
                            vignette(amax, Location::Committees(ac), Scheme::Shares),
                        ]);
                    }
                }
            }
            // Exponentiate-and-sample instantiation (Figure 4 left); a
            // top-k release repeats the scan per winner.
            alts.push(
                (0..passes)
                    .map(|_| vignette(PhysOp::ExpSample, Location::Aggregator, Scheme::Fhe))
                    .collect(),
            );
        }
    }
    alts
}

/// One search's committee sizes: total committee count → minimum
/// committee size `m` (§5.1), `None` when no size meets the failure
/// budget. `size_of` runs once per distinct total; this memo is the only
/// place the planner sizes a committee.
struct SizeMemo<F> {
    size_of: F,
    sizes: HashMap<u64, Option<u64>>,
}

impl<F: FnMut(u64) -> Option<u64>> SizeMemo<F> {
    fn new(size_of: F) -> Self {
        Self {
            size_of,
            sizes: HashMap::new(),
        }
    }

    fn size(&mut self, total_committees: u64) -> Option<u64> {
        *self
            .sizes
            .entry(total_committees)
            .or_insert_with(|| (self.size_of)(total_committees))
    }
}

/// The state one depth-first walk carries.
struct Search<'a, F> {
    cfg: &'a PlannerConfig,
    categories: u64,
    stats: PlanStats,
    best: Option<Plan>,
    /// Lower-bound committee size used for optimistic partial scoring.
    m_lb: u64,
    sizes: SizeMemo<F>,
}

impl<F: FnMut(u64) -> Option<u64>> Search<'_, F> {
    /// Extends the prefix `acc` (scored optimistically as `partial`)
    /// with every combination of the `remaining` operators' alternatives.
    fn dfs(&mut self, remaining: &[Vec<Vec<Vignette>>], acc: &mut Vec<Vignette>, partial: Metrics) {
        let cfg = self.cfg;
        self.stats.prefixes_considered += 1;
        if cfg.use_heuristics {
            if cfg.limits.violated_by(&partial) {
                self.stats.pruned += 1;
                return;
            }
            if let Some(b) = self.best.as_ref() {
                if partial.get(cfg.goal) >= b.metrics.get(cfg.goal) {
                    self.stats.pruned += 1;
                    return;
                }
            }
        }
        let Some((alts, rest)) = remaining.split_first() else {
            self.full_candidate(acc);
            return;
        };
        for alt in alts {
            // Added onto `partial` one vignette at a time: f64 sums depend
            // on their order, and ties between plans break on the bits.
            let next = alt.iter().fold(partial, |sum, v| {
                sum.combine(vignette_metrics(
                    v,
                    &cfg.cost_model,
                    cfg.n,
                    self.categories,
                    self.m_lb,
                ))
            });
            let len_before = acc.len();
            acc.extend_from_slice(alt);
            self.dfs(rest, acc, next);
            acc.truncate(len_before);
        }
    }

    /// Scores a full candidate at its exact committee size and keeps it
    /// if it fits the limits and beats the incumbent.
    fn full_candidate(&mut self, acc: &[Vignette]) {
        let cfg = self.cfg;
        self.stats.full_candidates += 1;
        // Every emitted candidate must satisfy the §4.5 confidentiality
        // invariants.
        debug_assert_eq!(crate::encryption::validate(acc), Ok(()));
        let total_committees: u64 = acc.iter().map(|v| v.op.committees(self.categories)).sum();
        let Some(m) = self.sizes.size(total_committees.max(1)) else {
            return;
        };
        let metrics = score(acc, &cfg.cost_model, cfg.n, self.categories, m);
        if cfg.limits.violated_by(&metrics) {
            return;
        }
        let better = self
            .best
            .as_ref()
            .is_none_or(|b| metrics.get(cfg.goal) < b.metrics.get(cfg.goal));
        if better {
            self.best = Some(assemble(
                acc.to_vec(),
                &cfg.cost_model,
                cfg.n,
                self.categories,
                m,
            ));
        }
    }
}

/// Runs the planner on a logical plan: a serial depth-first walk of
/// the alternative space in lexicographic order. Among candidates of
/// equal cost the first one visited wins, so the chosen plan and the
/// search statistics are a pure function of `(lp, cfg)`.
///
/// # Errors
///
/// Returns [`PlanError::Infeasible`] when no candidate fits the limits,
/// or when `cfg.sortition` admits no committee size (before any
/// candidate is enumerated).
///
/// # Examples
///
/// ```
/// use arboretum_lang::ast::DbSchema;
/// use arboretum_lang::parser::parse;
/// use arboretum_planner::logical::extract;
/// use arboretum_planner::search::{plan, PlannerConfig};
///
/// let schema = DbSchema::one_hot(1 << 20, 16);
/// let program = parse("aggr = sum(db); r = em(aggr, 0.5); output(r);").unwrap();
/// let logical = extract(&program, &schema, Default::default()).unwrap();
/// let (best, stats) = plan(&logical, &PlannerConfig::paper_defaults(1 << 20)).unwrap();
/// assert!(best.total_committees >= 1);
/// assert!(stats.full_candidates >= 1);
/// ```
pub fn plan(lp: &LogicalPlan, cfg: &PlannerConfig) -> Result<(Plan, PlanStats), PlanError> {
    search(lp, cfg, |total| {
        size::min_committee_size(total, &cfg.sortition)
    })
}

/// [`plan`] with the committee sizing passed in, so tests can count how
/// often a search asks for one.
fn search(
    lp: &LogicalPlan,
    cfg: &PlannerConfig,
    size_of: impl FnMut(u64) -> Option<u64>,
) -> Result<(Plan, PlanStats), PlanError> {
    if lp.ops.is_empty() {
        return Err(PlanError::EmptyPlan);
    }
    let mut sizes = SizeMemo::new(size_of);
    // Unsatisfiable sortition parameters end the search before it starts.
    let m_lb = sizes.size(1).ok_or(PlanError::Infeasible)?;
    let categories = lp.max_categories().max(1);
    // Fixed prologue: key generation, input encryption, verification.
    let mut acc = vec![
        vignette(PhysOp::KeyGen, Location::Committees(1), Scheme::Shares),
        vignette(
            PhysOp::EncryptInputs,
            Location::Participants(cfg.n),
            if lp.needs_comparisons() {
                Scheme::Fhe
            } else {
                Scheme::Ahe
            },
        ),
        vignette(PhysOp::VerifyInputs, Location::Aggregator, Scheme::Ahe),
    ];
    let choices: Vec<Vec<Vec<Vignette>>> =
        lp.ops.iter().map(|op| alternatives(op, lp, cfg)).collect();
    // Score the prologue once (shared by all candidates).
    let base = score(&acc, &cfg.cost_model, cfg.n, categories, m_lb);

    let mut walk = Search {
        cfg,
        categories,
        stats: PlanStats::default(),
        best: None,
        m_lb,
        sizes,
    };
    walk.dfs(&choices, &mut acc, base);
    walk.best
        .ok_or(PlanError::Infeasible)
        .map(|p| (p, walk.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::extract;
    use arboretum_lang::ast::DbSchema;
    use arboretum_lang::parser::parse;
    use arboretum_lang::privacy::CertifyConfig;
    use arboretum_queries::corpus::all_queries;
    use proptest::prelude::*;

    fn logical(src: &str, categories: usize) -> LogicalPlan {
        let schema = DbSchema::one_hot(1 << 30, categories);
        extract(&parse(src).unwrap(), &schema, CertifyConfig::default()).unwrap()
    }

    fn top1(categories: usize) -> LogicalPlan {
        logical("aggr = sum(db); r = em(aggr, 0.1); output(r);", categories)
    }

    #[test]
    fn plans_top1_within_paper_limits() {
        let lp = top1(1 << 15);
        let cfg = PlannerConfig::paper_defaults(1 << 30);
        let (plan, stats) = plan(&lp, &cfg).unwrap();
        assert!(stats.full_candidates >= 1);
        assert!(stats.prefixes_considered > stats.full_candidates);
        // Shape checks against §7.2: expected participant cost is low in
        // absolute terms (under ~2 minutes of compute, a few MB sent).
        let m = &plan.metrics;
        assert!(m.part_exp_secs < 120.0, "expected secs {}", m.part_exp_secs);
        assert!(
            m.part_exp_bytes < 10.0e6,
            "expected bytes {}",
            m.part_exp_bytes
        );
        assert!(m.part_max_secs < 20.0 * 60.0);
        assert!(m.agg_secs < 20_000.0 * 3600.0);
        // The committee fraction should be well under 1%.
        assert!(plan.committee_fraction() < 0.01);
    }

    #[test]
    fn big_em_prefers_gumbel_over_exponentiate() {
        // At 2^15 categories, ExpSample's sequential committee scan and
        // the aggregator-side FHE exponentiations are both far over
        // budget; the Gumbel instantiation must win.
        let lp = top1(1 << 15);
        let cfg = PlannerConfig::paper_defaults(1 << 30);
        let (plan, _) = plan(&lp, &cfg).unwrap();
        assert!(
            plan.vignettes
                .iter()
                .any(|v| matches!(v.op, PhysOp::ArgMaxTree { .. })),
            "expected a Gumbel argmax plan, got {:?}",
            plan.vignettes
        );
    }

    #[test]
    fn laplace_query_needs_no_argmax_committees() {
        let lp = logical("aggr = sum(db); r = laplace(aggr, 1, 0.1); output(r);", 1);
        let cfg = PlannerConfig::paper_defaults(1 << 30);
        let (plan, _) = plan(&lp, &cfg).unwrap();
        assert!(plan
            .vignettes
            .iter()
            .all(|v| !matches!(v.op, PhysOp::ArgMaxTree { .. })));
        // A single-category Laplace query is Honeycrisp-shaped: very few
        // committees.
        assert!(plan.total_committees <= 4, "{}", plan.total_committees);
    }

    #[test]
    fn laplace_is_cheaper_than_em() {
        let cfg = PlannerConfig::paper_defaults(1 << 30);
        let em = plan(&top1(1 << 15), &cfg).unwrap().0;
        let lap = plan(
            &logical(
                "aggr = sum(db); r = laplace(aggr, 1, 0.1); output(r);",
                1 << 15,
            ),
            &cfg,
        )
        .unwrap()
        .0;
        assert!(
            lap.metrics.part_exp_secs < em.metrics.part_exp_secs,
            "laplace {} vs em {}",
            lap.metrics.part_exp_secs,
            em.metrics.part_exp_secs
        );
    }

    #[test]
    fn aggregator_limit_forces_outsourcing() {
        // Figure 10: once the aggregator's compute limit binds, the sum
        // moves to participant sum trees and participant cost rises.
        let lp = top1(1 << 15);
        let n = 1u64 << 30;
        let mut free = PlannerConfig::paper_defaults(n);
        free.limits.agg_secs = None;
        let (p_free, _) = plan(&lp, &free).unwrap();

        let mut tight = PlannerConfig::paper_defaults(n);
        // Leave room for the mandatory ZKP verification but not for the
        // aggregator-side summation, so the planner must outsource it.
        let verify_secs = n as f64 * tight.cost_model.zkp_verify_secs;
        let sum_secs =
            n as f64 * (tight.cost_model.agg_ingest_secs + tight.cost_model.bgv_add_secs);
        tight.limits.agg_secs = Some(verify_secs + 0.5 * sum_secs);
        let (p_tight, _) = plan(&lp, &tight).unwrap();

        let free_uses_agg_sum = p_free
            .vignettes
            .iter()
            .any(|v| matches!(v.op, PhysOp::AggregatorSum));
        let tight_uses_tree = p_tight
            .vignettes
            .iter()
            .any(|v| matches!(v.op, PhysOp::SumTree { .. }));
        assert!(
            free_uses_agg_sum,
            "unlimited plan should sum on the aggregator"
        );
        assert!(tight_uses_tree, "limited plan must outsource the sum");
        assert!(
            p_tight.metrics.part_exp_secs >= p_free.metrics.part_exp_secs,
            "outsourcing shifts cost to participants"
        );
    }

    #[test]
    fn window_limit_forces_windowed_ingest() {
        // A per-window aggregator cap below the one-shot sum's cost
        // rules out `AggregatorSum`; with windowed ingestion offered,
        // the planner picks it over the participant sum trees (the goal
        // is expected participant seconds, and windowing costs
        // participants nothing).
        let lp = top1(1 << 15);
        let n = 1u64 << 30;
        let mut cfg = PlannerConfig::paper_defaults(n);
        cfg.stream_windows = Some(8);
        // Offering the alternative without a binding cap changes
        // nothing: the one-shot sum still wins the tie on the goal.
        let reference = plan(&lp, &PlannerConfig::paper_defaults(n)).unwrap().0;
        let offered = plan(&lp, &cfg).unwrap().0;
        assert_eq!(offered.signature(), reference.signature());

        let sum_secs = n as f64 * (cfg.cost_model.agg_ingest_secs + cfg.cost_model.bgv_add_secs);
        cfg.limits.window_agg_secs = Some(0.5 * sum_secs);
        let (p, _) = plan(&lp, &cfg).unwrap();
        assert!(
            p.vignettes
                .iter()
                .any(|v| matches!(v.op, PhysOp::WindowedIngest { windows: 8 })),
            "capped plan must ingest in windows, got {:?}",
            p.vignettes
        );
        assert!(p
            .vignettes
            .iter()
            .all(|v| !matches!(v.op, PhysOp::AggregatorSum | PhysOp::SumTree { .. })));
        // Without the windowed alternative the same cap is infeasible
        // for the aggregator row and must fall back to sum trees.
        let mut no_stream = cfg.clone();
        no_stream.stream_windows = None;
        let (p_tree, _) = plan(&lp, &no_stream).unwrap();
        assert!(p_tree
            .vignettes
            .iter()
            .any(|v| matches!(v.op, PhysOp::SumTree { .. })));
        assert!(
            p.metrics.part_exp_secs <= p_tree.metrics.part_exp_secs,
            "windowing keeps the sum off the participants"
        );
    }

    #[test]
    fn infeasible_limits_detected() {
        let lp = top1(1 << 15);
        let mut cfg = PlannerConfig::paper_defaults(1 << 30);
        cfg.limits.part_max_secs = Some(0.001);
        assert_eq!(plan(&lp, &cfg).unwrap_err(), PlanError::Infeasible);
    }

    #[test]
    fn heuristics_reduce_explored_prefixes() {
        let lp = top1(1 << 12);
        let mut with = PlannerConfig::paper_defaults(1 << 30);
        with.use_heuristics = true;
        let mut without = with.clone();
        without.use_heuristics = false;
        let (_, s_with) = plan(&lp, &with).unwrap();
        let (p_without, s_without) = plan(&lp, &without).unwrap();
        let (p_with, _) = plan(&lp, &with).unwrap();
        assert!(
            s_without.full_candidates > s_with.full_candidates,
            "pruning must cut candidates: {} vs {}",
            s_without.full_candidates,
            s_with.full_candidates
        );
        // Both find plans of equal quality (pruning is exact).
        let a = p_with.metrics.get(with.goal);
        let b = p_without.metrics.get(with.goal);
        assert!((a - b).abs() < 1e-9 * a.max(1.0), "{a} vs {b}");
    }

    #[test]
    fn all_emitted_plans_validate_encryption() {
        let cfg = PlannerConfig::paper_defaults(1 << 30);
        let (p, _) = plan(&top1(1 << 12), &cfg).unwrap();
        assert!(crate::encryption::validate(&p.vignettes).is_ok());
    }

    #[test]
    fn goal_changes_chosen_plan() {
        let lp = top1(1 << 15);
        let n = 1u64 << 26;
        let mut cfg_a = PlannerConfig::paper_defaults(n);
        cfg_a.goal = Goal::AggSecs;
        cfg_a.limits = Limits::default();
        let mut cfg_b = cfg_a.clone();
        cfg_b.goal = Goal::AggBytes;
        let (pa, _) = plan(&lp, &cfg_a).unwrap();
        let (pb, _) = plan(&lp, &cfg_b).unwrap();
        assert!(pa.metrics.agg_secs <= pb.metrics.agg_secs);
        assert!(pb.metrics.agg_bytes <= pa.metrics.agg_bytes);
    }

    #[test]
    fn topk_seats_more_committees_than_top1() {
        let cfg = PlannerConfig::paper_defaults(1 << 30);
        let p1 = plan(&top1(1 << 15), &cfg).unwrap().0;
        let pk = plan(
            &logical(
                "aggr = sum(db); t = emTopK(aggr, 5, 0.1); output(t);",
                1 << 15,
            ),
            &cfg,
        )
        .unwrap()
        .0;
        assert!(
            pk.total_committees > p1.total_committees,
            "topK {} vs top1 {}",
            pk.total_committees,
            p1.total_committees
        );
    }

    /// Runs `search` on `lp` with the real sizing behind a recorder;
    /// returns the stats and every total the search asked to have sized.
    fn recorded_search(lp: &LogicalPlan, cfg: &PlannerConfig) -> (PlanStats, Vec<u64>) {
        let mut asked = Vec::new();
        let (_, stats) = search(lp, cfg, |total| {
            asked.push(total);
            size::min_committee_size(total, &cfg.sortition)
        })
        .unwrap();
        (stats, asked)
    }

    #[test]
    fn sizing_runs_once_per_distinct_committee_total() {
        let n = 1u64 << 30;
        let cfg = PlannerConfig::paper_defaults(n);
        let (mut candidates, mut sizings) = (0, 0);
        for q in all_queries(n) {
            let lp = extract(&q.program(), &q.schema, q.certify).unwrap();
            let (stats, asked) = recorded_search(&lp, &cfg);
            // The lower bound's total first (no plan seats one committee:
            // key generation and the release each take one), then every
            // candidate total once.
            assert_eq!(asked[0], 1, "{}", q.name);
            let distinct: std::collections::HashSet<u64> = asked.iter().copied().collect();
            assert_eq!(distinct.len(), asked.len(), "{}", q.name);
            let totals = asked.len() - 1;
            // The two largest searches of the corpus.
            match q.name {
                "auction" => assert_eq!((stats.full_candidates, totals), (1_619, 243)),
                "median" => assert_eq!((stats.full_candidates, totals), (1_618, 243)),
                _ => {}
            }
            candidates += stats.full_candidates;
            sizings += totals;
        }
        assert_eq!((candidates, sizings), (4_232, 645));
    }

    #[test]
    fn unpruned_walk_sizes_each_total_once_too() {
        let mut cfg = PlannerConfig::paper_defaults(1 << 30);
        cfg.use_heuristics = false;
        let (stats, asked) = recorded_search(&top1(1 << 12), &cfg);
        let distinct: std::collections::HashSet<u64> = asked.iter().copied().collect();
        assert_eq!(distinct.len(), asked.len());
        assert!(stats.full_candidates > 4 * asked.len() as u64);
    }

    #[test]
    fn infeasible_sortition_is_refused_before_the_walk() {
        let lp = top1(1 << 15);
        for f in [0.45, 0.6, f64::NAN, -0.03] {
            let mut cfg = PlannerConfig::paper_defaults(1 << 30);
            cfg.sortition.f = f;
            assert_eq!(plan(&lp, &cfg).unwrap_err(), PlanError::Infeasible, "{f}");
        }
        // One question (the lower bound's), then no walk.
        let cfg = PlannerConfig::paper_defaults(1 << 30);
        let mut asked = Vec::new();
        let refused = search(&lp, &cfg, |total| {
            asked.push(total);
            None
        });
        assert_eq!(refused.unwrap_err(), PlanError::Infeasible);
        assert_eq!(asked, [1]);
    }

    #[test]
    fn candidates_without_a_committee_size_are_skipped() {
        // Unlimited, the cheapest worst-case member seats tens of
        // thousands of committees; a sizing that gives out beyond 3,000
        // leaves only the plans that seat fewer.
        let lp = top1(1 << 15);
        let mut cfg = PlannerConfig::paper_defaults(1 << 30);
        cfg.goal = Goal::ParticipantMaxSecs;
        cfg.limits = Limits::default();
        let (free, _) = plan(&lp, &cfg).unwrap();
        assert!(free.total_committees > 3_000);
        let (capped, stats) = search(&lp, &cfg, |total| {
            (total <= 3_000)
                .then(|| size::min_committee_size(total, &cfg.sortition))
                .flatten()
        })
        .unwrap();
        assert!(capped.total_committees <= 3_000);
        assert!(stats.full_candidates >= 1);
        assert!(capped.metrics.get(cfg.goal) >= free.metrics.get(cfg.goal));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn memo_answers_equal_direct_sizing(
            c in 1u64..=(1 << 40),
            f in 0.005f64..0.1,
            g in 0.05f64..0.3,
        ) {
            let params = SortitionParams { f, g, ..SortitionParams::default() };
            let mut fills = 0;
            let mut memo = SizeMemo::new(|total| {
                fills += 1;
                size::min_committee_size(total, &params)
            });
            let want = size::min_committee_size(c, &params);
            prop_assert!(want.is_some());
            prop_assert_eq!(memo.size(c), want);
            prop_assert_eq!(memo.size(c), want);
            prop_assert_eq!(memo.size(1), size::min_committee_size(1, &params));
            drop(memo);
            prop_assert_eq!(fills, if c == 1 { 1 } else { 2 });
        }
    }
}
