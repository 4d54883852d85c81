//! Multi-query sessions: beacon evolution, budget persistence, churn.
//!
//! Arboretum is a long-lived system: the random beacon `B_i` advances
//! with every query (committee-contributed randomness, §5.2), the
//! privacy-budget balance carries forward in the query-authorization
//! certificate, and committees that lose more than `g·m` members have
//! their tasks reassigned to committee `i + 1 mod c` (§5.1). This module
//! orchestrates those cross-query concerns over the single-query
//! executor.

use arboretum_dp::budget::{BudgetError, BudgetLedger, PrivacyCost};
use arboretum_planner::logical::LogicalPlan;
use arboretum_planner::plan::Plan;

use crate::executor::{execute, Deployment, ExecError, ExecutionConfig, ExecutionReport};

/// A record of one completed query.
#[derive(Clone, Debug)]
pub struct QueryRecord {
    /// Sequence number.
    pub index: u64,
    /// Released outputs.
    pub outputs: Vec<i64>,
    /// Privacy cost charged.
    pub cost: PrivacyCost,
}

/// Session-level errors.
#[derive(Debug)]
pub enum SessionError {
    /// The budget cannot cover the query.
    Budget(BudgetError),
    /// The per-query executor failed.
    Exec(ExecError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Budget(e) => write!(f, "budget: {e}"),
            Self::Exec(e) => write!(f, "execution: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// A long-lived deployment session.
#[derive(Clone, Debug)]
pub struct Session {
    /// The deployment (registry, data, evolving beacon).
    pub deployment: Deployment,
    /// The shared privacy-budget ledger.
    pub ledger: BudgetLedger,
    /// Next query sequence number.
    pub query_index: u64,
    /// Completed queries.
    pub history: Vec<QueryRecord>,
}

impl Session {
    /// Opens a session with a total privacy budget.
    pub fn new(deployment: Deployment, total_budget: PrivacyCost) -> Self {
        Self {
            deployment,
            ledger: BudgetLedger::new(total_budget),
            query_index: 0,
            history: Vec::new(),
        }
    }

    /// Runs one planned query: checks the ledger, executes, charges the
    /// budget, advances the beacon, and records history.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] and leaves the session unchanged on
    /// failure.
    pub fn run_query(
        &mut self,
        plan: &Plan,
        logical: &LogicalPlan,
        base_cfg: &ExecutionConfig,
    ) -> Result<ExecutionReport, SessionError> {
        let cost = logical.certificate.cost;
        // Surface the precise ledger error without mutating it.
        self.ledger.check(cost).map_err(SessionError::Budget)?;
        let cfg = ExecutionConfig {
            budget: self.ledger.remaining(),
            seed: base_cfg.seed ^ self.query_index.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ..base_cfg.clone()
        };
        let (report, _) = execute(plan, logical, &self.deployment, &cfg, None, None, None)
            .map_err(SessionError::Exec)?;
        self.ledger.charge(cost).map_err(SessionError::Budget)?;
        // The beacon advances to the certificate's next block, so the
        // next query seats fresh committees.
        self.deployment.beacon = report.certificate.next_beacon;
        self.history.push(QueryRecord {
            index: self.query_index,
            outputs: report.outputs.clone(),
            cost,
        });
        self.query_index += 1;
        Ok(report)
    }
}

/// Churn handling (§5.1): given per-committee offline counts, returns the
/// committee that actually executes each committee's task — a committee
/// that lost more than `g·m` members hands its task to the next live
/// committee (mod `c`).
///
/// Returns `None` if *every* committee is dead (the query must abort).
pub fn reassign_for_churn(
    committee_sizes: &[usize],
    offline: &[usize],
    g: f64,
) -> Option<Vec<usize>> {
    let c = committee_sizes.len();
    assert_eq!(offline.len(), c, "offline counts must match committees");
    let alive: Vec<bool> = committee_sizes
        .iter()
        .zip(offline)
        .map(|(&m, &off)| (off as f64) <= g * m as f64)
        .collect();
    if !alive.iter().any(|&a| a) {
        return None;
    }
    Some(
        (0..c)
            .map(|i| {
                let mut j = i;
                while !alive[j] {
                    j = (j + 1) % c;
                }
                j
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use arboretum_lang::ast::DbSchema;
    use arboretum_lang::parser::parse;
    use arboretum_planner::logical::extract;
    use arboretum_planner::search::{plan as make_plan, PlannerConfig};

    fn planned(src: &str, categories: usize) -> (Plan, LogicalPlan) {
        let schema = DbSchema::one_hot(1 << 20, categories);
        let lp = extract(&parse(src).unwrap(), &schema, Default::default()).unwrap();
        let (p, _) = make_plan(&lp, &PlannerConfig::paper_defaults(1 << 20)).unwrap();
        (p, lp)
    }

    fn deployment() -> Deployment {
        let assignments: Vec<usize> = [0usize, 1, 1, 1, 2]
            .iter()
            .flat_map(|&c| std::iter::repeat_n(c, 20))
            .collect();
        Deployment::one_hot(&assignments, 3)
    }

    #[test]
    fn beacon_advances_and_budget_drains() {
        let (p, lp) = planned("aggr = sum(db); r = em(aggr, 3.0); output(r);", 3);
        let mut session = Session::new(
            deployment(),
            PrivacyCost {
                epsilon: 7.0,
                delta: 1e-6,
            },
        );
        let beacon0 = session.deployment.beacon;
        let r1 = session
            .run_query(&p, &lp, &ExecutionConfig::default())
            .unwrap();
        let beacon1 = session.deployment.beacon;
        assert_ne!(beacon0, beacon1, "beacon must advance");
        let r2 = session
            .run_query(&p, &lp, &ExecutionConfig::default())
            .unwrap();
        assert_ne!(beacon1, session.deployment.beacon);
        // Both queries answered; budget drained by 3.0 each.
        assert_eq!(r1.outputs, vec![1]);
        assert_eq!(r2.outputs, vec![1]);
        assert!((session.ledger.remaining().epsilon - 1.0).abs() < 1e-9);
        assert_eq!(session.history.len(), 2);
        // Third query exceeds the remaining 1.0.
        let err = session
            .run_query(&p, &lp, &ExecutionConfig::default())
            .unwrap_err();
        assert!(matches!(err, SessionError::Budget(_)));
        assert_eq!(session.history.len(), 2, "failed query leaves no record");
    }

    #[test]
    fn different_beacons_seat_different_committees() {
        use arboretum_crypto::sha256::sha256;
        use arboretum_sortition::select::select_committees;
        let d = deployment();
        let a = select_committees(&d.registry, &d.beacon, 1, 2, 5);
        let b = select_committees(&d.registry, &sha256(b"evolved"), 1, 2, 5);
        assert_ne!(a.committees, b.committees);
    }

    #[test]
    fn churn_reassignment() {
        // Committee 1 lost too many members (g = 0.15, m = 40 → more
        // than 6 offline is fatal); its task moves to committee 2.
        let sizes = [40usize, 40, 40];
        let plan = reassign_for_churn(&sizes, &[2, 10, 0], 0.15).unwrap();
        assert_eq!(plan, vec![0, 2, 2]);
        // Exactly at the threshold is still fine.
        let plan = reassign_for_churn(&sizes, &[6, 6, 6], 0.15).unwrap();
        assert_eq!(plan, vec![0, 1, 2]);
        // Wrap-around: the last committee fails over to the first.
        let plan = reassign_for_churn(&sizes, &[0, 0, 20], 0.15).unwrap();
        assert_eq!(plan, vec![0, 1, 0]);
        // All dead → abort.
        assert!(reassign_for_churn(&sizes, &[40, 40, 40], 0.15).is_none());
    }
}
