//! Committee execution with fault injection and churn failover.
//!
//! Runs an MPC protocol on one committee at a time — one semi-honest
//! [`MpcEngine`] acting as all `m` members, on an evented fabric that
//! carries that committee's [`FaultPlan`] — and composes transport-level
//! failures with churn reassignment (§5.1). A crash, a partition or a
//! lost frame surfaces as an [`MpcError`] from the engine operation that
//! needed the party, never as a hang: the act-as-anyone fabric answers a
//! receive on an empty link with an immediate timeout. A run that errors
//! kills its committee, which reports all `m` members offline to
//! [`reassign_for_churn`]; the task moves to the next live committee and
//! the protocol reruns there. When every committee is dead, execution
//! returns a typed error.

use arboretum_field::FGold;
use arboretum_mpc::{MpcEngine, MpcError};
use arboretum_net::{EventedConfig, FaultPlan, TransportMetrics};

/// Committee size `m`.
const M: usize = 5;
/// Corruption threshold `t` (honest majority: `2t < m`).
const T: usize = 2;
/// Churn tolerance `g`: a committee stays alive while at most `g·m`
/// members are offline.
const G: f64 = 0.2;
/// Seed of every committee's engine RNG, mixed with the committee index.
const SEED: u64 = 7;

/// Configuration for a failover-capable committee execution.
#[derive(Clone, Debug)]
pub struct NetExecConfig {
    /// Number of committees available for failover.
    pub committees: usize,
    /// Fault schedule per committee index; committees beyond the end of
    /// the vector (or with `None`) run fault-free.
    pub faults: Vec<Option<FaultPlan>>,
}

impl Default for NetExecConfig {
    fn default() -> Self {
        Self {
            committees: 2,
            faults: Vec::new(),
        }
    }
}

/// Why a committee execution could not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub enum NetExecError {
    /// Every committee exceeded its churn tolerance; the query aborts
    /// (the `None` arm of [`reassign_for_churn`]).
    AllCommitteesDead {
        /// Committees attempted before giving up.
        attempts: usize,
    },
}

impl std::fmt::Display for NetExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::AllCommitteesDead { attempts } => {
                write!(f, "all committees dead after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for NetExecError {}

/// The outcome of a committee execution.
#[derive(Debug, Clone)]
pub struct NetExecReport {
    /// The opened protocol outputs.
    pub outputs: Vec<FGold>,
    /// The committee that completed the task.
    pub committee: usize,
    /// Committees that failed before it, with the error that killed
    /// each.
    pub failures: Vec<(usize, String)>,
    /// Transport metrics of the successful committee's fabric.
    pub metrics: TransportMetrics,
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

/// Runs `protocol` on one committee's engine, failing over across
/// committees on churn.
///
/// Committee `i`'s engine runs on an evented fabric with `cfg.faults[i]`
/// injected. A protocol run that returns its outputs completes the task;
/// one that returns an error takes the whole committee offline, and
/// [`reassign_for_churn`] hands the task to the next live committee.
///
/// # Errors
///
/// [`NetExecError::AllCommitteesDead`] when reassignment reports no live
/// committee (at once if `cfg.committees` is zero).
pub fn run_with_failover(
    cfg: &NetExecConfig,
    protocol: impl Fn(&mut MpcEngine) -> Result<Vec<FGold>, MpcError>,
) -> Result<NetExecReport, NetExecError> {
    let sizes = vec![M; cfg.committees];
    let mut offline = vec![0usize; cfg.committees];
    let mut failures: Vec<(usize, String)> = Vec::new();
    loop {
        let Some(assignment) = reassign_for_churn(&sizes, &offline, G) else {
            return Err(NetExecError::AllCommitteesDead {
                attempts: failures.len(),
            });
        };
        // The task belongs to committee 0; follow its reassignment.
        let committee = assignment[0];
        let fabric = EventedConfig {
            faults: cfg.faults.get(committee).cloned().flatten(),
            ..EventedConfig::default()
        };
        let mut engine = MpcEngine::new_evented(M, T, false, SEED ^ committee as u64, &fabric);
        match protocol(&mut engine) {
            Ok(outputs) => {
                return Ok(NetExecReport {
                    outputs,
                    committee,
                    failures,
                    metrics: engine.transport_metrics(),
                })
            }
            Err(e) => {
                offline[committee] = M;
                failures.push((committee, e.to_string()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_protocol(e: &mut MpcEngine) -> Result<Vec<FGold>, MpcError> {
        let a = e.input(0, FGold::new(20))?;
        let b = e.input(1, FGold::new(22))?;
        let s = e.add(&a, &b);
        e.open_batch(&[&s])
    }

    #[test]
    fn fault_free_committee_completes_directly() {
        let cfg = NetExecConfig::default();
        let report = run_with_failover(&cfg, sum_protocol).unwrap();
        assert_eq!(report.outputs, vec![FGold::new(42)]);
        assert_eq!(report.committee, 0);
        assert!(report.failures.is_empty());
        assert!(report.metrics.payload_bytes_total > 0);
    }

    #[test]
    fn single_committee_crash_is_a_typed_error() {
        let cfg = NetExecConfig {
            committees: 1,
            faults: vec![Some(FaultPlan::crash(2, 0))],
        };
        let err = run_with_failover(&cfg, sum_protocol).unwrap_err();
        assert_eq!(err, NetExecError::AllCommitteesDead { attempts: 1 });
        let none = NetExecConfig {
            committees: 0,
            faults: Vec::new(),
        };
        let err = run_with_failover(&none, sum_protocol).unwrap_err();
        assert_eq!(err, NetExecError::AllCommitteesDead { attempts: 0 });
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
