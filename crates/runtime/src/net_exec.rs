//! Committee execution with fault injection and churn failover.
//!
//! Runs an MPC protocol on a *real* concurrent committee — one OS thread
//! per member, each blocking on its own `arboretum-net` evented
//! endpoint, with an optional [`FaultPlan`] injected per committee — and
//! composes transport-level failures with churn reassignment (§5.1):
//! when a committee loses more than `g·m` members
//! (crashes, partitions, losses all surface as per-party protocol
//! errors, never hangs), [`reassign_for_churn`] hands its task to the
//! next live committee, and the protocol reruns there. If every
//! committee is dead, or reassignment cycles back to a committee that
//! already failed, execution returns a typed error in bounded time —
//! receive timeouts guarantee no run blocks forever, and because they
//! are resolved on the fabric's virtual clock, a dead committee costs no
//! wall-clock wait either.

use std::time::Duration;

use arboretum_field::FGold;
use arboretum_mpc::{shared_dealer, LatencyModel, MpcError, Party};
use arboretum_net::{evented_fabric, EventedConfig, EventedEndpoint, FaultPlan, TransportMetrics};

/// One committee member: a per-thread party on its own evented
/// endpoint.
pub type NetParty = Party<EventedEndpoint>;

/// Configuration for a failover-capable committee execution.
#[derive(Clone, Debug)]
pub struct NetExecConfig {
    /// Committee size `m`.
    pub m: usize,
    /// Corruption threshold `t` (honest majority: `2t < m`).
    pub t: usize,
    /// Number of committees available for failover.
    pub committees: usize,
    /// Churn tolerance `g`: a committee stays alive while at most `g·m`
    /// members are offline.
    pub g: f64,
    /// Per-receive timeout on the fabric's virtual clock (the no-hang
    /// guarantee).
    pub timeout: Duration,
    /// Optional link-latency model applied to every committee's fabric.
    pub latency: Option<LatencyModel>,
    /// Fault schedule per committee index; committees beyond the end of
    /// the vector (or with `None`) run fault-free.
    pub faults: Vec<Option<FaultPlan>>,
    /// Seed for the preprocessing dealers (one per committee attempt).
    pub dealer_seed: u64,
    /// Seed for the per-party protocol RNGs.
    pub party_seed: u64,
    /// Optional passive frame observer attached to every committee's
    /// fabric. Observation is read-only and never changes outputs,
    /// metrics, or timing decisions; the sink is invoked from every
    /// party's OS thread in scheduling-dependent order, so sinks must
    /// be order-insensitive.
    pub sink: Option<arboretum_net::SharedSink>,
}

impl Default for NetExecConfig {
    fn default() -> Self {
        Self {
            m: 5,
            t: 2,
            committees: 2,
            g: 0.2,
            timeout: Duration::from_millis(500),
            latency: None,
            faults: Vec::new(),
            dealer_seed: 7,
            party_seed: 99,
            sink: None,
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
    /// Reassignment pointed back at a committee that already failed;
    /// carries the last protocol error observed.
    Exhausted {
        /// Committees attempted before giving up.
        attempts: usize,
        /// The last per-party error message.
        last_error: String,
    },
    /// The surviving parties of an alive committee disagreed on the
    /// opened outputs.
    OutputMismatch,
}

impl std::fmt::Display for NetExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::AllCommitteesDead { attempts } => {
                write!(f, "all committees dead after {attempts} attempts")
            }
            Self::Exhausted {
                attempts,
                last_error,
            } => write!(
                f,
                "failover exhausted after {attempts} attempts: {last_error}"
            ),
            Self::OutputMismatch => write!(f, "parties opened different outputs"),
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
    /// Committees that failed before it, with one representative error
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

/// Runs `protocol` on a committee of per-thread parties, failing over
/// across committees on churn.
///
/// The protocol closure executes once per committee member, each on its
/// own OS thread with its own [`NetParty`]; it must be deterministic in
/// its communication sequence (every implementation of
/// `arboretum_mpc::MpcOps` protocols is). Committee `i`'s fabric gets
/// `cfg.faults[i]` injected. A committee completes when no more than
/// `g·m` members error *and* at least one member returns outputs (all
/// returning members must agree). Otherwise its offline count feeds
/// [`reassign_for_churn`] and the task moves to the next live committee.
///
/// # Errors
///
/// [`NetExecError::AllCommitteesDead`] when reassignment reports no
/// live committee, [`NetExecError::Exhausted`] when it cycles back to a
/// committee that already failed, [`NetExecError::OutputMismatch`] when
/// survivors disagree. Never hangs: every receive is bounded by
/// `cfg.timeout`.
///
/// # Panics
///
/// Panics if `cfg.committees` is zero or a party thread panics.
pub fn run_with_failover<F>(cfg: &NetExecConfig, protocol: F) -> Result<NetExecReport, NetExecError>
where
    F: Fn(&mut NetParty) -> Result<Vec<FGold>, MpcError> + Send + Sync,
{
    assert!(cfg.committees > 0, "need at least one committee");
    let sizes = vec![cfg.m; cfg.committees];
    let mut offline = vec![0usize; cfg.committees];
    let mut tried = vec![false; cfg.committees];
    let mut failures: Vec<(usize, String)> = Vec::new();
    let mut current = 0usize;
    let mut attempts = 0usize;
    loop {
        tried[current] = true;
        attempts += 1;
        let fault = cfg
            .faults
            .get(current)
            .cloned()
            .flatten()
            .unwrap_or_default();
        let (results, metrics) = run_committee(cfg, current, fault, &protocol);
        let mut oks: Vec<Vec<FGold>> = Vec::new();
        let mut first_err: Option<String> = None;
        let mut errs = 0usize;
        for r in results {
            match r {
                Ok(out) => oks.push(out),
                Err(e) => {
                    errs += 1;
                    first_err.get_or_insert_with(|| e.to_string());
                }
            }
        }
        let alive = (errs as f64) <= cfg.g * cfg.m as f64;
        if alive && !oks.is_empty() {
            let outputs = oks.swap_remove(0);
            if oks.iter().any(|o| o != &outputs) {
                return Err(NetExecError::OutputMismatch);
            }
            return Ok(NetExecReport {
                outputs,
                committee: current,
                failures,
                metrics,
            });
        }
        // This committee is out: record its churn and fail over.
        offline[current] = errs.max(1);
        let err = first_err.unwrap_or_else(|| "no party produced output".into());
        failures.push((current, err.clone()));
        let Some(assignment) = reassign_for_churn(&sizes, &offline, cfg.g) else {
            return Err(NetExecError::AllCommitteesDead { attempts });
        };
        // The task belongs to committee 0; follow its reassignment.
        let next = assignment[0];
        if tried[next] {
            return Err(NetExecError::Exhausted {
                attempts,
                last_error: err,
            });
        }
        current = next;
    }
}

/// Runs one committee attempt: `m` threads, one evented fabric, one
/// dealer. The instant sim fabric is one act-as-anyone object and
/// cannot host `m` concurrent per-party closures; evented endpoints
/// can, and resolve every modeled delay and timeout on their shared
/// virtual clock instead of sleeping.
fn run_committee<F>(
    cfg: &NetExecConfig,
    committee: usize,
    fault: FaultPlan,
    protocol: &F,
) -> (Vec<Result<Vec<FGold>, MpcError>>, TransportMetrics)
where
    F: Fn(&mut NetParty) -> Result<Vec<FGold>, MpcError> + Send + Sync,
{
    let ecfg = EventedConfig {
        timeout: cfg.timeout,
        latency: cfg.latency.as_ref().map(|l| l.one_way_matrix(cfg.m)),
        jitter: 0.0,
        seed: cfg.party_seed ^ committee as u64,
        faults: Some(fault),
        sink: cfg.sink.clone(),
    };
    let endpoints = evented_fabric(cfg.m, &ecfg);
    let metrics = endpoints[0].metrics_handle();
    // Fresh preprocessing per attempt: a reassigned committee starts a
    // clean protocol run with its own dealer material.
    let dealer = shared_dealer(cfg.m, cfg.t, cfg.dealer_seed ^ (committee as u64) << 16);
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| {
                let dealer = dealer.clone();
                s.spawn(move || {
                    let mut party = Party::new(cfg.m, cfg.t, ep, dealer, cfg.party_seed);
                    protocol(&mut party)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("party thread must not panic"))
            .collect()
    });
    (results, metrics.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use arboretum_mpc::MpcOps;

    fn sum_protocol(p: &mut NetParty) -> Result<Vec<FGold>, MpcError> {
        let a = p.input(0, FGold::new(20))?;
        let b = p.input(1, FGold::new(22))?;
        let s = p.add(&a, &b);
        p.open_batch(&[&s])
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
            timeout: Duration::from_millis(100),
            ..NetExecConfig::default()
        };
        let err = run_with_failover(&cfg, sum_protocol).unwrap_err();
        assert_eq!(err, NetExecError::AllCommitteesDead { attempts: 1 });
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
