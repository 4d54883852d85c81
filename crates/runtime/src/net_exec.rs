//! Committee execution with fault injection and churn failover.
//!
//! Runs an MPC protocol on a *real* concurrent committee — one OS thread
//! per member, each blocking on its own `arboretum-net` evented
//! endpoint, with an optional [`FaultPlan`] injected per committee — and
//! composes transport-level failures with the session layer's churn
//! reassignment (§5.1): when a committee loses more than `g·m` members
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

use crate::session::reassign_for_churn;

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

/// Runs independent committee tasks concurrently (§5.4: distinct
/// vignettes' committees have no data dependencies and can proceed at
/// the same time): the task list is partitioned across the
/// [`arboretum_par::ShardedPool`]'s shards and each shard runs its
/// contiguous slice on its own pinned pool.
///
/// Task `k` runs a full [`run_with_failover`] with its own dealer and
/// party seeds, salted by its **global** index — never by scheduling or
/// by the task's position within its shard — so every task's outputs,
/// failover path, and transport metrics (hence all `NetMeter` totals
/// derived from them) are bitwise identical for every shard count and
/// thread count, including the zero-worker pool that runs the tasks
/// inline sequentially. Results come back in task order.
pub fn run_concurrent_sharded<F>(
    set: &arboretum_par::ShardedPool,
    cfg: &NetExecConfig,
    tasks: Vec<F>,
) -> Vec<Result<NetExecReport, NetExecError>>
where
    F: Fn(&mut NetParty) -> Result<Vec<FGold>, MpcError> + Send + Sync + 'static,
{
    let cfg = cfg.clone();
    let tasks = std::sync::Arc::new(tasks);
    arboretum_par::par_map_arc_sharded(set, &tasks, move |k, task| {
        let salt = (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let task_cfg = NetExecConfig {
            dealer_seed: cfg.dealer_seed ^ salt,
            party_seed: cfg.party_seed ^ salt,
            ..cfg.clone()
        };
        run_with_failover(&task_cfg, |p: &mut NetParty| task(p))
    })
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
    fn concurrent_tasks_match_sequential_execution() {
        let cfg = NetExecConfig::default();
        let tasks: Vec<_> = (0..3)
            .map(|k| {
                move |p: &mut NetParty| -> Result<Vec<FGold>, MpcError> {
                    let a = p.input(0, FGold::new(10 + k))?;
                    let b = p.input(1, FGold::new(1))?;
                    let s = p.add(&a, &b);
                    p.open_batch(&[&s])
                }
            })
            .collect();
        let serial = arboretum_par::ShardedPool::new(0, 1);
        let reference = run_concurrent_sharded(&serial, &cfg, tasks.clone());
        let pool = arboretum_par::ShardedPool::new(4, 1);
        let concurrent = run_concurrent_sharded(&pool, &cfg, tasks);
        assert_eq!(reference.len(), 3);
        for (k, (a, b)) in reference.iter().zip(&concurrent).enumerate() {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.outputs, vec![FGold::new(11 + k as u64)]);
            assert_eq!(a.outputs, b.outputs, "task {k}");
            assert_eq!(a.committee, b.committee, "task {k}");
            assert_eq!(a.metrics, b.metrics, "task {k}");
        }
    }

    #[test]
    fn sharded_tasks_match_single_pool_execution() {
        let cfg = NetExecConfig::default();
        let mk_tasks = || -> Vec<_> {
            (0..5)
                .map(|k| {
                    move |p: &mut NetParty| -> Result<Vec<FGold>, MpcError> {
                        let a = p.input(0, FGold::new(10 + k))?;
                        let b = p.input(1, FGold::new(1))?;
                        let s = p.add(&a, &b);
                        p.open_batch(&[&s])
                    }
                })
                .collect()
        };
        let serial = arboretum_par::ShardedPool::new(0, 1);
        let reference = run_concurrent_sharded(&serial, &cfg, mk_tasks());
        for shards in [1usize, 2, 3] {
            let set = arboretum_par::ShardedPool::new(2, shards);
            let sharded = run_concurrent_sharded(&set, &cfg, mk_tasks());
            assert_eq!(sharded.len(), reference.len());
            for (k, (a, b)) in reference.iter().zip(&sharded).enumerate() {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(a.outputs, b.outputs, "shards={shards} task {k}");
                assert_eq!(a.committee, b.committee, "shards={shards} task {k}");
                assert_eq!(a.metrics, b.metrics, "shards={shards} task {k}");
            }
        }
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
}
