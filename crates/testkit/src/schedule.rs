//! Seed-derived Byzantine schedules: one decider, observing or not.
//!
//! Every corruption decision — each device, each committee seat, the
//! networked-MPC faults, the aggregator — comes from one decider with one
//! copy of every rule. A decision is the draw
//! `seed_draw_with(seed, domain, index, observed)`, made once, capped,
//! memoized and logged as a [`Decision`]. A schedule either observes
//! nothing or observes the executor's traffic:
//!
//! * The **static** schedule observes nothing (`observed` is empty) and
//!   decides everything at construction, in index order: every device,
//!   then every seat of every committee, then the net faults, then the
//!   aggregator. Its caps bind in index order, its run is served from the
//!   memo, and it is a pure function of `(seed, n_devices, n_committees,
//!   windows)` — a failing seed is a complete bug report.
//! * The **adaptive** schedule ([`crate::adaptive`]) observes traffic:
//!   each decision is made at the executor's first query, with `observed`
//!   the transcript digest at that instant, so its caps bind in query
//!   order.
//!
//! The caps are what the protocol's thresholds tolerate — the point of
//! the harness is to prove *detection*, not to exceed the honest-majority
//! assumptions the paper states up front (§5.1): at most ⌊n/3⌋ corrupt
//! devices (and enough honest ones left to seat the committees), at most
//! `t = 2` faulty members per 5-seat committee in any one key handoff (a
//! handoff crash counted), and at least one committee with a survivable
//! network fault. An [`AdversarySchedule`] is the snapshot of what was
//! decided, which the harness cross-checks a run against.

use std::fmt::Debug;
use std::sync::{Arc, Mutex, MutexGuard};

use arboretum_crypto::sha256::{seed_draw, seed_draw_with, Digest};
use arboretum_net::fault::FaultPlan;
use arboretum_net::SharedSink;
use arboretum_runtime::{Adversary, AggregatorBehavior, CommitteeBehavior, DeviceBehavior};

use crate::adaptive::TranscriptAccumulator;
use crate::harness::AttackConfig;

/// Committee seats used throughout the simulation (matches
/// [`arboretum_runtime::ExecutionConfig::committee_size`] and the
/// committees [`arboretum_runtime::run_with_failover`] seats).
pub const COMMITTEE_SEATS: usize = 5;

/// Devices the executor's sortition needs for its 5 roles × 5 seats.
pub(crate) const SORTITION_FLOOR: usize = 25;

/// Per-party seconds of added delay for a [`NetFault::Slow`] committee —
/// charged to the sender's virtual clock, which no timeout reads, so a
/// slow committee still completes.
pub const SLOW_DELAY_SECS: f64 = 0.005;

/// A per-committee network fault for the networked MPC phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFault {
    /// No fault: the committee runs clean.
    None,
    /// One party crashes at its first network operation; the committee
    /// loses quorum and the session must fail over.
    Crash {
        /// The crashing party index.
        party: usize,
    },
    /// Two parties cannot exchange messages; the first frame the protocol
    /// needs between them fails, which kills the committee.
    Partition {
        /// One side of the partition.
        a: usize,
        /// The other side.
        b: usize,
    },
    /// One party is slow ([`SLOW_DELAY_SECS`] per send, on the virtual
    /// clock): the committee survives.
    Slow {
        /// The slow party index.
        party: usize,
    },
}

impl NetFault {
    /// Whether this fault kills the committee (forces a failover).
    pub fn is_fatal(&self) -> bool {
        matches!(self, Self::Crash { .. } | Self::Partition { .. })
    }

    /// The [`FaultPlan`] injecting this fault, if any.
    pub fn plan(&self) -> Option<FaultPlan> {
        match *self {
            Self::None => None,
            Self::Crash { party } => Some(FaultPlan::crash(party, 0)),
            Self::Partition { a, b } => Some(FaultPlan {
                partitions: vec![(a, b)],
                ..FaultPlan::default()
            }),
            Self::Slow { party } => Some(FaultPlan {
                slow: vec![(party, SLOW_DELAY_SECS)],
                ..FaultPlan::default()
            }),
        }
    }
}

/// One logged decision: which subject was decided, the transcript
/// digest it conditioned on, the derived draw, and the choice made. Two
/// runs replay identically iff their decision logs are equal
/// element-wise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Subject label, e.g. `"device 3"` or `"aggregator"`.
    pub subject: String,
    /// Transcript digest at the moment of the decision; `None` for a
    /// schedule that observes nothing.
    pub digest: Option<Digest>,
    /// The 64-bit draw derived from `(seed, domain, index, digest)`.
    pub draw: u64,
    /// Debug rendering of the chosen behavior.
    pub choice: String,
}

impl Decision {
    fn new(subject: String, digest: Option<Digest>, draw: u64, choice: impl Debug) -> Self {
        Self {
            subject,
            digest,
            draw,
            choice: format!("{choice:?}"),
        }
    }
}

/// What a schedule decided: a behavior for every device, seat and
/// committee (honest where nothing was decided), and the decision log.
#[derive(Clone, Debug)]
pub struct AdversarySchedule {
    /// The seed everything is derived from.
    pub seed: u64,
    /// Per-device upload behavior, by registry index.
    pub device_behaviors: Vec<DeviceBehavior>,
    /// Per-committee, per-seat behavior (committee 0 is the executor's
    /// key-generation committee).
    pub committee_behaviors: Vec<Vec<CommitteeBehavior>>,
    /// Per-committee network fault for the networked MPC phase.
    pub net_faults: Vec<NetFault>,
    /// Aggregator-server behavior for the §5.3 MHT audit
    /// ([`AggregatorBehavior::Honest`] unless the aggregator axis is
    /// enabled).
    pub aggregator: AggregatorBehavior,
    /// `(boundary, member)` of the committee-0 seat that goes silent
    /// during one window-boundary key handoff (`None` unless the epoch
    /// has a boundary).
    pub crash: Option<(usize, usize)>,
    /// Every decision, in the order it was made.
    pub decisions: Vec<Decision>,
}

/// The seed-drawn handoff crash of a `windows`-window epoch: one seat
/// crashes at one boundary. `None` below two windows, where there is no
/// boundary to crash at.
///
/// Committee behaviors act when the certificate is signed and at the
/// close handoff, never at a boundary, so the crashed seat is the only
/// faulty one in its handoff: 1 ≤ t, and 4 ≥ t + 1 honest batches
/// remain, so the crash is always survivable and always detected.
fn handoff_crash(seed: u64, windows: usize) -> Option<(usize, usize)> {
    (windows >= 2).then(|| {
        let boundary =
            (seed_draw(seed, b"stream-crash-boundary", 0) % (windows as u64 - 1)) as usize;
        let member = (seed_draw(seed, b"stream-crash-member", 0) % COMMITTEE_SEATS as u64) as usize;
        (boundary, member)
    })
}

/// The aggregator decision: the kind is `seed % 6`, so any six
/// consecutive seeds — and a fortiori the CI's 16-seed sweep — cover the
/// whole [`AggregatorBehavior`] catalog. Only the target of the
/// draw-carrying kinds depends on what was observed; the executor
/// resolves it against the realized step layout.
fn decide_aggregator(seed: u64, observed: Option<Digest>) -> (AggregatorBehavior, Decision) {
    let d = draw(seed, b"aggregator", 0, observed);
    let behavior = match seed % 6 {
        0 => AggregatorBehavior::WrongPartialSum,
        1 => AggregatorBehavior::DropUpload { draw: d },
        2 => AggregatorBehavior::ForgedLeaf { draw: d },
        3 => AggregatorBehavior::ForgedRoot,
        4 => AggregatorBehavior::ReorderedSteps { draw: d },
        _ => AggregatorBehavior::EquivocatingResponses { draw: d },
    };
    (
        behavior,
        Decision::new("aggregator".into(), observed, d, behavior),
    )
}

/// `seed_draw_with(seed, domain, index, observed)`, with nothing
/// appended when nothing was observed.
fn draw(seed: u64, domain: &[u8], index: u64, observed: Option<Digest>) -> u64 {
    seed_draw_with(seed, domain, index, observed.as_ref().map_or(&[], |d| d))
}

impl AdversarySchedule {
    /// The static schedule for `n_devices` uploading devices and
    /// `n_committees` networked-MPC committees, over one window and with
    /// an honest aggregator.
    ///
    /// # Panics
    ///
    /// Panics if `n_committees == 0` or `n_devices == 0`.
    pub fn new(seed: u64, n_devices: usize, n_committees: usize) -> Self {
        let cfg = AttackConfig {
            n_devices,
            n_committees,
            ..AttackConfig::new(seed)
        };
        Decider::new(&cfg).snapshot()
    }

    /// Spreads the epoch over `windows` ingestion windows: from two on,
    /// one seed-drawn seat crashes during one boundary handoff.
    pub fn with_windows(mut self, windows: usize) -> Self {
        self.crash = handoff_crash(self.seed, windows);
        self
    }

    /// Enables the aggregator axis with the static schedule's decision,
    /// the last one it makes.
    pub fn with_malicious_aggregator(mut self) -> Self {
        let (behavior, decision) = decide_aggregator(self.seed, None);
        self.aggregator = behavior;
        self.decisions.push(decision);
        self
    }

    /// Registry indices of corrupt devices.
    pub fn corrupt_devices(&self) -> Vec<usize> {
        self.device_behaviors
            .iter()
            .enumerate()
            .filter(|(_, b)| **b != DeviceBehavior::Honest)
            .map(|(i, _)| i)
            .collect()
    }

    /// Per-committee [`FaultPlan`]s for
    /// [`arboretum_runtime::NetExecConfig::faults`].
    pub fn fault_plans(&self) -> Vec<Option<FaultPlan>> {
        self.net_faults.iter().map(NetFault::plan).collect()
    }

    /// Human-readable schedule summary for attack-run transcripts.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "schedule(seed={}, devices={}, committees={})\n",
            self.seed,
            self.device_behaviors.len(),
            self.net_faults.len()
        );
        for (i, b) in self.device_behaviors.iter().enumerate() {
            if *b != DeviceBehavior::Honest {
                out.push_str(&format!("  device {i}: {b:?}\n"));
            }
        }
        for (c, row) in self.committee_behaviors.iter().enumerate() {
            for (s, b) in row.iter().enumerate() {
                if *b != CommitteeBehavior::Honest {
                    out.push_str(&format!("  committee {c} seat {s}: {b:?}\n"));
                }
            }
        }
        for (c, f) in self.net_faults.iter().enumerate() {
            if *f != NetFault::None {
                out.push_str(&format!("  net committee {c}: {f:?}\n"));
            }
        }
        if self.aggregator != AggregatorBehavior::Honest {
            out.push_str(&format!("  aggregator: {:?}\n", self.aggregator));
        }
        if let Some((boundary, member)) = self.crash {
            out.push_str(&format!(
                "  committee 0 seat {member} crashes in the handoff at boundary {boundary}\n"
            ));
        }
        out
    }
}

/// The decisions made so far; `None` is a subject not yet decided.
#[derive(Debug)]
struct Memo {
    devices: Vec<Option<DeviceBehavior>>,
    corrupt_devices: usize,
    seats: Vec<[Option<CommitteeBehavior>; COMMITTEE_SEATS]>,
    net_faults: Option<Vec<NetFault>>,
    aggregator: Option<AggregatorBehavior>,
    log: Vec<Decision>,
}

/// The one adversary behind both schedules (see the module docs): the
/// rules, the memo, the caps and the decision log.
#[derive(Debug)]
pub(crate) struct Decider {
    seed: u64,
    aggregator_axis: bool,
    crash: Option<(usize, usize)>,
    /// The traffic an adaptive schedule conditions on; `None` for the
    /// static schedule, which observes nothing.
    transcript: Option<Arc<TranscriptAccumulator>>,
    memo: Mutex<Memo>,
}

impl Decider {
    /// The schedule `cfg` asks for: adaptive when `cfg.adaptive`, else
    /// static, with every decision made here in index order.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n_devices` or `cfg.n_committees` is zero.
    pub(crate) fn new(cfg: &AttackConfig) -> Self {
        assert!(cfg.n_devices > 0, "schedule needs at least one device");
        assert!(
            cfg.n_committees > 0,
            "schedule needs at least one committee"
        );
        let decider = Self {
            seed: cfg.seed,
            aggregator_axis: cfg.aggregator,
            crash: handoff_crash(cfg.seed, cfg.windows),
            transcript: cfg.adaptive.then(|| Arc::new(TranscriptAccumulator::new())),
            memo: Mutex::new(Memo {
                devices: vec![None; cfg.n_devices],
                corrupt_devices: 0,
                seats: vec![[None; COMMITTEE_SEATS]; cfg.n_committees],
                net_faults: None,
                aggregator: None,
                log: Vec::new(),
            }),
        };
        if !cfg.adaptive {
            for device in 0..cfg.n_devices {
                decider.device_behavior(0, device);
            }
            for committee in 0..cfg.n_committees {
                for member in 0..COMMITTEE_SEATS {
                    decider.committee_behavior(committee, member);
                }
            }
            decider.net_faults();
            decider.aggregator_behavior();
        }
        decider
    }

    fn memo(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().expect("schedule lock")
    }

    /// What a decision made now conditions on: the transcript digest of
    /// an adaptive schedule, nothing for a static one.
    fn observed(&self) -> Option<Digest> {
        self.transcript.as_ref().map(|t| t.digest())
    }

    /// The per-committee network faults, decided at the first call —
    /// for an adaptive schedule, after the epoch, conditioned on its
    /// whole transcript.
    fn net_faults(&self) -> Vec<NetFault> {
        let mut memo = self.memo();
        if let Some(faults) = &memo.net_faults {
            return faults.clone();
        }
        let observed = self.observed();
        let mut faults: Vec<NetFault> = (0..memo.seats.len())
            .map(|c| {
                let r = draw(self.seed, b"net", c as u64, observed);
                let party = ((r >> 3) % COMMITTEE_SEATS as u64) as usize;
                let fault = match r % 8 {
                    0 => NetFault::Crash { party },
                    1 => NetFault::Partition { a: 0, b: 1 },
                    2 | 3 => NetFault::Slow { party },
                    _ => NetFault::None,
                };
                memo.log.push(Decision::new(
                    format!("net committee {c}"),
                    observed,
                    r,
                    fault,
                ));
                fault
            })
            .collect();
        if faults.iter().all(NetFault::is_fatal) {
            // At least one committee survives, so the failover chain
            // terminates.
            let last = faults.len() - 1;
            faults[last] = NetFault::None;
            if let Some(d) = memo.log.last_mut() {
                d.choice = format!("{:?}", NetFault::None);
            }
        }
        memo.net_faults = Some(faults.clone());
        faults
    }

    /// Everything decided so far, the net faults decided now if no one
    /// asked for them yet; subjects no one asked about are honest.
    pub(crate) fn snapshot(&self) -> AdversarySchedule {
        let net_faults = self.net_faults();
        let memo = self.memo();
        AdversarySchedule {
            seed: self.seed,
            device_behaviors: memo
                .devices
                .iter()
                .map(|b| b.unwrap_or(DeviceBehavior::Honest))
                .collect(),
            committee_behaviors: memo
                .seats
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|b| b.unwrap_or(CommitteeBehavior::Honest))
                        .collect()
                })
                .collect(),
            net_faults,
            aggregator: memo.aggregator.unwrap_or(AggregatorBehavior::Honest),
            crash: self.crash,
            decisions: memo.log.clone(),
        }
    }
}

impl Adversary for Decider {
    fn device_behavior(&self, _window: usize, device: usize) -> DeviceBehavior {
        let mut memo = self.memo();
        let n_devices = memo.devices.len();
        match memo.devices.get(device) {
            Some(None) => {}
            decided => return decided.copied().flatten().unwrap_or(DeviceBehavior::Honest),
        }
        let observed = self.observed();
        let r = draw(self.seed, b"device", device as u64, observed);
        // ~35% corruption pressure, capped so the honest remainder can
        // still seat the executor's committees and the corrupt set stays
        // under the n/3 Byzantine bound. If no device was drawn corrupt
        // by the last one, the last is: every run exercises a device
        // attack.
        let cap = (n_devices / 3).min(n_devices.saturating_sub(SORTITION_FLOOR));
        let force = device + 1 == n_devices && memo.corrupt_devices == 0;
        let behavior = if memo.corrupt_devices < cap && (r % 100 < 35 || force) {
            memo.corrupt_devices += 1;
            match (r / 100) % 5 {
                0 => DeviceBehavior::TamperSigmaProof,
                1 => DeviceBehavior::MalformedOneHot,
                2 => DeviceBehavior::TruncatedProof,
                3 => DeviceBehavior::OutOfRangeValue,
                _ => DeviceBehavior::WrongBgvCiphertext,
            }
        } else {
            DeviceBehavior::Honest
        };
        memo.devices[device] = Some(behavior);
        memo.log.push(Decision::new(
            format!("device {device}"),
            observed,
            r,
            behavior,
        ));
        behavior
    }

    fn committee_behavior(&self, committee: usize, member: usize) -> CommitteeBehavior {
        let mut memo = self.memo();
        let Some(row) = memo
            .seats
            .get(committee)
            .filter(|_| member < COMMITTEE_SEATS)
        else {
            return CommitteeBehavior::Honest;
        };
        if let Some(b) = row[member] {
            return b;
        }
        // Light corruption pressure, capped at t = 2 per committee so
        // ≥ t + 1 honest members always remain.
        let seated = row
            .iter()
            .filter(|b| b.is_some_and(|b| b != CommitteeBehavior::Honest))
            .count();
        let observed = self.observed();
        let index = (committee * COMMITTEE_SEATS + member) as u64;
        let r = draw(self.seed, b"committee", index, observed);
        let behavior = match r % 10 {
            0 if seated < 2 => CommitteeBehavior::StaleSignature,
            1 if seated < 2 => CommitteeBehavior::EquivocateCommit,
            2 if seated < 2 => CommitteeBehavior::InconsistentVsrShares,
            _ => CommitteeBehavior::Honest,
        };
        memo.seats[committee][member] = Some(behavior);
        memo.log.push(Decision::new(
            format!("committee {committee} seat {member}"),
            observed,
            r,
            behavior,
        ));
        behavior
    }

    fn aggregator_behavior(&self) -> AggregatorBehavior {
        let mut memo = self.memo();
        if let Some(b) = memo.aggregator {
            return b;
        }
        let behavior = if self.aggregator_axis {
            let (behavior, decision) = decide_aggregator(self.seed, self.observed());
            memo.log.push(decision);
            behavior
        } else {
            AggregatorBehavior::Honest
        };
        memo.aggregator = Some(behavior);
        behavior
    }

    fn handoff_crash(&self, boundary: usize, member: usize) -> bool {
        self.crash == Some((boundary, member))
    }

    fn traffic_sink(&self) -> Option<SharedSink> {
        self.transcript.as_ref().map(|t| SharedSink::new(t.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::net_sum;
    use arboretum_runtime::{run_with_failover, NetExecConfig};

    #[test]
    fn schedule_is_a_pure_function_of_its_inputs() {
        for seed in 0..32u64 {
            let a = AdversarySchedule::new(seed, 48, 3);
            let b = AdversarySchedule::new(seed, 48, 3);
            assert_eq!(a.device_behaviors, b.device_behaviors);
            assert_eq!(a.committee_behaviors, b.committee_behaviors);
            assert_eq!(a.net_faults, b.net_faults);
            assert_eq!(a.decisions, b.decisions);
        }
    }

    #[test]
    fn static_schedule_decides_everything_up_front_in_index_order() {
        let s = AdversarySchedule::new(5, 48, 3).with_malicious_aggregator();
        let subjects: Vec<String> =
            (0..48)
                .map(|i| format!("device {i}"))
                .chain((0..3).flat_map(|c| {
                    (0..COMMITTEE_SEATS).map(move |m| format!("committee {c} seat {m}"))
                }))
                .chain((0..3).map(|c| format!("net committee {c}")))
                .chain(["aggregator".to_string()])
                .collect();
        let logged: Vec<&String> = s.decisions.iter().map(|d| &d.subject).collect();
        assert_eq!(logged, subjects.iter().collect::<Vec<_>>());
        assert!(s.decisions.iter().all(|d| d.digest.is_none()));
        // The snapshot builder and the decider with the axis on agree.
        let cfg = AttackConfig {
            aggregator: true,
            ..AttackConfig::new(5)
        };
        let decided = Decider::new(&cfg).snapshot();
        assert_eq!(decided.aggregator, s.aggregator);
        assert_eq!(decided.decisions, s.decisions);
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = AdversarySchedule::new(1, 48, 3);
        let b = AdversarySchedule::new(2, 48, 3);
        assert!(
            a.device_behaviors != b.device_behaviors || a.net_faults != b.net_faults,
            "seeds 1 and 2 collided"
        );
    }

    #[test]
    fn corruption_respects_protocol_thresholds() {
        for seed in 0..64u64 {
            let windows = 4;
            let d = Decider::new(&AttackConfig {
                windows,
                ..AttackConfig::new(seed)
            });
            let s = d.snapshot();
            let corrupt = s.corrupt_devices().len();
            assert!(corrupt >= 1, "seed {seed} has no corrupt device");
            assert!(corrupt <= 16, "seed {seed} exceeds n/3: {corrupt}");
            assert!(48 - corrupt >= SORTITION_FLOOR);
            for row in &s.committee_behaviors {
                let bad = row
                    .iter()
                    .filter(|b| **b != CommitteeBehavior::Honest)
                    .count();
                assert!(bad <= 2, "seed {seed} corrupts {bad} > t seats");
            }
            // Each boundary handoff's faulty seats, the crash counted.
            for boundary in 0..windows - 1 {
                let faulty = (0..COMMITTEE_SEATS)
                    .filter(|&m| {
                        d.handoff_crash(boundary, m)
                            || d.handoff_behavior(boundary, m) != CommitteeBehavior::Honest
                    })
                    .count();
                assert!(faulty <= 2, "seed {seed}: {faulty} > t faulty seats");
            }
            let (boundary, member) = s.crash.expect("a multi-window epoch crashes a seat");
            assert!(boundary < windows - 1 && member < COMMITTEE_SEATS);
            // A survivable committee always exists.
            assert!(s.net_faults.iter().any(|f| !f.is_fatal()));
        }
    }

    #[test]
    fn sweep_covers_the_whole_behavior_catalog() {
        use std::collections::HashSet;
        let mut devices = HashSet::new();
        let mut seats = HashSet::new();
        let mut faults = HashSet::new();
        for seed in 0..64u64 {
            let s = AdversarySchedule::new(seed, 48, 3);
            devices.extend(s.device_behaviors.iter().copied());
            seats.extend(s.committee_behaviors.iter().flatten().copied());
            faults.extend(s.net_faults.iter().map(std::mem::discriminant));
        }
        assert_eq!(devices.len(), 6, "device catalog not covered: {devices:?}");
        assert_eq!(seats.len(), 4, "seat catalog not covered: {seats:?}");
        assert_eq!(faults.len(), 4, "fault catalog not covered");
    }

    #[test]
    fn fault_plans_line_up_with_faults() {
        let s = AdversarySchedule::new(11, 48, 3);
        let plans = s.fault_plans();
        assert_eq!(plans.len(), s.net_faults.len());
        for (f, p) in s.net_faults.iter().zip(&plans) {
            assert_eq!(*f == NetFault::None, p.is_none());
        }
    }

    #[test]
    fn every_fault_at_every_seat_kills_its_committee_iff_fatal() {
        for seat in 0..COMMITTEE_SEATS {
            let peer = usize::from(seat == 0);
            for fault in [
                NetFault::None,
                NetFault::Crash { party: seat },
                NetFault::Partition { a: seat, b: peer },
                NetFault::Slow { party: seat },
            ] {
                let cfg = NetExecConfig {
                    committees: 1,
                    faults: vec![fault.plan()],
                };
                let ran = run_with_failover(&cfg, net_sum);
                assert_eq!(ran.is_ok(), !fault.is_fatal(), "{fault:?}: {ran:?}");
            }
        }
    }

    #[test]
    fn aggregator_axis_covers_the_whole_catalog_and_stays_pure() {
        use std::collections::HashSet;
        let mut variants = HashSet::new();
        for seed in 0..16u64 {
            let a = AdversarySchedule::new(seed, 48, 3).with_malicious_aggregator();
            let b = AdversarySchedule::new(seed, 48, 3).with_malicious_aggregator();
            assert_eq!(a.aggregator, b.aggregator, "seed {seed} not pure");
            assert_ne!(a.aggregator, AggregatorBehavior::Honest);
            variants.insert(std::mem::discriminant(&a.aggregator));
            // The default axis stays honest.
            assert_eq!(
                AdversarySchedule::new(seed, 48, 3).aggregator,
                AggregatorBehavior::Honest
            );
        }
        assert_eq!(variants.len(), 6, "aggregator catalog not covered");
    }

    #[test]
    fn tiny_deployments_stay_honest_rather_than_unseatable() {
        // Below the sortition floor the cap clamps to zero corrupt
        // devices instead of producing an unseatable committee.
        let s = AdversarySchedule::new(3, 20, 1);
        assert!(s.corrupt_devices().is_empty());
    }
}
