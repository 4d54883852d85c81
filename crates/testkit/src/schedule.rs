//! Seed-derived Byzantine schedules, decided up front.
//!
//! Every corruption decision — each device, each committee seat, the
//! networked-MPC faults, the aggregator — is one draw
//! `seed_draw(seed, domain, index)`, capped and logged as a
//! [`Decision`]. [`AdversarySchedule::new`] makes them all at
//! construction, in index order: every device, then every seat of every
//! committee, then the net faults, then (with the aggregator axis) the
//! aggregator. Its caps bind in that order, and the schedule is a pure
//! function of `(seed, n_devices, n_committees, windows)` — a failing
//! seed is a complete bug report. The executor consults it through
//! [`Adversary`], which answers by lookup.
//!
//! The caps are what the protocol's thresholds tolerate — the point of
//! the harness is to prove *detection*, not to exceed the honest-majority
//! assumptions the paper states up front (§5.1): at most ⌊n/3⌋ corrupt
//! devices (and enough honest ones left to seat the committees), at most
//! `t = 2` faulty members per 5-seat committee in any one key handoff (a
//! handoff crash counted), and at least one committee with a survivable
//! network fault.

use std::fmt::Debug;

use arboretum_crypto::sha256::seed_draw;
use arboretum_net::fault::FaultPlan;
use arboretum_runtime::{Adversary, AggregatorBehavior, CommitteeBehavior, DeviceBehavior};

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

/// One logged decision: which subject was decided, the derived draw, and
/// the choice made. Two schedules agree iff their decision logs are
/// equal element-wise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Subject label, e.g. `"device 3"` or `"aggregator"`.
    pub subject: String,
    /// The 64-bit draw derived from `(seed, domain, index)`.
    pub draw: u64,
    /// Debug rendering of the chosen behavior.
    pub choice: String,
}

impl Decision {
    fn new(subject: String, draw: u64, choice: impl Debug) -> Self {
        Self {
            subject,
            draw,
            choice: format!("{choice:?}"),
        }
    }
}

/// What the adversary decided: a behavior for every device, seat and
/// committee, and the decision log.
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

impl AdversarySchedule {
    /// The schedule for `n_devices` uploading devices and `n_committees`
    /// networked-MPC committees, over one window and with an honest
    /// aggregator: every device, then every seat of every committee, then
    /// the net faults, decided in index order.
    ///
    /// # Panics
    ///
    /// Panics if `n_committees == 0` or `n_devices == 0`.
    pub fn new(seed: u64, n_devices: usize, n_committees: usize) -> Self {
        assert!(n_devices > 0, "schedule needs at least one device");
        assert!(n_committees > 0, "schedule needs at least one committee");
        let mut decisions = Vec::new();

        // ~35% corruption pressure, capped so the honest remainder can
        // still seat the executor's committees and the corrupt set stays
        // under the n/3 Byzantine bound. If no device was drawn corrupt
        // by the last one, the last is: every run exercises a device
        // attack.
        let cap = (n_devices / 3).min(n_devices.saturating_sub(SORTITION_FLOOR));
        let mut corrupt = 0;
        let device_behaviors = (0..n_devices)
            .map(|device| {
                let r = seed_draw(seed, b"device", device as u64);
                let force = device + 1 == n_devices && corrupt == 0;
                let behavior = if corrupt < cap && (r % 100 < 35 || force) {
                    corrupt += 1;
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
                decisions.push(Decision::new(format!("device {device}"), r, behavior));
                behavior
            })
            .collect();

        // Light corruption pressure, capped at t = 2 per committee so
        // ≥ t + 1 honest members always remain.
        let committee_behaviors = (0..n_committees)
            .map(|committee| {
                let mut seated = 0;
                (0..COMMITTEE_SEATS)
                    .map(|member| {
                        let index = (committee * COMMITTEE_SEATS + member) as u64;
                        let r = seed_draw(seed, b"committee", index);
                        let behavior = match r % 10 {
                            0 if seated < 2 => CommitteeBehavior::StaleSignature,
                            1 if seated < 2 => CommitteeBehavior::EquivocateCommit,
                            2 if seated < 2 => CommitteeBehavior::InconsistentVsrShares,
                            _ => CommitteeBehavior::Honest,
                        };
                        if behavior != CommitteeBehavior::Honest {
                            seated += 1;
                        }
                        decisions.push(Decision::new(
                            format!("committee {committee} seat {member}"),
                            r,
                            behavior,
                        ));
                        behavior
                    })
                    .collect()
            })
            .collect();

        let mut net_faults: Vec<NetFault> = (0..n_committees)
            .map(|c| {
                let r = seed_draw(seed, b"net", c as u64);
                let party = ((r >> 3) % COMMITTEE_SEATS as u64) as usize;
                let fault = match r % 8 {
                    0 => NetFault::Crash { party },
                    1 => NetFault::Partition { a: 0, b: 1 },
                    2 | 3 => NetFault::Slow { party },
                    _ => NetFault::None,
                };
                decisions.push(Decision::new(format!("net committee {c}"), r, fault));
                fault
            })
            .collect();
        if net_faults.iter().all(NetFault::is_fatal) {
            // At least one committee survives, so the failover chain
            // terminates.
            let last = n_committees - 1;
            net_faults[last] = NetFault::None;
            if let Some(d) = decisions.last_mut() {
                d.choice = format!("{:?}", NetFault::None);
            }
        }

        Self {
            seed,
            device_behaviors,
            committee_behaviors,
            net_faults,
            aggregator: AggregatorBehavior::Honest,
            crash: None,
            decisions,
        }
    }

    /// The schedule an attack under `cfg` runs against.
    pub(crate) fn for_attack(cfg: &AttackConfig) -> Self {
        let schedule =
            Self::new(cfg.seed, cfg.n_devices, cfg.n_committees).with_windows(cfg.windows);
        if cfg.aggregator {
            schedule.with_malicious_aggregator()
        } else {
            schedule
        }
    }

    /// Spreads the epoch over `windows` ingestion windows: from two on,
    /// one seed-drawn seat crashes during one boundary handoff.
    pub fn with_windows(mut self, windows: usize) -> Self {
        self.crash = handoff_crash(self.seed, windows);
        self
    }

    /// Enables the aggregator axis, the last decision the schedule
    /// makes. The kind is `seed % 6`, so any six consecutive seeds — and
    /// a fortiori the CI's 16-seed sweep — cover the whole
    /// [`AggregatorBehavior`] catalog; the executor resolves the draw of
    /// the draw-carrying kinds against the realized step layout.
    pub fn with_malicious_aggregator(mut self) -> Self {
        let d = seed_draw(self.seed, b"aggregator", 0);
        self.aggregator = match self.seed % 6 {
            0 => AggregatorBehavior::WrongPartialSum,
            1 => AggregatorBehavior::DropUpload { draw: d },
            2 => AggregatorBehavior::ForgedLeaf { draw: d },
            3 => AggregatorBehavior::ForgedRoot,
            4 => AggregatorBehavior::ReorderedSteps { draw: d },
            _ => AggregatorBehavior::EquivocatingResponses { draw: d },
        };
        self.decisions
            .push(Decision::new("aggregator".into(), d, self.aggregator));
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

impl Adversary for AdversarySchedule {
    fn device_behavior(&self, _window: usize, device: usize) -> DeviceBehavior {
        self.device_behaviors
            .get(device)
            .copied()
            .unwrap_or(DeviceBehavior::Honest)
    }

    fn committee_behavior(&self, committee: usize, member: usize) -> CommitteeBehavior {
        self.committee_behaviors
            .get(committee)
            .and_then(|row| row.get(member))
            .copied()
            .unwrap_or(CommitteeBehavior::Honest)
    }

    fn aggregator_behavior(&self) -> AggregatorBehavior {
        self.aggregator
    }

    fn handoff_crash(&self, boundary: usize, member: usize) -> bool {
        self.crash == Some((boundary, member))
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
        // The schedule an attack runs against is the same one.
        let cfg = AttackConfig {
            aggregator: true,
            ..AttackConfig::new(5)
        };
        let attacked = AdversarySchedule::for_attack(&cfg);
        assert_eq!(attacked.aggregator, s.aggregator);
        assert_eq!(attacked.decisions, s.decisions);
        assert_eq!(attacked.aggregator_behavior(), s.aggregator);
    }

    #[test]
    fn every_decision_is_one_seed_draw() {
        // Each logged draw is `seed_draw(seed, domain, index)` of its
        // subject, and nothing else feeds it.
        let seed = 9;
        let s = AdversarySchedule::new(seed, 48, 3).with_malicious_aggregator();
        let expected: Vec<u64> = (0..48)
            .map(|i| seed_draw(seed, b"device", i))
            .chain((0..3 * COMMITTEE_SEATS as u64).map(|i| seed_draw(seed, b"committee", i)))
            .chain((0..3).map(|c| seed_draw(seed, b"net", c)))
            .chain([seed_draw(seed, b"aggregator", 0)])
            .collect();
        let drawn: Vec<u64> = s.decisions.iter().map(|d| d.draw).collect();
        assert_eq!(drawn, expected);
    }

    #[test]
    fn answers_are_lookups_that_replay_identically() {
        // Querying the schedule through `Adversary`, in any order,
        // answers what it decided up front and changes nothing.
        let fresh = || {
            AdversarySchedule::new(11, 48, 3)
                .with_windows(4)
                .with_malicious_aggregator()
        };
        let runs: Vec<AdversarySchedule> = (0..2)
            .map(|_| {
                let s = fresh();
                for i in (0..48).rev() {
                    assert_eq!(s.device_behavior(0, i), s.device_behaviors[i]);
                }
                for c in (0..3).rev() {
                    for m in 0..COMMITTEE_SEATS {
                        assert_eq!(s.committee_behavior(c, m), s.committee_behaviors[c][m]);
                    }
                }
                assert_eq!(s.aggregator_behavior(), s.aggregator);
                let crashed: Vec<_> = (0..3)
                    .flat_map(|b| (0..COMMITTEE_SEATS).map(move |m| (b, m)))
                    .filter(|&(b, m)| s.handoff_crash(b, m))
                    .collect();
                assert_eq!(crashed, s.crash.into_iter().collect::<Vec<_>>());
                s
            })
            .collect();
        let untouched = fresh();
        for s in &runs {
            assert_eq!(s.decisions, untouched.decisions);
            assert_eq!(s.device_behaviors, untouched.device_behaviors);
            assert_eq!(s.aggregator, untouched.aggregator);
            assert_eq!(s.net_faults, untouched.net_faults);
        }
    }

    #[test]
    fn at_least_one_device_attack_is_forced() {
        for seed in 0..8u64 {
            assert!(
                !AdversarySchedule::new(seed, 48, 3)
                    .corrupt_devices()
                    .is_empty(),
                "seed {seed} decided an all-honest device set"
            );
        }
        // Seed 69092 draws none of its first 27 devices under the 35%
        // pressure, so in deployments of 26 to 28 devices only the
        // forced last device is corrupt.
        let seed = 69_092;
        for n in 26..=28 {
            assert!((0..n as u64 - 1).all(|i| seed_draw(seed, b"device", i) % 100 >= 35));
            assert_eq!(
                AdversarySchedule::new(seed, n, 1).corrupt_devices(),
                [n - 1]
            );
        }
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
            let s = AdversarySchedule::new(seed, 48, 3).with_windows(windows);
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
                        s.handoff_crash(boundary, m)
                            || s.handoff_behavior(boundary, m) != CommitteeBehavior::Honest
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
    fn caps_hold_at_every_deployment_size() {
        // The caps bind at every size, not only at the harness's 48
        // devices and 3 committees; and whenever they leave room for a
        // corrupt device, there is one.
        for seed in 0..4u64 {
            for n in 1..=80 {
                for committees in 1..=4 {
                    let s = AdversarySchedule::new(seed, n, committees);
                    let at = format!("seed {seed}, {n} devices, {committees} committees");
                    let corrupt = s.corrupt_devices().len();
                    assert!(corrupt <= n / 3, "{at}: {corrupt} exceeds n/3");
                    assert!(
                        corrupt == 0 || n - corrupt >= SORTITION_FLOOR,
                        "{at}: unseatable"
                    );
                    assert_eq!(corrupt >= 1, n > SORTITION_FLOOR, "{at}: {corrupt} corrupt");
                    for row in &s.committee_behaviors {
                        let bad = row
                            .iter()
                            .filter(|b| **b != CommitteeBehavior::Honest)
                            .count();
                        assert!(bad <= 2, "{at}: {bad} > t seats");
                    }
                    assert!(s.net_faults.iter().any(|f| !f.is_fatal()), "{at}");
                }
            }
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
