//! Seed-derived Byzantine schedules.
//!
//! An [`AdversarySchedule`] is a pure function of
//! `(seed, n_devices, n_committees)`: every behavior assignment comes
//! from SHA-256 over `(seed, domain, index)`, so the same inputs always
//! produce the same schedule, independent of thread count, platform, or
//! process state. That purity is what makes a failing seed a complete
//! bug report.
//!
//! The schedule caps corruption at what the protocol's thresholds
//! tolerate — the point of the harness is to prove *detection*, not to
//! exceed the honest-majority assumptions the paper states up front
//! (§5.1): at most ⌊n/3⌋ corrupt devices (and enough honest ones left to
//! seat the committees), at most `t = 2` corrupt members per 5-seat
//! committee, and at least one committee with a survivable network
//! fault.

use arboretum_crypto::sha256::seed_draw;
use arboretum_net::fault::FaultPlan;
use arboretum_runtime::{Adversary, AggregatorBehavior, CommitteeBehavior, DeviceBehavior};

/// Committee seats used throughout the simulation (matches
/// [`arboretum_runtime::ExecutionConfig::committee_size`] and
/// [`arboretum_runtime::NetExecConfig`]'s default `m`).
pub const COMMITTEE_SEATS: usize = 5;

/// Devices the executor's sortition needs for its 5 roles × 5 seats.
pub(crate) const SORTITION_FLOOR: usize = 25;

/// Per-party seconds of added delay for a [`NetFault::Slow`] committee —
/// well inside the harness timeout, so a slow committee still completes.
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
    /// Two parties cannot exchange messages; both error out, which
    /// exceeds the churn tolerance and kills the committee.
    Partition {
        /// One side of the partition.
        a: usize,
        /// The other side.
        b: usize,
    },
    /// One party is slow ([`SLOW_DELAY_SECS`] per send) but within the
    /// timeout: the committee survives.
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

/// A complete seed-derived assignment of Byzantine behaviors.
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
    /// enabled via [`AdversarySchedule::with_malicious_aggregator`]).
    pub aggregator: AggregatorBehavior,
}

pub(crate) fn device_catalog(r: u64) -> DeviceBehavior {
    match r % 5 {
        0 => DeviceBehavior::TamperSigmaProof,
        1 => DeviceBehavior::MalformedOneHot,
        2 => DeviceBehavior::TruncatedProof,
        3 => DeviceBehavior::OutOfRangeValue,
        _ => DeviceBehavior::WrongBgvCiphertext,
    }
}

impl AdversarySchedule {
    /// Derives the schedule for `n_devices` uploading devices and
    /// `n_committees` networked-MPC committees.
    ///
    /// # Panics
    ///
    /// Panics if `n_committees == 0` or `n_devices == 0`.
    pub fn new(seed: u64, n_devices: usize, n_committees: usize) -> Self {
        assert!(n_devices > 0, "schedule needs at least one device");
        assert!(n_committees > 0, "schedule needs at least one committee");

        // Devices: ~35% corruption pressure, capped so the honest
        // remainder can still seat the executor's committees and the
        // corrupt set stays under the n/3 Byzantine bound.
        let cap = (n_devices / 3).min(n_devices.saturating_sub(SORTITION_FLOOR));
        let mut corrupt = 0usize;
        let mut device_behaviors: Vec<DeviceBehavior> = (0..n_devices)
            .map(|i| {
                let r = seed_draw(seed, b"device", i as u64);
                if corrupt < cap && r % 100 < 35 {
                    corrupt += 1;
                    device_catalog(r / 100)
                } else {
                    DeviceBehavior::Honest
                }
            })
            .collect();
        if corrupt == 0 && cap > 0 {
            // Every sweep seed must exercise at least one device attack.
            device_behaviors[0] = device_catalog(seed_draw(seed, b"device-force", 0));
        }

        // Committee seats: light corruption pressure, capped at t = 2
        // per committee so ≥ t + 1 honest members always remain.
        let committee_behaviors: Vec<Vec<CommitteeBehavior>> = (0..n_committees)
            .map(|c| {
                let mut seated = 0usize;
                (0..COMMITTEE_SEATS)
                    .map(|s| {
                        let r = seed_draw(seed, b"committee", (c * COMMITTEE_SEATS + s) as u64);
                        let behavior = match r % 10 {
                            0 => CommitteeBehavior::StaleSignature,
                            1 => CommitteeBehavior::EquivocateCommit,
                            2 => CommitteeBehavior::InconsistentVsrShares,
                            _ => CommitteeBehavior::Honest,
                        };
                        if behavior != CommitteeBehavior::Honest && seated < 2 {
                            seated += 1;
                            behavior
                        } else {
                            CommitteeBehavior::Honest
                        }
                    })
                    .collect()
            })
            .collect();

        // Network faults: one per committee, with at least one committee
        // guaranteed survivable so the failover chain terminates.
        let mut net_faults: Vec<NetFault> = (0..n_committees)
            .map(|c| {
                let r = seed_draw(seed, b"net", c as u64);
                let party = ((r >> 3) % COMMITTEE_SEATS as u64) as usize;
                match r % 8 {
                    0 => NetFault::Crash { party },
                    1 => NetFault::Partition { a: 0, b: 1 },
                    2 | 3 => NetFault::Slow { party },
                    _ => NetFault::None,
                }
            })
            .collect();
        if net_faults.iter().all(NetFault::is_fatal) {
            net_faults[n_committees - 1] = NetFault::None;
        }

        Self {
            seed,
            device_behaviors,
            committee_behaviors,
            net_faults,
            aggregator: AggregatorBehavior::Honest,
        }
    }

    /// The seed-derived malicious-aggregator behavior: `seed % 6` walks
    /// the whole [`AggregatorBehavior`] catalog (so any 6 consecutive
    /// seeds — and a fortiori the CI's 16-seed sweep — cover every
    /// variant), and draw-carrying variants get a deterministic
    /// SHA-256 draw resolved against the realized step layout inside
    /// the executor.
    pub fn aggregator_axis(seed: u64) -> AggregatorBehavior {
        let d = seed_draw(seed, b"aggregator", 0);
        match seed % 6 {
            0 => AggregatorBehavior::WrongPartialSum,
            1 => AggregatorBehavior::DropUpload { draw: d },
            2 => AggregatorBehavior::ForgedLeaf { draw: d },
            3 => AggregatorBehavior::ForgedRoot,
            4 => AggregatorBehavior::ReorderedSteps { draw: d },
            _ => AggregatorBehavior::EquivocatingResponses { draw: d },
        }
    }

    /// Enables the aggregator axis: the schedule's aggregator behavior
    /// becomes [`Self::aggregator_axis`]`(seed)` instead of honest.
    pub fn with_malicious_aggregator(mut self) -> Self {
        self.aggregator = Self::aggregator_axis(self.seed);
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

    /// Number of honest devices.
    pub fn n_honest_devices(&self) -> usize {
        self.device_behaviors.len() - self.corrupt_devices().len()
    }

    /// Per-committee [`FaultPlan`]s for
    /// [`arboretum_runtime::NetExecConfig::faults`].
    pub fn fault_plans(&self) -> Vec<Option<FaultPlan>> {
        self.net_faults.iter().map(NetFault::plan).collect()
    }

    /// The first committee whose network fault is survivable.
    pub fn first_surviving_committee(&self) -> usize {
        self.net_faults
            .iter()
            .position(|f| !f.is_fatal())
            .expect("construction guarantees a survivable committee")
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_its_inputs() {
        for seed in 0..32u64 {
            let a = AdversarySchedule::new(seed, 48, 3);
            let b = AdversarySchedule::new(seed, 48, 3);
            assert_eq!(a.device_behaviors, b.device_behaviors);
            assert_eq!(a.committee_behaviors, b.committee_behaviors);
            assert_eq!(a.net_faults, b.net_faults);
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
            let s = AdversarySchedule::new(seed, 48, 3);
            let corrupt = s.corrupt_devices().len();
            assert!(corrupt >= 1, "seed {seed} has no corrupt device");
            assert!(corrupt <= 16, "seed {seed} exceeds n/3: {corrupt}");
            assert!(s.n_honest_devices() >= SORTITION_FLOOR);
            for row in &s.committee_behaviors {
                let bad = row
                    .iter()
                    .filter(|b| **b != CommitteeBehavior::Honest)
                    .count();
                assert!(bad <= 2, "seed {seed} corrupts {bad} > t seats");
            }
            // A survivable committee always exists and is reachable.
            let c = s.first_surviving_committee();
            assert!(!s.net_faults[c].is_fatal());
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
