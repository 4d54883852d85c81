//! Adaptive adversaries: behavior decided from observed traffic.
//!
//! An [`AdaptiveSchedule`] makes every corruption decision at the
//! moment the runtime first asks for it, as a **pure function of
//! `(seed, observed-transcript-prefix)`**: the schedule taps every
//! transport the executor creates through a read-only
//! [`FrameSink`](arboretum_net::FrameSink), folds the observed frames
//! into an order-insensitive [`TranscriptAccumulator`], and derives
//! each decision from SHA-256 over `(seed, domain, index, digest)`
//! where `digest` is the transcript digest at the instant of the first
//! query. Decisions are memoized, so re-asking never flips an answer.
//!
//! Determinism argument: every decision point in the executor sits on
//! a serial, seed-deterministic section (the MPC engines the executor
//! builds run on instant in-process `sim` fabrics regardless of the
//! session fabric, and the networked phase starts only after all
//! decisions for the main pipeline are logged), so the transcript
//! prefix at each query — and therefore every decision — is identical
//! across thread counts, shard counts, and fabrics. The accumulator's
//! digest sorts link totals before hashing, so even the concurrent
//! networked phase folds in order-insensitively. The [`Decision`] log
//! records `(subject, digest, draw, choice)` per decision; two runs
//! agree iff their logs are equal, and a diverging log is a complete,
//! replayable bug report.
//!
//! The same protocol-threshold caps as the static
//! [`AdversarySchedule`](crate::AdversarySchedule) apply: at most
//! ⌊n/3⌋ corrupt devices (never eating into the sortition floor, and
//! at least one forced), at most `t = 2` corrupt seats per committee,
//! at least one survivable network fault, and one aggregator behavior.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use arboretum_crypto::sha256::{seed_draw_with, sha256};
use arboretum_net::{FrameSink, SharedSink};
use arboretum_runtime::{Adversary, AggregatorBehavior, CommitteeBehavior, DeviceBehavior};

use crate::schedule::{device_catalog, NetFault, COMMITTEE_SEATS, SORTITION_FLOOR};

/// Order-insensitive running summary of observed traffic.
///
/// Frames fold into per-link `(count, bytes)` totals; the digest
/// hashes the totals in sorted link order, so it does not depend on
/// the interleaving of concurrent `on_frame` calls — only on the
/// multiset of frames observed. That is what makes adaptive decisions
/// reproducible across thread and shard counts.
#[derive(Debug, Default)]
pub struct TranscriptAccumulator {
    links: Mutex<BTreeMap<(usize, usize), (u64, u64)>>,
}

impl TranscriptAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// SHA-256 over the sorted `(from, to, count, bytes)` link totals.
    pub fn digest(&self) -> [u8; 32] {
        let links = self.links.lock().expect("transcript lock");
        let mut bytes = Vec::with_capacity(links.len() * 32);
        for ((from, to), (count, total)) in links.iter() {
            bytes.extend_from_slice(&(*from as u64).to_be_bytes());
            bytes.extend_from_slice(&(*to as u64).to_be_bytes());
            bytes.extend_from_slice(&count.to_be_bytes());
            bytes.extend_from_slice(&total.to_be_bytes());
        }
        sha256(&bytes)
    }

    /// Total frames observed so far.
    pub fn frames(&self) -> u64 {
        self.links
            .lock()
            .expect("transcript lock")
            .values()
            .map(|(c, _)| c)
            .sum()
    }
}

impl FrameSink for TranscriptAccumulator {
    fn on_frame(&self, from: usize, to: usize, payload_bytes: usize) {
        let mut links = self.links.lock().expect("transcript lock");
        let entry = links.entry((from, to)).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += payload_bytes as u64;
    }
}

/// One logged adaptive decision: which subject was decided, the
/// transcript digest it conditioned on, the derived draw, and the
/// choice made. Two runs replay identically iff their decision logs
/// are equal element-wise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Subject label, e.g. `"device 3"` or `"aggregator"`.
    pub subject: String,
    /// Transcript digest at the moment of the decision.
    pub digest: [u8; 32],
    /// The 64-bit draw derived from `(seed, domain, index, digest)`.
    pub draw: u64,
    /// Debug rendering of the chosen behavior.
    pub choice: String,
}

/// Everything an adaptive run actually decided, snapshot after the
/// fact for cross-checking detections against injected behaviors.
#[derive(Clone, Debug, Default)]
pub struct RealizedSchedule {
    /// Device decisions, by registry index (only queried devices).
    pub device_behaviors: BTreeMap<usize, DeviceBehavior>,
    /// Seat decisions, by `(committee, member)` (only queried seats).
    pub committee_behaviors: BTreeMap<(usize, usize), CommitteeBehavior>,
    /// The aggregator decision, if the executor reached the barrier.
    pub aggregator: Option<AggregatorBehavior>,
    /// The per-committee network faults, if the net phase ran.
    pub net_faults: Option<Vec<NetFault>>,
    /// The full ordered decision log.
    pub decisions: Vec<Decision>,
}

impl RealizedSchedule {
    /// Registry indices of devices decided corrupt.
    pub fn corrupt_devices(&self) -> Vec<usize> {
        self.device_behaviors
            .iter()
            .filter(|(_, b)| **b != DeviceBehavior::Honest)
            .map(|(i, _)| *i)
            .collect()
    }
}

#[derive(Debug, Default)]
struct AdaptiveState {
    devices: BTreeMap<usize, DeviceBehavior>,
    corrupt_devices: usize,
    committees: BTreeMap<(usize, usize), CommitteeBehavior>,
    corrupt_seats: BTreeMap<usize, usize>,
    aggregator: Option<AggregatorBehavior>,
    net_faults: Option<Vec<NetFault>>,
    log: Vec<Decision>,
}

/// An adversary whose every decision is a pure function of
/// `(seed, observed-transcript-prefix)` — see the module docs for the
/// determinism argument and the threshold caps.
#[derive(Debug)]
pub struct AdaptiveSchedule {
    seed: u64,
    n_devices: usize,
    aggregator_axis: bool,
    transcript: Arc<TranscriptAccumulator>,
    state: Mutex<AdaptiveState>,
}

impl AdaptiveSchedule {
    /// A fresh adaptive adversary for `n_devices` uploading devices.
    ///
    /// `aggregator_axis` enables the malicious-aggregator decision at
    /// the ⊞-aggregation barrier; without it the aggregator stays
    /// honest (so the device/committee axes can be tested alone).
    ///
    /// # Panics
    ///
    /// Panics if `n_devices == 0`.
    pub fn new(seed: u64, n_devices: usize, aggregator_axis: bool) -> Self {
        assert!(n_devices > 0, "schedule needs at least one device");
        Self {
            seed,
            n_devices,
            aggregator_axis,
            transcript: Arc::new(TranscriptAccumulator::new()),
            state: Mutex::new(AdaptiveState::default()),
        }
    }

    /// The transcript this adversary conditions on (shared with every
    /// transport the executor attaches the sink to).
    pub fn transcript(&self) -> &TranscriptAccumulator {
        &self.transcript
    }

    /// Decides (and logs) the per-committee network faults for a net
    /// phase with `n_committees` committees, conditioned on the
    /// transcript observed so far. Memoized: later calls return the
    /// first decision regardless of `n_committees`.
    pub fn net_faults(&self, n_committees: usize) -> Vec<NetFault> {
        let mut state = self.state.lock().expect("adaptive state lock");
        if let Some(faults) = &state.net_faults {
            return faults.clone();
        }
        let digest = self.transcript.digest();
        let mut faults: Vec<NetFault> = (0..n_committees)
            .map(|c| {
                let r = seed_draw_with(self.seed, b"adaptive-net", c as u64, &digest);
                let party = ((r >> 3) % COMMITTEE_SEATS as u64) as usize;
                let fault = match r % 8 {
                    0 => NetFault::Crash { party },
                    1 => NetFault::Partition { a: 0, b: 1 },
                    2 | 3 => NetFault::Slow { party },
                    _ => NetFault::None,
                };
                state.log.push(Decision {
                    subject: format!("net committee {c}"),
                    digest,
                    draw: r,
                    choice: format!("{fault:?}"),
                });
                fault
            })
            .collect();
        if faults.iter().all(NetFault::is_fatal) {
            // The failover chain must terminate (same guarantee as the
            // static schedule).
            faults[n_committees - 1] = NetFault::None;
            if let Some(d) = state.log.last_mut() {
                d.choice = format!("{:?}", NetFault::None);
            }
        }
        state.net_faults = Some(faults.clone());
        faults
    }

    /// Snapshot of everything decided so far.
    pub fn realized(&self) -> RealizedSchedule {
        let state = self.state.lock().expect("adaptive state lock");
        RealizedSchedule {
            device_behaviors: state.devices.clone(),
            committee_behaviors: state.committees.clone(),
            aggregator: state.aggregator,
            net_faults: state.net_faults.clone(),
            decisions: state.log.clone(),
        }
    }
}

impl Adversary for AdaptiveSchedule {
    fn device_behavior(&self, _window: usize, device: usize) -> DeviceBehavior {
        let mut state = self.state.lock().expect("adaptive state lock");
        if let Some(b) = state.devices.get(&device) {
            return *b;
        }
        let digest = self.transcript.digest();
        let r = seed_draw_with(self.seed, b"adaptive-device", device as u64, &digest);
        let cap = (self.n_devices / 3).min(self.n_devices.saturating_sub(SORTITION_FLOOR));
        // Last-queried-device force: every adaptive run must exercise
        // at least one device attack, like the static schedule.
        let force = device + 1 == self.n_devices && state.corrupt_devices == 0 && cap > 0;
        let behavior = if state.corrupt_devices < cap && (r % 100 < 35 || force) {
            state.corrupt_devices += 1;
            device_catalog(r / 100)
        } else {
            DeviceBehavior::Honest
        };
        state.devices.insert(device, behavior);
        state.log.push(Decision {
            subject: format!("device {device}"),
            digest,
            draw: r,
            choice: format!("{behavior:?}"),
        });
        behavior
    }

    fn committee_behavior(&self, committee: usize, member: usize) -> CommitteeBehavior {
        let mut state = self.state.lock().expect("adaptive state lock");
        if let Some(b) = state.committees.get(&(committee, member)) {
            return *b;
        }
        let digest = self.transcript.digest();
        let index = (committee * COMMITTEE_SEATS + member) as u64;
        let r = seed_draw_with(self.seed, b"adaptive-committee", index, &digest);
        let seated = state.corrupt_seats.entry(committee).or_insert(0);
        let candidate = match r % 10 {
            0 => CommitteeBehavior::StaleSignature,
            1 => CommitteeBehavior::EquivocateCommit,
            2 => CommitteeBehavior::InconsistentVsrShares,
            _ => CommitteeBehavior::Honest,
        };
        // Honest-majority cap: at most t = 2 corrupt seats.
        let behavior = if candidate != CommitteeBehavior::Honest && *seated < 2 {
            *seated += 1;
            candidate
        } else {
            CommitteeBehavior::Honest
        };
        state.committees.insert((committee, member), behavior);
        state.log.push(Decision {
            subject: format!("committee {committee} seat {member}"),
            digest,
            draw: r,
            choice: format!("{behavior:?}"),
        });
        behavior
    }

    fn aggregator_behavior(&self) -> AggregatorBehavior {
        let mut state = self.state.lock().expect("adaptive state lock");
        if let Some(b) = state.aggregator {
            return b;
        }
        let behavior = if self.aggregator_axis {
            let digest = self.transcript.digest();
            let r = seed_draw_with(self.seed, b"adaptive-aggregator", 0, &digest);
            let d = seed_draw_with(self.seed, b"adaptive-aggregator-target", 0, &digest);
            let behavior = match r % 6 {
                0 => AggregatorBehavior::WrongPartialSum,
                1 => AggregatorBehavior::DropUpload { draw: d },
                2 => AggregatorBehavior::ForgedLeaf { draw: d },
                3 => AggregatorBehavior::ForgedRoot,
                4 => AggregatorBehavior::ReorderedSteps { draw: d },
                _ => AggregatorBehavior::EquivocatingResponses { draw: d },
            };
            state.log.push(Decision {
                subject: "aggregator".into(),
                digest,
                draw: r,
                choice: format!("{behavior:?}"),
            });
            behavior
        } else {
            AggregatorBehavior::Honest
        };
        state.aggregator = Some(behavior);
        behavior
    }

    fn traffic_sink(&self) -> Option<SharedSink> {
        Some(SharedSink::new(self.transcript.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_digest_is_order_insensitive() {
        let a = TranscriptAccumulator::new();
        let b = TranscriptAccumulator::new();
        a.on_frame(0, 1, 100);
        a.on_frame(2, 3, 50);
        a.on_frame(0, 1, 7);
        b.on_frame(0, 1, 7);
        b.on_frame(0, 1, 100);
        b.on_frame(2, 3, 50);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.frames(), 3);
        b.on_frame(4, 0, 1);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn decisions_are_memoized_and_transcript_sensitive() {
        let s = AdaptiveSchedule::new(7, 48, true);
        let before = s.device_behavior(0, 0);
        s.transcript().on_frame(0, 1, 64);
        // Memoized: the same query never flips after new traffic.
        assert_eq!(s.device_behavior(0, 0), before);
        // But a fresh schedule seeing different traffic first may
        // decide differently — the decision conditioned on the digest.
        let t = AdaptiveSchedule::new(7, 48, true);
        t.transcript().on_frame(0, 1, 64);
        let log_s = &s.realized().decisions[0];
        let t0 = t.device_behavior(0, 0);
        let log_t = &t.realized().decisions[0];
        assert_ne!(log_s.digest, log_t.digest);
        assert_ne!(log_s.draw, log_t.draw);
        let _ = t0;
    }

    #[test]
    fn replays_identically_for_identical_transcripts() {
        let runs: Vec<RealizedSchedule> = (0..2)
            .map(|_| {
                let s = AdaptiveSchedule::new(11, 48, true);
                s.transcript().on_frame(1, 2, 32);
                for i in 0..48 {
                    s.device_behavior(0, i);
                }
                s.transcript().on_frame(2, 1, 16);
                for c in 0..3 {
                    for m in 0..COMMITTEE_SEATS {
                        s.committee_behavior(c, m);
                    }
                }
                s.aggregator_behavior();
                s.net_faults(3);
                s.realized()
            })
            .collect();
        assert_eq!(runs[0].decisions, runs[1].decisions);
        assert_eq!(runs[0].device_behaviors, runs[1].device_behaviors);
        assert_eq!(runs[0].aggregator, runs[1].aggregator);
        assert_eq!(runs[0].net_faults, runs[1].net_faults);
    }

    #[test]
    fn caps_hold_under_adversarial_query_order() {
        let s = AdaptiveSchedule::new(3, 48, true);
        // Query devices in reverse to stress the running caps.
        for i in (0..48).rev() {
            s.device_behavior(0, i);
        }
        let realized = s.realized();
        let corrupt = realized.corrupt_devices().len();
        assert!(corrupt >= 1, "no corrupt device");
        assert!(corrupt <= 16, "exceeds n/3: {corrupt}");
        for c in 0..4 {
            for m in 0..COMMITTEE_SEATS {
                s.committee_behavior(c, m);
            }
            let bad = (0..COMMITTEE_SEATS)
                .filter(|m| s.committee_behavior(c, *m) != CommitteeBehavior::Honest)
                .count();
            assert!(bad <= 2, "committee {c} corrupts {bad} > t seats");
        }
        let faults = s.net_faults(3);
        assert!(faults.iter().any(|f| !f.is_fatal()));
    }

    #[test]
    fn at_least_one_device_attack_is_forced() {
        for seed in 0..8u64 {
            let s = AdaptiveSchedule::new(seed, 48, false);
            for i in 0..48 {
                s.device_behavior(0, i);
            }
            assert!(
                !s.realized().corrupt_devices().is_empty(),
                "seed {seed} decided an all-honest device set"
            );
        }
    }
}
