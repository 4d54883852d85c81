//! Adaptive adversaries: the schedule that observes traffic.
//!
//! An adaptive schedule is the one decider of [`crate::schedule`] with a
//! transcript attached. Its `traffic_sink` taps every transport the
//! executor creates through a read-only
//! [`FrameSink`](arboretum_net::FrameSink), which folds the observed
//! frames into an order-insensitive [`TranscriptAccumulator`]. Each
//! decision is made at the moment the runtime first asks for it, from
//! SHA-256 over `(seed, domain, index, digest)` where `digest` is the
//! transcript digest at that instant — the same rules, domains and caps
//! as the static schedule, which is the case of an empty `digest`.
//! Decisions are memoized, so re-asking never flips an answer.
//!
//! Determinism argument: every decision point in the executor sits on a
//! serial, seed-deterministic section (a window's device decisions
//! before its parallel upload phase, seat decisions when the certificate
//! is signed and at the close handoff, the aggregator's just before the
//! first fold), and the net faults are decided only after the epoch, so
//! the transcript prefix at each query — and therefore every decision —
//! is identical across thread and shard counts. Both fabrics put the
//! same frame multiset on the wire for the same protocol, so it is
//! identical across fabrics too. The accumulator's digest sorts link
//! totals before hashing, so concurrent frames fold in
//! order-insensitively. The [`Decision`](crate::Decision) log records
//! `(subject, digest, draw, choice)` per decision; two runs agree iff
//! their logs are equal, and a diverging log is a complete, replayable
//! bug report.

use std::collections::BTreeMap;
use std::sync::Mutex;

use arboretum_crypto::sha256::sha256;
use arboretum_net::FrameSink;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Decider, COMMITTEE_SEATS};
    use crate::{AdversarySchedule, AttackConfig};
    use arboretum_runtime::{Adversary, CommitteeBehavior};

    fn adaptive(seed: u64, aggregator: bool) -> Decider {
        Decider::new(&AttackConfig {
            adaptive: true,
            aggregator,
            ..AttackConfig::new(seed)
        })
    }

    fn observe(s: &Decider, from: usize, to: usize, bytes: usize) {
        s.traffic_sink()
            .expect("an adaptive schedule observes")
            .on_frame(from, to, bytes);
    }

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
        let s = adaptive(7, true);
        let before = s.device_behavior(0, 0);
        observe(&s, 0, 1, 64);
        // Memoized: the same query never flips after new traffic.
        assert_eq!(s.device_behavior(0, 0), before);
        // But a fresh schedule seeing different traffic first may
        // decide differently — the decision conditioned on the digest.
        let t = adaptive(7, true);
        observe(&t, 0, 1, 64);
        t.device_behavior(0, 0);
        let log_s = &s.snapshot().decisions[0];
        let log_t = &t.snapshot().decisions[0];
        assert_ne!(log_s.digest, log_t.digest);
        assert_ne!(log_s.draw, log_t.draw);
        // The static schedule is the one that observes nothing.
        assert!(s.traffic_sink().is_some());
        assert!(Decider::new(&AttackConfig::new(7)).traffic_sink().is_none());
    }

    #[test]
    fn both_schedules_draw_from_one_rule() {
        // Each device draw is `seed_draw_with(seed, "device", i,
        // observed)`: the empty transcript's digest for an adaptive
        // schedule nobody has talked to yet, nothing for the static one.
        use arboretum_crypto::sha256::seed_draw_with;
        let s = adaptive(9, false);
        for i in 0..48 {
            s.device_behavior(0, i);
        }
        let empty = TranscriptAccumulator::new().digest();
        for (schedule, observed) in [
            (s.snapshot(), Some(empty)),
            (AdversarySchedule::new(9, 48, 3), None),
        ] {
            for (i, d) in schedule.decisions[..48].iter().enumerate() {
                assert_eq!(d.subject, format!("device {i}"));
                assert_eq!(d.digest, observed);
                let extra = observed.as_ref().map_or(&[][..], |d| &d[..]);
                assert_eq!(d.draw, seed_draw_with(9, b"device", i as u64, extra));
            }
        }
    }

    #[test]
    fn replays_identically_for_identical_transcripts() {
        let runs: Vec<AdversarySchedule> = (0..2)
            .map(|_| {
                let s = adaptive(11, true);
                observe(&s, 1, 2, 32);
                for i in 0..48 {
                    s.device_behavior(0, i);
                }
                observe(&s, 2, 1, 16);
                for c in 0..3 {
                    for m in 0..COMMITTEE_SEATS {
                        s.committee_behavior(c, m);
                    }
                }
                s.aggregator_behavior();
                s.snapshot()
            })
            .collect();
        assert_eq!(runs[0].decisions, runs[1].decisions);
        assert_eq!(runs[0].device_behaviors, runs[1].device_behaviors);
        assert_eq!(runs[0].aggregator, runs[1].aggregator);
        assert_eq!(runs[0].net_faults, runs[1].net_faults);
    }

    #[test]
    fn caps_hold_under_adversarial_query_order() {
        let s = adaptive(3, true);
        // Query devices in reverse to stress the running caps.
        for i in (0..48).rev() {
            s.device_behavior(0, i);
        }
        let corrupt = s.snapshot().corrupt_devices().len();
        assert!(corrupt >= 1, "no corrupt device");
        assert!(corrupt <= 16, "exceeds n/3: {corrupt}");
        for c in 0..3 {
            for m in (0..COMMITTEE_SEATS).rev() {
                s.committee_behavior(c, m);
            }
            let bad = (0..COMMITTEE_SEATS)
                .filter(|m| s.committee_behavior(c, *m) != CommitteeBehavior::Honest)
                .count();
            assert!(bad <= 2, "committee {c} corrupts {bad} > t seats");
        }
        assert!(s.snapshot().net_faults.iter().any(|f| !f.is_fatal()));
    }

    #[test]
    fn at_least_one_device_attack_is_forced() {
        for seed in 0..8u64 {
            let s = adaptive(seed, false);
            for i in 0..48 {
                s.device_behavior(0, i);
            }
            assert!(
                !s.snapshot().corrupt_devices().is_empty(),
                "seed {seed} decided an all-honest device set"
            );
        }
    }
}
