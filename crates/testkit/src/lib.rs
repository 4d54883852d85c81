//! Seed-deterministic adversary harness for the Arboretum runtime.
//!
//! The paper's security argument (§5) is a list of claims of the form
//! "a malicious X is detected by check Y". This crate turns each claim
//! into an executable experiment: one seed-derived schedule assigns
//! every simulated device and committee member a behavior from the
//! Byzantine catalog, every committee a network fault and, in a
//! multi-window epoch, one seat a handoff crash. The schedule is decided
//! up front in index order, a pure function of `(seed, n_devices,
//! n_committees, windows)` (see [`schedule`]). [`run_attack`] runs one
//! ingestion epoch under that schedule (a batch query is the one-window
//! epoch), and an [`AttackOutcome`] cross-checks the result against the
//! [`AdversarySchedule`] and an honest reference epoch:
//!
//! * every injected behavior is flagged with the right typed
//!   [`DetectionKind`](arboretum_runtime::DetectionKind), attributed to
//!   the right subject in the right window;
//! * no honest device or committee member is ever flagged;
//! * the aggregator's audit fails exactly when the aggregator cheats;
//! * the surviving-set answer, privacy-budget ledger and certificate
//!   body are bitwise identical to the honest reference;
//! * the networked MPC phase completes on a committee whose fault is
//!   survivable, failing over past every committee whose fault is not.
//!
//! Everything is derived from the seed, so any failing run reproduces
//! bitwise with `arboretum attack --seed N [--windows W]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forgery;
pub mod harness;
pub mod schedule;

pub use forgery::{forgery_plan, run_forgery_sweep, Corruption, ForgeryPlan};
pub use harness::{
    build_attack_catalog, dump_failure_artifact, run_attack, AttackConfig, AttackOutcome,
};
pub use schedule::{AdversarySchedule, Decision, NetFault};

/// The harness over multi-window epochs.
#[cfg(test)]
mod stream {
    mod tests {
        use crate::harness::tests::pass;
        use crate::{AdversarySchedule, AttackConfig};
        use arboretum_runtime::DetectionClass;

        #[test]
        fn smoke_stream_attack_passes_all_cross_checks() {
            let cfg = AttackConfig {
                windows: 4,
                ..AttackConfig::new(3)
            };
            let outcome = pass(cfg, None);
            // Both the tamper and the crash fire, the crash in its boundary's window.
            let detections = &outcome.adversarial.detections;
            let crashes: Vec<_> = detections
                .iter()
                .filter(|d| d.kind.class() == DetectionClass::HandoffDropout)
                .collect();
            assert_eq!(crashes.len(), 1);
            assert_eq!(Some(crashes[0].window), outcome.schedule.crash.map(|c| c.0));
            assert!(detections.len() >= 2);
        }

        #[test]
        fn smoke_numeric_stream_attack_passes() {
            let cfg = AttackConfig {
                numeric: true,
                windows: 3,
                ..AttackConfig::new(7)
            };
            pass(cfg, None);
        }

        #[test]
        fn single_window_epoch_has_no_crash_and_one_detection() {
            // One window: no boundary, so no crash, and every detection
            // in the one window (a VSR cheat's close handoff included).
            let outcome = pass(AttackConfig::new(11), None);
            assert!(outcome.schedule.crash.is_none());
            assert!(!outcome.adversarial.detections.is_empty());
            assert!(outcome.adversarial.detections.iter().all(|d| d.window == 0));
        }

        #[test]
        fn schedule_is_a_pure_function_of_the_seed() {
            for seed in 0..32u64 {
                let s = |windows| AdversarySchedule::new(seed, 48, 3).with_windows(windows);
                let (a, batch) = (s(4), s(1));
                assert_eq!(a.crash, s(4).crash);
                // Windows add the crash and change nothing else.
                assert_eq!(batch.crash, None);
                assert_eq!(batch.device_behaviors, a.device_behaviors);
                assert_eq!(batch.committee_behaviors, a.committee_behaviors);
                assert_eq!(batch.net_faults, a.net_faults);
            }
        }
    }
}
