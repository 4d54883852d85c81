//! Seed-deterministic adversary harness for the Arboretum runtime.
//!
//! The paper's security argument (§5) is a list of claims of the form
//! "a malicious X is detected by check Y". This crate turns each claim
//! into an executable experiment: an [`AdversarySchedule`] — a pure
//! function of `(seed, n_devices, n_committees)` — assigns every
//! simulated device and committee member a behavior from the Byzantine
//! catalog and every committee a network fault, the harness runs the
//! full pipeline under that schedule, and an [`AttackOutcome`]
//! cross-checks the result against an honest reference run:
//!
//! * every injected behavior is flagged with the right typed
//!   [`DetectionKind`](arboretum_runtime::DetectionKind) and attributed
//!   to the right subject;
//! * no honest device or committee member is ever flagged;
//! * the surviving-set answer, privacy-budget ledger, and audit verdict
//!   are bitwise identical to the honest reference run;
//! * the networked MPC phase completes on a committee whose fault is
//!   survivable, failing over past every committee whose fault is not.
//!
//! Everything is derived from the seed, so any failing run reproduces
//! bitwise with `arboretum attack --seed N`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod forgery;
pub mod harness;
pub mod schedule;
pub mod stream;

pub use adaptive::{AdaptiveSchedule, Decision, RealizedSchedule, TranscriptAccumulator};
pub use forgery::{forgery_plan, run_forgery_sweep, Corruption, ForgeryPlan};
pub use harness::{
    build_attack_catalog, dump_failure_artifact, run_attack, run_attack_on_catalog,
    AdversarialReport, AttackConfig, AttackOutcome,
};
pub use schedule::{AdversarySchedule, NetFault};
pub use stream::{
    dump_stream_failure_artifact, run_stream_attack, StreamAttackConfig, StreamAttackOutcome,
    StreamAttackSchedule,
};
