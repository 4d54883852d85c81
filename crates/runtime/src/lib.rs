//! Arboretum's query runtime (§5).
//!
//! Executes planner-produced physical plans on a simulated deployment:
//! sortition seats the committees, the key-generation committee produces
//! the BGV keypair and a signed query-authorization certificate,
//! participants upload encrypted one-hot inputs with zero-knowledge
//! well-formedness proofs, the aggregator (or a participant sum tree)
//! aggregates homomorphically, VSR hands the key to the decryption
//! committee, MPC vignettes noise and select, and the aggregator's
//! step log is spot-audited by participants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod audit;
pub mod executor;
pub mod mpc_eval;
pub mod net_exec;
pub mod setup;
pub mod stream;

pub use adversary::{
    Adversary, AggregatorBehavior, CommitteeBehavior, Detection, DetectionClass, DetectionKind,
    DeviceBehavior, HonestAdversary, Subject,
};
pub use audit::{
    adversarial_audit, audit, challenges_per_device, collate_detection, ChallengeRecord, StepLog,
    StepResponse, DROPPED_MARKER,
};
pub use executor::{execute, Deployment, ExecError, ExecutionConfig, ExecutionReport, QueryCert};
pub use mpc_eval::{MVal, MechStyle, MpcEvalError, MpcEvaluator};
pub use net_exec::{
    reassign_for_churn, run_with_failover, NetExecConfig, NetExecError, NetExecReport,
};
pub use setup::{build_session_setup, SessionSetup, SetupCounters, SETUP_ROLES};
pub use stream::{
    execute_stream, ArrivalSchedule, StreamExecutor, StreamReport, WindowCheckpoint,
    DEFAULT_STREAM_CHUNK,
};
