//! Arboretum's query planner (§4).
//!
//! The planner turns a certified query into an executable distributed
//! plan in four steps:
//!
//! 1. [`logical`] — extract the sequence of high-level operators
//!    (aggregate, score prep, mechanism, post-process) from the AST;
//! 2. [`plan`] — the physical vocabulary: vignettes, placements
//!    (aggregator / committees / participants), encryption schemes, and
//!    per-vignette scoring;
//! 3. [`cost`] — the calibrated cost model and the six analyst metrics;
//! 4. [`search`] — exhaustive enumeration of instantiation × placement
//!    alternatives with branch-and-bound pruning against the analyst's
//!    limits and goal.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![warn(missing_docs)]

pub mod cache;
pub mod cost;
pub mod encryption;
pub mod logical;
pub mod plan;
pub mod search;

pub use cache::{CachedPlan, PlanCache, PlanCacheError, QuerySignature};
pub use cost::{CostModel, Goal, Limits, Metrics};
pub use encryption::{validate as validate_encryption, EncryptionError};
pub use logical::{extract, ExtractError, LogicalOp, LogicalPlan, MechanismKind};
pub use plan::{assemble, vignette, CommitteeRole, Location, PhysOp, Plan, Scheme, Vignette};
pub use search::{plan as make_plan, PlanError, PlanStats, PlannerConfig};
