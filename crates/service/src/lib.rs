//! Multi-tenant analytics service (§5's standing-deployment story).
//!
//! Arboretum is designed as a long-lived service: analysts submit
//! streams of queries against a persistent device population while the
//! dominant fixed costs — sortition and BGV key generation — are paid
//! once and amortized across the stream. This crate turns the one-shot
//! planner/runtime into that service:
//!
//! * [`catalog`] — a [`SessionCatalog`] holding the persistent
//!   deployment, the cached [`SessionSetup`](arboretum_runtime::setup)
//!   (sortition roster + BGV keypair + metered keygen), a
//!   [`PlanCache`](arboretum_planner::cache::PlanCache) keyed on the
//!   full query signature, and the [`LedgerBook`](arboretum_dp::budget)
//!   of per-analyst privacy-budget ledgers;
//! * [`session`] — analyst identity (seed tags) and the admission
//!   [`AuditRecord`] stream;
//! * [`scheduler`] — worker threads multiplexing concurrent queries
//!   over the shared setup and a leased [`PoolBank`](arboretum_par);
//! * [`handle`] — [`ServiceHandle`], the in-process API the CLI,
//!   examples, and tests all drive;
//! * [`protocol`] — the std-only line protocol behind `arboretum
//!   serve`.
//!
//! # Determinism contract (serial equivalence)
//!
//! Admission is serialized: every submission, in submission order,
//! atomically (1) resolves its plan, (2) charges the analyst *and*
//! deployment ledgers all-or-nothing, and (3) receives the next global
//! query id. Execution afterwards is embarrassingly parallel: each
//! query's randomness is seeded from `(catalog seed, analyst tag,
//! per-analyst sequence number)` and runs against the immutable cached
//! setup, so its outputs never depend on scheduling. Consequently, for
//! any interleaving of analyst submissions and any worker/pool
//! configuration, per-query outputs, audit records, NetMeter totals,
//! and all ledgers are **bitwise identical** to a serial replay of the
//! same admission sequence (a zero-worker service). The determinism
//! tests in `tests/determinism.rs` enforce exactly this.
//!
//! # Ledger invariant
//!
//! A rejected submission leaves every ledger bitwise unchanged: the
//! [`LedgerBook`](arboretum_dp::budget::LedgerBook) charge is
//! all-or-nothing across the analyst's ledger and the deployment-wide
//! ledger, and rejection happens before a query id is assigned or any
//! execution starts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod handle;
pub mod protocol;
pub mod scheduler;
pub mod session;

pub use catalog::{CatalogConfig, SessionCatalog};
pub use handle::{ServiceConfig, ServiceHandle};
pub use protocol::serve_connection;
pub use session::{analyst_tag, AuditRecord, QueryId, ServiceError};
