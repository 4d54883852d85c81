//! Sortition for Arboretum committees (§5.1).
//!
//! Two halves:
//!
//! * [`size`] — the failure-probability model that picks the minimum
//!   committee size `m(c, f, g, p1)`: honest majority in all `c`
//!   committees even after `g` churn, except with probability `p1`.
//! * [`select`] — the hash-based selection protocol: deterministic
//!   signatures over a random beacon, lowest `c·m` ticket hashes seated,
//!   Merkle-pinned device registry, and beacon evolution from committee
//!   randomness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod select;
pub mod size;

pub use select::{
    make_ticket, make_ticket_with_msg, next_block, seat_committees, select_committees,
    select_committees_on, sortition_message, verify_ticket, verify_tickets_batch, Committees,
    Device, Registry, Ticket,
};
pub use size::{ln_committee_failure, min_committee_size, SortitionParams};
