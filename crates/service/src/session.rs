//! Analyst identity, typed service errors, and the admission audit
//! stream.

use arboretum_crypto::sha256::sha256;
use arboretum_dp::budget::{LedgerBookError, PrivacyCost};
use arboretum_runtime::executor::ExecError;

/// A stable seed tag for an analyst name: the first 8 big-endian bytes
/// of `sha256(name)`.
///
/// Per-query randomness is seeded from `catalog seed ^ analyst_tag ^
/// f(sequence number)`, which makes a query's output a pure function
/// of *who* submitted it and *their* sequence position — never of how
/// submissions from different analysts interleaved.
pub fn analyst_tag(name: &str) -> u64 {
    let d = sha256(name.as_bytes());
    u64::from_be_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]])
}

/// A query's global admission index: assigned atomically at submit
/// time, in submission order, across all analysts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Typed service errors.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// A ledger refused the submission; no ledger moved.
    Ledger(LedgerBookError),
    /// The query failed to parse, certify, or plan.
    Plan(String),
    /// The runtime failed executing an admitted query.
    Exec(ExecError),
    /// A streamed submission asked for more ingestion windows than the
    /// deployment has devices; nothing was planned, charged or logged.
    TooManyWindows {
        /// The window count asked for.
        windows: usize,
        /// The deployment size, the most windows an arrival can fill.
        devices: usize,
    },
    /// No analyst session is open under that name.
    UnknownAnalyst(String),
    /// No such query id was ever admitted.
    UnknownQuery(u64),
    /// The service is shutting down.
    ShutDown,
    /// A thread panicked while holding the named lock (`"admission"` or
    /// `"catalog"`), so what it guards may be half-updated; nothing
    /// further is admitted or executed under it.
    Poisoned(&'static str),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Ledger(e) => write!(f, "budget: {e}"),
            Self::Plan(e) => write!(f, "plan: {e}"),
            Self::Exec(e) => write!(f, "execution: {e}"),
            Self::TooManyWindows { windows, devices } => write!(
                f,
                "{windows} windows exceed the deployment's {devices} devices"
            ),
            Self::UnknownAnalyst(a) => write!(f, "no session open for analyst {a:?}"),
            Self::UnknownQuery(id) => write!(f, "unknown query id {id}"),
            Self::ShutDown => write!(f, "service is shutting down"),
            Self::Poisoned(lock) => write!(f, "a thread panicked holding the {lock} lock"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<LedgerBookError> for ServiceError {
    fn from(e: LedgerBookError) -> Self {
        Self::Ledger(e)
    }
}

impl From<ExecError> for ServiceError {
    fn from(e: ExecError) -> Self {
        Self::Exec(e)
    }
}

/// One admission decision, recorded in submission order.
///
/// The audit stream is part of the determinism contract: a concurrent
/// run and its serial replay must produce bitwise-identical records
/// (budgets included) for the same admission sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditRecord {
    /// Position in the admission sequence (0-based, all analysts).
    pub index: u64,
    /// The submitting analyst.
    pub analyst: String,
    /// The analyst's own 0-based sequence number for this submission.
    pub seq: u64,
    /// The admitted query's id; `None` when the submission was refused.
    pub query_id: Option<QueryId>,
    /// The composed privacy cost the query asked for.
    pub cost: PrivacyCost,
    /// Why the submission was refused, if it was.
    pub refusal: Option<String>,
    /// The analyst's remaining budget after the decision.
    pub analyst_remaining: PrivacyCost,
    /// The deployment-wide remaining budget after the decision.
    pub deployment_remaining: PrivacyCost,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_stable_and_distinct() {
        assert_eq!(analyst_tag("alice"), analyst_tag("alice"));
        assert_ne!(analyst_tag("alice"), analyst_tag("bob"));
    }

    #[test]
    fn query_ids_order_and_print() {
        assert!(QueryId(1) < QueryId(2));
        assert_eq!(QueryId(7).to_string(), "q7");
    }
}
