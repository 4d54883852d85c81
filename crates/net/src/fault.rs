//! Fault schedules: message loss, party crashes, link partitions, and
//! slow senders, as data.
//!
//! A [`FaultPlan`] is carried in [`crate::EventedConfig::faults`] and
//! applied by the evented fabric as events on its virtual clock (the
//! rules — operation counting, check order, drop sampling — are
//! specified where they are implemented, in `evented/fabric.rs`).
//!
//! Faults compose with the failover machinery in `arboretum-runtime`:
//! a crashed party's operations return [`NetError::Crashed`], its peers
//! observe [`NetError::Timeout`], the committee's MPC engine returns the
//! error, and churn reassignment decides which committee takes over.
//! Nothing blocks.

#[cfg(doc)]
use crate::transport::NetError;

/// A deterministic fault schedule for one committee run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that any given send is silently lost
    /// before reaching the wire (the receiver sees a timeout).
    pub drop_prob: f64,
    /// Parties that crash after performing the given number of
    /// transport operations (sends + receives). From then on all their
    /// operations return [`NetError::Crashed`].
    pub crash_after_ops: Vec<(usize, u64)>,
    /// Undirected party pairs whose links are partitioned: sends in
    /// either direction return [`NetError::Partitioned`].
    pub partitions: Vec<(usize, usize)>,
    /// Extra delay, in seconds, charged to the given party's virtual
    /// clock before each of its sends (a slow or overloaded member).
    pub slow: Vec<(usize, f64)>,
    /// Seed for the drop-sampling streams: every party draws from its
    /// own stream, and all of them start from this seed.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan in which `party` crashes after `ops` transport operations.
    pub fn crash(party: usize, ops: u64) -> Self {
        Self {
            crash_after_ops: vec![(party, ops)],
            ..Self::default()
        }
    }

    /// A plan losing each message independently with probability `p`.
    pub fn lossy(p: f64, seed: u64) -> Self {
        Self {
            drop_prob: p,
            seed,
            ..Self::default()
        }
    }

    pub(crate) fn crash_threshold(&self, party: usize) -> Option<u64> {
        self.crash_after_ops
            .iter()
            .find(|&&(p, _)| p == party)
            .map(|&(_, n)| n)
    }

    pub(crate) fn partitioned(&self, a: usize, b: usize) -> bool {
        self.partitions
            .iter()
            .any(|&(x, y)| (x, y) == (a, b) || (y, x) == (a, b))
    }

    pub(crate) fn slowdown(&self, party: usize) -> Option<f64> {
        self.slow
            .iter()
            .find(|&&(p, _)| p == party)
            .map(|&(_, s)| s)
    }
}
