//! The [`Transport`] abstraction over committee message fabrics.
//!
//! Two fabrics implement it: [`crate::sim::SimTransport`] delivers
//! instantly in-process (the planner's analytic path), and
//! [`crate::evented`] schedules frames on per-party virtual clocks with
//! modeled link latency, timeouts and faults — as one act-as-anyone
//! [`crate::EventedFabric`] or as per-party blocking
//! [`crate::EventedEndpoint`]s moved into OS threads. All meter the same
//! quantities so measured and modeled costs can be compared exactly.

use crate::wire::{Message, WireError};

/// Communication metrics accumulated by a transport.
///
/// `payload_bytes_*` counts exclude the 8-byte frame header so they are
/// directly comparable with `arboretum-mpc`'s analytic `NetMeter` (which
/// models protocol payloads); `framed_bytes_total` includes headers and
/// is what a real socket would carry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransportMetrics {
    /// Communication rounds (the maximum over parties' round counters).
    pub rounds: u64,
    /// Payload bytes sent, summed over parties.
    pub payload_bytes_total: u64,
    /// Payload bytes sent by the busiest party.
    pub payload_bytes_max: u64,
    /// Frames sent.
    pub frames: u64,
    /// Total bytes on the wire including frame headers.
    pub framed_bytes_total: u64,
}

/// Errors surfaced by transports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No message arrived from `from` at party `at` within the timeout.
    Timeout {
        /// The waiting party.
        at: usize,
        /// The expected sender.
        from: usize,
    },
    /// The link to `peer` is closed (its endpoint was dropped).
    Closed {
        /// The unreachable party.
        peer: usize,
    },
    /// The acting party has crashed (fault injection).
    Crashed {
        /// The crashed party.
        party: usize,
    },
    /// The link between two parties is partitioned (fault injection).
    Partitioned {
        /// Sender side.
        from: usize,
        /// Receiver side.
        to: usize,
    },
    /// A frame failed to decode.
    Wire(WireError),
    /// A party addressed itself or an out-of-range peer.
    BadAddress {
        /// The offending index.
        party: usize,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Timeout { at, from } => {
                write!(f, "party {at} timed out waiting for party {from}")
            }
            Self::Closed { peer } => write!(f, "link to party {peer} is closed"),
            Self::Crashed { party } => write!(f, "party {party} has crashed"),
            Self::Partitioned { from, to } => {
                write!(f, "link {from} -> {to} is partitioned")
            }
            Self::Wire(e) => write!(f, "wire error: {e}"),
            Self::BadAddress { party } => write!(f, "bad party address {party}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// A message fabric connecting the `m` parties of one committee.
///
/// The same trait serves two call shapes: the analytic simulator holds
/// one `SimTransport` and animates every party through it, while
/// each thread of a distributed run owns one `EventedEndpoint` and may
/// only act as itself (`from`/`at` must equal the endpoint's own id).
pub trait Transport: Send {
    /// Number of parties on this fabric.
    fn parties(&self) -> usize;

    /// This endpoint's own party id (simulated fabrics, which can act as
    /// anyone, return `None`).
    fn local_party(&self) -> Option<usize>;

    /// Sends `msg` from party `from` to party `to`, returning the
    /// payload byte count that was framed onto the link.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] for bad addresses, closed links, or injected
    /// faults.
    fn send(&mut self, from: usize, to: usize, msg: &Message) -> Result<usize, NetError>;

    /// Receives the next message at party `at` from party `from`,
    /// blocking (per-party endpoints) up to its configured timeout.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Timeout`] rather than blocking forever, and
    /// [`NetError::Wire`] if the frame fails to decode.
    fn recv(&mut self, at: usize, from: usize) -> Result<Message, NetError>;

    /// Marks that party `at` finished a communication round. The global
    /// round count is the maximum over parties, so lockstep protocols
    /// may call this for every party (or only for themselves).
    fn round(&mut self, at: usize);

    /// A snapshot of the fabric-wide metrics.
    fn metrics(&self) -> TransportMetrics;
}
