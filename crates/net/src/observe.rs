//! Passive frame observation for adaptive adversaries.
//!
//! An adaptive adversary conditions its behavior on the protocol
//! traffic it can see. [`FrameSink`] is the tap: every fabric calls
//! `on_frame` for each frame that actually enters the wire (dropped
//! frames never reach the sink, so both fabrics observe identical
//! traffic). The sink is strictly read-only — it
//! cannot delay, reorder, or mutate frames — so wiring one up never
//! changes transport behavior, metrics, or outputs.
//!
//! Sinks must be order-insensitive to stay deterministic: a committee
//! of per-party evented endpoints delivers `on_frame` calls from many
//! OS threads in scheduling-dependent order, so a sink that accumulates
//! per-link totals (counts and byte sums) observes the same state on
//! every fabric and at every thread count, while a sink that records a
//! global sequence would not.

use std::fmt;
use std::sync::Arc;

/// A passive observer of frames entering the wire.
///
/// `on_frame` receives the sender, receiver, and *payload* byte count
/// (framing excluded, matching [`crate::TransportMetrics`]'s payload
/// accounting). Implementations must be `Send + Sync`: per-party
/// endpoints invoke the sink from every party's thread.
pub trait FrameSink: Send + Sync {
    /// Called once per frame that enters the wire.
    fn on_frame(&self, from: usize, to: usize, payload_bytes: usize);
}

/// A cheaply clonable, shareable [`FrameSink`] handle.
///
/// Fabric configs carry an `Option<SharedSink>`; `None` costs nothing
/// on the send path beyond one branch.
#[derive(Clone)]
pub struct SharedSink(Arc<dyn FrameSink>);

impl SharedSink {
    /// Wraps a sink for sharing across endpoints and threads.
    pub fn new(sink: Arc<dyn FrameSink>) -> Self {
        Self(sink)
    }

    /// Forwards one frame observation to the underlying sink.
    pub fn on_frame(&self, from: usize, to: usize, payload_bytes: usize) {
        self.0.on_frame(from, to, payload_bytes);
    }
}

impl fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SharedSink")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct Counter(AtomicU64, AtomicU64);

    impl FrameSink for Counter {
        fn on_frame(&self, _from: usize, _to: usize, payload_bytes: usize) {
            self.0.fetch_add(1, Ordering::Relaxed);
            self.1.fetch_add(payload_bytes as u64, Ordering::Relaxed);
        }
    }

    #[test]
    fn shared_sink_forwards_and_clones() {
        let counter = Arc::new(Counter::default());
        let sink = SharedSink::new(counter.clone());
        let sink2 = sink.clone();
        sink.on_frame(0, 1, 16);
        sink2.on_frame(1, 0, 8);
        assert_eq!(counter.0.load(Ordering::Relaxed), 2);
        assert_eq!(counter.1.load(Ordering::Relaxed), 24);
        assert_eq!(format!("{sink:?}"), "SharedSink");
    }
}
