//! The per-party evented frontend: blocking endpoints over one shared
//! virtual-time core.
//!
//! [`evented_fabric`] hands out `m` [`EventedEndpoint`]s for
//! `Party`-closure code that runs one party per OS thread — each
//! endpoint can only act as itself and its `recv` blocks — but every
//! latency, jitter, and timeout is decided on the shared virtual clock,
//! so nothing ever sleeps and fault scenarios whose modeled timeouts
//! add up to seconds resolve instantly.
//!
//! Blocking semantics (the virtual-time contract, also documented in
//! the crate README):
//!
//! - A receive with a queued frame resolves immediately: delivered iff
//!   the frame's modeled delay ≤ timeout (equality delivers), else the
//!   frame is consumed and the receive times out.
//! - A receive on an empty link whose sender has exited (endpoint
//!   dropped) returns [`NetError::Closed`] — queued frames are drained
//!   first, as on a disconnected channel.
//! - A receive on an empty live link blocks. When *every* live party is
//!   blocked this way, no frame can ever arrive, so virtual time jumps
//!   to the earliest receive deadline (`blocked party's clock +
//!   timeout`) and that receive returns [`NetError::Timeout`]; ties
//!   break toward the smallest party id. This quiescence rule is what
//!   makes timeouts deterministic: they depend only on virtual state,
//!   never on scheduling.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use super::core::{EventedConfig, EventedCore, Poll, Waiter};
use crate::transport::{NetError, Transport, TransportMetrics};
use crate::wire::Message;

struct SharedCore {
    core: Mutex<EventedCore>,
    cv: Condvar,
}

/// One party's endpoint on a shared evented core. Move it into that
/// party's thread; it can only act as itself. Dropping it marks the
/// party exited (peers then see [`NetError::Closed`] once its queued
/// frames drain).
pub struct EventedEndpoint {
    id: usize,
    m: usize,
    shared: Arc<SharedCore>,
}

/// Builds a fully connected evented fabric for `m` parties, one
/// blocking endpoint per party.
///
/// All endpoints share one metrics ledger; grab an
/// [`EventedMetricsHandle`] before moving them into threads.
///
/// # Panics
///
/// Panics if `m` is zero or a provided latency matrix is smaller than
/// `m × m`.
pub fn evented_fabric(m: usize, cfg: &EventedConfig) -> Vec<EventedEndpoint> {
    let shared = Arc::new(SharedCore {
        core: Mutex::new(EventedCore::new(m, cfg, true)),
        cv: Condvar::new(),
    });
    (0..m)
        .map(|id| EventedEndpoint {
            id,
            m,
            shared: shared.clone(),
        })
        .collect()
}

/// A read-only handle onto an evented fabric's shared metrics ledger,
/// usable after all endpoints have been moved into their threads.
#[derive(Clone)]
pub struct EventedMetricsHandle(Arc<SharedCore>);

impl EventedMetricsHandle {
    /// A snapshot of the fabric-wide metrics.
    pub fn snapshot(&self) -> TransportMetrics {
        self.0.core.lock().map(|c| c.metrics()).unwrap_or_default()
    }

    /// A snapshot of the shared buffer arena's counters; `fresh` is the
    /// peak number of simultaneously live frame buffers.
    pub fn arena_counters(&self) -> super::ArenaCounters {
        self.0
            .core
            .lock()
            .map(|c| c.arena_counters())
            .unwrap_or_default()
    }
}

impl EventedEndpoint {
    /// This endpoint's party id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// A handle onto the fabric-wide metrics ledger that outlives this
    /// endpoint.
    pub fn metrics_handle(&self) -> EventedMetricsHandle {
        EventedMetricsHandle(self.shared.clone())
    }
}

impl Transport for EventedEndpoint {
    fn parties(&self) -> usize {
        self.m
    }

    fn local_party(&self) -> Option<usize> {
        Some(self.id)
    }

    fn send(&mut self, from: usize, to: usize, msg: &Message) -> Result<usize, NetError> {
        if from != self.id {
            return Err(NetError::BadAddress { party: from });
        }
        if to >= self.m || to == self.id {
            return Err(NetError::BadAddress { party: to });
        }
        let mut core = self.shared.core.lock().expect("evented core poisoned");
        let r = core.send(from, to, msg);
        drop(core);
        // A new frame may unblock a waiting receiver.
        self.shared.cv.notify_all();
        r
    }

    fn recv(&mut self, at: usize, from: usize) -> Result<Message, NetError> {
        if at != self.id {
            return Err(NetError::BadAddress { party: at });
        }
        if from >= self.m || from == self.id {
            return Err(NetError::BadAddress { party: from });
        }
        let mut core = self.shared.core.lock().expect("evented core poisoned");
        core.recv_fault_gate(at)?;
        loop {
            match core.poll_recv(at, from) {
                Poll::Ready(r) => return r,
                Poll::Empty => {
                    if core.has_exited(from) {
                        return Err(NetError::Closed { peer: from });
                    }
                    let deadline = core.clock(at) + core.timeout_nanos();
                    core.set_waiter(
                        at,
                        Waiter {
                            from,
                            deadline,
                            fired: false,
                        },
                    );
                    if core.fire_if_quiescent() {
                        self.shared.cv.notify_all();
                    }
                    if core.waiter_fired(at) {
                        // Quiescence chose this receive: virtual time
                        // advanced to its deadline and it times out.
                        core.take_waiter(at);
                        return Err(NetError::Timeout { at, from });
                    }
                    // The wait duration is only a liveness backstop: a
                    // wake-up with no state change re-registers and
                    // re-checks quiescence, so semantics are unchanged.
                    let (c, _) = self
                        .shared
                        .cv
                        .wait_timeout(core, Duration::from_millis(50))
                        .expect("evented core poisoned");
                    core = c;
                    let fired = core.waiter_fired(at);
                    core.take_waiter(at);
                    if fired {
                        return Err(NetError::Timeout { at, from });
                    }
                }
            }
        }
    }

    fn round(&mut self, at: usize) {
        if at != self.id {
            return;
        }
        if let Ok(mut core) = self.shared.core.lock() {
            core.round(at);
        }
    }

    fn metrics(&self) -> TransportMetrics {
        self.shared
            .core
            .lock()
            .map(|c| c.metrics())
            .unwrap_or_default()
    }
}

impl Drop for EventedEndpoint {
    fn drop(&mut self) {
        if let Ok(mut core) = self.shared.core.lock() {
            core.mark_exited(self.id);
            // The exit may complete a quiescent set (every remaining
            // live party already blocked), or unblock a peer waiting on
            // this party with Closed.
            core.fire_if_quiescent();
        }
        self.shared.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arboretum_field::FGold;
    use std::time::Instant;

    fn msg(k: u64) -> Message {
        Message::FieldElems(vec![FGold::new(k)])
    }

    #[test]
    fn frames_cross_threads_with_shared_metrics() {
        let mut eps = evented_fabric(3, &EventedConfig::default());
        let mut e2 = eps.pop().unwrap();
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let h1 = std::thread::spawn(move || {
            let m = Message::FieldElems(vec![FGold::new(11), FGold::new(22)]);
            e1.send(1, 0, &m).unwrap();
            e1.send(1, 2, &m).unwrap();
            e1.round(1);
        });
        let h2 = std::thread::spawn(move || e2.recv(2, 1).unwrap());
        let got0 = e0.recv(0, 1).unwrap();
        let got2 = h2.join().unwrap();
        h1.join().unwrap();
        assert_eq!(got0, got2);
        let m = e0.metrics();
        assert_eq!(m.frames, 2);
        assert_eq!(m.payload_bytes_total, 32);
        assert_eq!(m.rounds, 1);
    }

    #[test]
    fn exited_peer_reports_closed() {
        let mut eps = evented_fabric(2, &EventedConfig::default());
        let e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        drop(e1);
        assert_eq!(e0.recv(0, 1), Err(NetError::Closed { peer: 1 }));
    }

    #[test]
    fn mutual_wait_resolves_by_earliest_deadline_smallest_id() {
        // Both parties block on each other: a deadlock in wall-clock
        // terms. Quiescence fires the earliest deadline; both deadlines
        // are equal (clock 0 + timeout), so the smallest id (party 0)
        // times out, instantly, and the other side then sees Closed or
        // a frame depending on what the timed-out party does next.
        let mut eps = evented_fabric(2, &EventedConfig::default());
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let start = Instant::now();
        let h = std::thread::spawn(move || {
            let r = e1.recv(1, 0);
            (r, e1)
        });
        let r0 = e0.recv(0, 1);
        assert_eq!(r0, Err(NetError::Timeout { at: 0, from: 1 }));
        // Party 0 resumed; send 1 the frame it was waiting for.
        e0.send(0, 1, &msg(5)).unwrap();
        let (r1, _e1) = h.join().unwrap();
        assert_eq!(r1, Ok(msg(5)));
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "the 5 s default timeout must be virtual, not slept"
        );
    }

    #[test]
    fn queued_frames_drain_before_closed() {
        let mut eps = evented_fabric(2, &EventedConfig::default());
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        e1.send(1, 0, &msg(7)).unwrap();
        drop(e1);
        assert_eq!(e0.recv(0, 1), Ok(msg(7)));
        assert_eq!(e0.recv(0, 1), Err(NetError::Closed { peer: 1 }));
        assert!(matches!(
            e0.send(0, 1, &msg(8)),
            Err(NetError::Closed { peer: 1 })
        ));
    }

    #[test]
    fn endpoints_only_act_as_themselves() {
        let mut eps = evented_fabric(3, &EventedConfig::default());
        let mut e0 = eps.remove(0);
        assert!(matches!(
            e0.send(1, 2, &Message::Sync { round: 0 }),
            Err(NetError::BadAddress { party: 1 })
        ));
        assert!(matches!(
            e0.recv(2, 0),
            Err(NetError::BadAddress { party: 2 })
        ));
    }

    #[test]
    fn latency_is_virtual_not_slept() {
        // A full second of modeled one-way latency, delivered instantly
        // in wall-clock terms.
        let cfg = EventedConfig {
            timeout: Duration::from_secs(2),
            latency: Some(vec![vec![1.0; 2]; 2]),
            ..EventedConfig::default()
        };
        let mut eps = evented_fabric(2, &cfg);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let start = Instant::now();
        e1.send(1, 0, &msg(3)).unwrap();
        assert_eq!(e0.recv(0, 1), Ok(msg(3)));
        assert!(start.elapsed() < Duration::from_millis(500));
    }
}
