//! Per-party views of one [`EventedFabric`].
//!
//! [`evented_fabric`] hands out `m` [`EventedEndpoint`]s over one shared
//! act-as-anyone fabric. Each endpoint may only act as its own party;
//! past that check it is the fabric itself: the same virtual clocks,
//! metering and fault rules, and a receive on an empty link times out at
//! once, as on the fabric. The views share the fabric through
//! an `Rc`, so they stay on the thread that built them.

use std::cell::RefCell;
use std::rc::Rc;

use super::fabric::{EventedConfig, EventedFabric};
use crate::transport::{NetError, Transport, TransportMetrics};
use crate::wire::Message;

/// One party's view of a shared [`EventedFabric`]: it sends and
/// receives only as itself.
#[derive(Debug)]
pub struct EventedEndpoint {
    id: usize,
    fabric: Rc<RefCell<EventedFabric>>,
}

/// Builds one evented fabric for `m` parties and returns one endpoint
/// per party, in party order. Every endpoint meters into the fabric's
/// one ledger.
///
/// # Panics
///
/// Panics if `m` is zero or a provided latency matrix is smaller than
/// `m × m`.
pub fn evented_fabric(m: usize, cfg: &EventedConfig) -> Vec<EventedEndpoint> {
    let fabric = Rc::new(RefCell::new(EventedFabric::with_config(m, cfg)));
    (0..m)
        .map(|id| EventedEndpoint {
            id,
            fabric: Rc::clone(&fabric),
        })
        .collect()
}

impl Transport for EventedEndpoint {
    fn parties(&self) -> usize {
        self.fabric.borrow().parties()
    }

    fn send(&mut self, from: usize, to: usize, msg: &Message) -> Result<usize, NetError> {
        if from != self.id {
            return Err(NetError::BadAddress { party: from });
        }
        self.fabric.borrow_mut().send(from, to, msg)
    }

    fn recv(&mut self, at: usize, from: usize) -> Result<Message, NetError> {
        if at != self.id {
            return Err(NetError::BadAddress { party: at });
        }
        self.fabric.borrow_mut().recv(at, from)
    }

    fn round(&mut self, at: usize) {
        if at == self.id {
            self.fabric.borrow_mut().round(at);
        }
    }

    fn metrics(&self) -> TransportMetrics {
        self.fabric.borrow().metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arboretum_field::FGold;
    use std::time::{Duration, Instant};

    fn msg(k: u64) -> Message {
        Message::FieldElems(vec![FGold::new(k)])
    }

    #[test]
    fn endpoints_only_act_as_themselves() {
        let mut eps = evented_fabric(3, &EventedConfig::default());
        let mut e0 = eps.remove(0);
        assert!(matches!(
            e0.send(1, 2, &msg(0)),
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

    #[test]
    fn empty_live_link_times_out_at_once() {
        // The sender's endpoint is alive and nothing is queued: one
        // thread drives every endpoint, so no frame can arrive and the
        // receive times out instead of waiting.
        let mut eps = evented_fabric(3, &EventedConfig::default());
        let mut agg = eps.pop().unwrap();
        let start = Instant::now();
        assert_eq!(agg.recv(2, 0), Err(NetError::Timeout { at: 2, from: 0 }));
        assert!(start.elapsed() < Duration::from_millis(500));
        // The link still works afterwards, and both views share one
        // metrics ledger.
        eps[0].send(0, 2, &msg(4)).unwrap();
        assert_eq!(agg.recv(2, 0), Ok(msg(4)));
        assert_eq!(agg.metrics(), eps[1].metrics());
        assert_eq!(agg.metrics().frames, 1);
    }
}
