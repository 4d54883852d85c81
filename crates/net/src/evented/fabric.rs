//! The act-as-anyone evented fabric: `SimTransport`'s API on the
//! virtual-time core.
//!
//! [`EventedFabric`] is a single object that can send and receive as
//! every party, just like the instant sim fabric — the MPC engine and
//! the population-scale wave driver run on it — but frames carry
//! modeled delays on the virtual clock, buffers come from the pooled
//! arena, and link queues are sparse, so one process can drive
//! 10^5–10^6 simulated parties. With no latency model configured every
//! delay is zero and the metering is bitwise identical to
//! `SimTransport`'s.

use super::arena::ArenaCounters;
use super::core::{EventedConfig, EventedCore};
use crate::transport::{NetError, Transport, TransportMetrics};
use crate::wire::Message;

/// An act-as-anyone virtual-time fabric for `m` parties.
#[derive(Debug)]
pub struct EventedFabric {
    core: EventedCore,
}

impl EventedFabric {
    /// Creates a fabric connecting `m` parties with default
    /// configuration (no latency, no faults, 5 s virtual timeout).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn new(m: usize) -> Self {
        Self::with_config(m, &EventedConfig::default())
    }

    /// Creates a fabric with explicit latency/jitter/fault/timeout
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or a provided latency matrix is smaller
    /// than `m × m`.
    pub fn with_config(m: usize, cfg: &EventedConfig) -> Self {
        Self {
            core: EventedCore::new(m, cfg),
        }
    }

    /// The virtual clock of `party`, in nanoseconds since the fabric
    /// was created.
    pub fn virtual_clock(&self, party: usize) -> u64 {
        self.core.clock(party)
    }

    /// Buffer-arena allocation counters (`fresh` bounds the peak number
    /// of frame buffers simultaneously in flight).
    pub fn arena_counters(&self) -> ArenaCounters {
        self.core.arena_counters()
    }
}

impl Transport for EventedFabric {
    fn parties(&self) -> usize {
        self.core.parties()
    }

    fn send(&mut self, from: usize, to: usize, msg: &Message) -> Result<usize, NetError> {
        self.core.check(from)?;
        self.core.check(to)?;
        if from == to {
            return Err(NetError::BadAddress { party: to });
        }
        self.core.send(from, to, msg)
    }

    fn recv(&mut self, at: usize, from: usize) -> Result<Message, NetError> {
        self.core.check(at)?;
        self.core.check(from)?;
        // Same as the sim fabric: an empty link is an immediate
        // timeout, never a hang.
        self.core.recv(at, from)
    }

    fn round(&mut self, at: usize) {
        self.core.round(at);
    }

    fn metrics(&self) -> TransportMetrics {
        self.core.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::sim::SimTransport;
    use arboretum_field::FGold;
    use std::time::Duration;

    fn msg(k: u64) -> Message {
        Message::FieldElems(vec![FGold::new(k)])
    }

    #[test]
    fn metering_is_bitwise_identical_to_sim() {
        let mut sim = SimTransport::new(4);
        let mut ev = EventedFabric::new(4);
        // A fault plan that schedules nothing changes nothing.
        let mut ev_zero_plan = EventedFabric::with_config(
            4,
            &EventedConfig {
                faults: Some(FaultPlan::default()),
                ..EventedConfig::default()
            },
        );
        for t in [&mut sim as &mut dyn Transport, &mut ev, &mut ev_zero_plan] {
            t.send(0, 1, &msg(7)).unwrap();
            t.send(1, 2, &msg(8)).unwrap();
            t.send(2, 3, &msg(9)).unwrap();
            assert_eq!(t.recv(1, 0).unwrap(), msg(7));
            assert_eq!(t.recv(3, 2).unwrap(), msg(9));
            t.round(0);
            t.round(1);
        }
        assert_eq!(sim.metrics(), ev.metrics());
        assert_eq!(sim.metrics(), ev_zero_plan.metrics());
        assert_eq!(
            ev.recv(0, 1),
            Err(NetError::Timeout { at: 0, from: 1 }),
            "empty links time out immediately, like sim"
        );
    }

    #[test]
    fn virtual_clock_advances_from_latency_without_sleeping() {
        let cfg = EventedConfig {
            latency: Some(vec![vec![0.25; 2]; 2]),
            ..EventedConfig::default()
        };
        let mut ev = EventedFabric::with_config(2, &cfg);
        let start = std::time::Instant::now();
        ev.send(0, 1, &msg(1)).unwrap();
        ev.recv(1, 0).unwrap();
        ev.send(1, 0, &msg(2)).unwrap();
        ev.recv(0, 1).unwrap();
        // Two modeled 250 ms hops advanced the virtual clocks, not the
        // wall clock.
        assert_eq!(ev.virtual_clock(1), 250_000_000);
        assert_eq!(ev.virtual_clock(0), 500_000_000);
        assert!(start.elapsed() < Duration::from_millis(200));
    }

    #[test]
    fn frame_slower_than_virtual_timeout_is_consumed() {
        let cfg = EventedConfig {
            timeout: Duration::from_millis(20),
            latency: Some(vec![vec![0.08; 2]; 2]),
            ..EventedConfig::default()
        };
        let mut ev = EventedFabric::with_config(2, &cfg);
        ev.send(0, 1, &msg(1)).unwrap();
        assert_eq!(ev.recv(1, 0), Err(NetError::Timeout { at: 1, from: 0 }));
        assert_eq!(ev.recv(1, 0), Err(NetError::Timeout { at: 1, from: 0 }));
    }

    #[test]
    fn delay_equal_to_virtual_timeout_is_delivered() {
        let cfg = EventedConfig {
            timeout: Duration::from_millis(50),
            latency: Some(vec![vec![0.05; 2]; 2]),
            ..EventedConfig::default()
        };
        let mut ev = EventedFabric::with_config(2, &cfg);
        ev.send(0, 1, &msg(3)).unwrap();
        assert_eq!(ev.recv(1, 0), Ok(msg(3)));
    }

    #[test]
    fn slow_fault_advances_the_virtual_clock() {
        let cfg = EventedConfig {
            faults: Some(FaultPlan {
                slow: vec![(0, 0.5)],
                ..FaultPlan::default()
            }),
            ..EventedConfig::default()
        };
        let mut ev = EventedFabric::with_config(2, &cfg);
        ev.send(0, 1, &msg(1)).unwrap();
        ev.send(0, 1, &msg(2)).unwrap();
        assert_eq!(ev.virtual_clock(0), 1_000_000_000);
        ev.recv(1, 0).unwrap();
        ev.recv(1, 0).unwrap();
        // Receiver inherits the slowed sender's schedule.
        assert_eq!(ev.virtual_clock(1), 1_000_000_000);
    }

    #[test]
    fn crash_partition_and_drop_match_the_fault_wrapper() {
        // Crash after 2 ops.
        let cfg = EventedConfig {
            faults: Some(FaultPlan::crash(0, 2)),
            ..EventedConfig::default()
        };
        let mut ev = EventedFabric::with_config(3, &cfg);
        ev.send(0, 1, &msg(1)).unwrap();
        ev.send(0, 2, &msg(2)).unwrap();
        assert_eq!(ev.send(0, 1, &msg(3)), Err(NetError::Crashed { party: 0 }));
        assert_eq!(ev.recv(0, 1), Err(NetError::Crashed { party: 0 }));
        ev.send(1, 2, &msg(4)).unwrap();
        assert_eq!(ev.recv(2, 1).unwrap(), msg(4));

        // Partition blocks both directions.
        let cfg = EventedConfig {
            faults: Some(FaultPlan {
                partitions: vec![(0, 1)],
                ..FaultPlan::default()
            }),
            ..EventedConfig::default()
        };
        let mut ev = EventedFabric::with_config(3, &cfg);
        assert!(matches!(
            ev.send(0, 1, &msg(1)),
            Err(NetError::Partitioned { .. })
        ));
        assert!(matches!(
            ev.send(1, 0, &msg(1)),
            Err(NetError::Partitioned { .. })
        ));
        ev.send(0, 2, &msg(1)).unwrap();

        // Drops: sends report success, metrics only count survivors.
        let cfg = EventedConfig {
            faults: Some(FaultPlan::lossy(0.5, 42)),
            ..EventedConfig::default()
        };
        let mut ev = EventedFabric::with_config(2, &cfg);
        for _ in 0..200 {
            ev.send(0, 1, &msg(9)).unwrap();
        }
        let mut delivered = 0;
        while ev.recv(1, 0).is_ok() {
            delivered += 1;
        }
        assert!((40..=160).contains(&delivered));
        assert_eq!(ev.metrics().frames, delivered);
    }

    #[test]
    fn arena_recycles_buffers_across_frames() {
        let mut ev = EventedFabric::new(2);
        for i in 0..100 {
            ev.send(0, 1, &msg(i)).unwrap();
            ev.recv(1, 0).unwrap();
        }
        let c = ev.arena_counters();
        assert_eq!(c.fresh, 1, "one live frame at a time needs one buffer");
        assert_eq!(c.reused, 99);
    }
}
