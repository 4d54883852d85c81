//! The act-as-anyone virtual-time fabric: virtual clocks, sparse link
//! queues, pooled buffers, and clock-expressed fault injection.
//!
//! [`EventedFabric`] is a single object that can send and receive as
//! every party — every MPC engine runs on it — and the per-party
//! [`super::EventedEndpoint`]s are views of one such fabric. All
//! latency, jitter, slow-party, and timeout semantics are *virtual*:
//! each party carries a `u64`-nanosecond clock, a send schedules its
//! frame at `clock[from] + modeled_delay`, and a delivery advances the
//! receiver to `max(clock[at], deliver_at)`.
//! Nothing ever sleeps, and link queues are allocated only once they
//! carry traffic, so the fabric simulates 10^5–10^6 parties in one
//! process at queue-push speed.
//!
//! The timeout rule: a queued frame is delivered iff its modeled
//! one-way delay is at most the receive timeout (equality delivers); a
//! slower frame is consumed off the link and reported as
//! [`NetError::Timeout`], and so is a receive on an empty link. The
//! decision compares modeled values only — never wall-clock arrival —
//! so it is the same on every run.
//!
//! The fault rules ([`FaultPlan`], applied by [`FaultState`]): every
//! send and every receive first checks whether the acting party has
//! crashed — its count of transport operations has reached its crash
//! budget — and then counts as one operation. A send then, in order,
//! fails if the link is partitioned (either direction of the pair),
//! charges a slow sender's extra delay to its virtual clock, and
//! samples a drop from that party's own stream (every party's stream is
//! seeded `plan.seed` and advances only on its own sends, only when
//! `drop_prob > 0`). A dropped frame still reports a successful send
//! but is not metered.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::arena::{ArenaCounters, BufferArena};
use crate::fault::FaultPlan;
use crate::transport::{NetError, Transport, TransportMetrics};
use crate::wire::{Message, HEADER_BYTES};

/// Configuration for an evented fabric.
///
/// Timeout, latency model and jitter, plus an optional [`FaultPlan`]
/// applied as events on the virtual clock (the module docs give the
/// rules).
#[derive(Clone, Debug)]
pub struct EventedConfig {
    /// The receive timeout, interpreted on the virtual clock: a frame
    /// whose modeled delay exceeds this is consumed and reported as
    /// [`NetError::Timeout`] (equality delivers).
    pub timeout: Duration,
    /// One-way link latencies in seconds, `latency[from][to]`; `None`
    /// models zero delay.
    pub latency: Option<Vec<Vec<f64>>>,
    /// Uniform jitter as a fraction of each link's latency (`0.2`
    /// means up to +20%), sampled from one stream per sender.
    pub jitter: f64,
    /// Seed for the per-sender jitter streams.
    pub seed: u64,
    /// Optional fault schedule applied natively on the virtual clock.
    pub faults: Option<FaultPlan>,
}

impl Default for EventedConfig {
    fn default() -> Self {
        Self {
            timeout: Duration::from_secs(5),
            latency: None,
            jitter: 0.0,
            seed: 0,
            faults: None,
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A frame in flight on one directed link.
#[derive(Debug)]
struct Frame {
    bytes: Vec<u8>,
    /// The modeled one-way delay this frame was sent with (the timeout
    /// rule compares this against the receive deadline).
    delay: u64,
    /// Virtual instant the frame becomes readable: sender clock at the
    /// send plus `delay`.
    deliver_at: u64,
}

/// Fault bookkeeping: the one implementation of the fault rules in the
/// module docs.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    /// Per-party transport-operation counts (sends + receives).
    ops: Vec<u64>,
    /// Per-party drop-sampling streams, all seeded `plan.seed`. Empty
    /// unless `drop_prob > 0` (the streams are only advanced on sends
    /// when drops are enabled).
    drop_rngs: Vec<StdRng>,
}

/// An act-as-anyone virtual-time fabric for `m` parties.
#[derive(Debug)]
pub struct EventedFabric {
    m: usize,
    timeout: u64,
    latency: Option<Vec<Vec<f64>>>,
    jitter: f64,
    seed: u64,
    /// Per-sender jitter streams, created lazily (only populated when
    /// `jitter > 0`, so a million-party fabric pays nothing for them).
    jitter_rngs: HashMap<usize, StdRng>,
    /// Per-party virtual clocks in nanoseconds.
    clocks: Vec<u64>,
    /// Frames in flight, keyed by `from * m + to`. Sparse: a link
    /// allocates a queue only once it carries traffic, so populations
    /// of 10^6 don't materialize 10^12 queues.
    links: HashMap<u64, VecDeque<Frame>>,
    arena: BufferArena,
    faults: Option<FaultState>,
    per_party_payload: Vec<u64>,
    per_party_rounds: Vec<u64>,
    metrics: TransportMetrics,
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
        assert!(m > 0, "need at least one party");
        if let Some(l) = &cfg.latency {
            assert!(
                l.len() >= m && l.iter().all(|row| row.len() >= m),
                "latency matrix smaller than {m}x{m}"
            );
        }
        let faults = cfg.faults.clone().map(|plan| {
            let drop_rngs = if plan.drop_prob > 0.0 {
                (0..m).map(|_| StdRng::seed_from_u64(plan.seed)).collect()
            } else {
                Vec::new()
            };
            FaultState {
                plan,
                ops: vec![0; m],
                drop_rngs,
            }
        });
        Self {
            m,
            timeout: nanos(cfg.timeout),
            latency: cfg.latency.clone(),
            jitter: cfg.jitter,
            seed: cfg.seed,
            jitter_rngs: HashMap::new(),
            clocks: vec![0; m],
            links: HashMap::new(),
            arena: BufferArena::new(),
            faults,
            per_party_payload: vec![0; m],
            per_party_rounds: vec![0; m],
            metrics: TransportMetrics::default(),
        }
    }

    /// The virtual clock of `party`, in nanoseconds since the fabric
    /// was created.
    pub fn virtual_clock(&self, party: usize) -> u64 {
        self.clocks[party]
    }

    /// Buffer-arena allocation counters (`fresh` bounds the peak number
    /// of frame buffers simultaneously in flight).
    pub fn arena_counters(&self) -> ArenaCounters {
        self.arena.counters()
    }

    fn check(&self, party: usize) -> Result<(), NetError> {
        if party >= self.m {
            return Err(NetError::BadAddress { party });
        }
        Ok(())
    }

    /// Modeled one-way delay for a frame sent now on `from → to`, in
    /// nanoseconds: `base * (1 + U[0, jitter))` with the uniform draw
    /// from the sender's own stream (seeded from `seed` and the sender
    /// id), converted to whole nanoseconds.
    fn link_delay(&mut self, from: usize, to: usize) -> u64 {
        let Some(l) = &self.latency else {
            return 0;
        };
        let base = l[from][to];
        let jittered = if self.jitter > 0.0 {
            let seed = self.seed;
            let rng = self.jitter_rngs.entry(from).or_insert_with(|| {
                StdRng::seed_from_u64(
                    seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(from as u64 + 1)),
                )
            });
            base * (1.0 + rng.gen_range(0.0..self.jitter))
        } else {
            base
        };
        nanos(Duration::from_secs_f64(jittered.max(0.0)))
    }

    fn check_crashed(&self, party: usize) -> Result<(), NetError> {
        if let Some(fs) = &self.faults {
            if let Some(n) = fs.plan.crash_threshold(party) {
                if fs.ops.get(party).copied().unwrap_or(0) >= n {
                    return Err(NetError::Crashed { party });
                }
            }
        }
        Ok(())
    }

    fn bump(&mut self, party: usize) {
        if let Some(fs) = &mut self.faults {
            if let Some(c) = fs.ops.get_mut(party) {
                *c += 1;
            }
        }
    }
}

impl Transport for EventedFabric {
    fn parties(&self) -> usize {
        self.m
    }

    /// Sends one frame, applying faults, modeled delay, metering, and
    /// pooled encoding.
    fn send(&mut self, from: usize, to: usize, msg: &Message) -> Result<usize, NetError> {
        self.check(from)?;
        self.check(to)?;
        if from == to {
            return Err(NetError::BadAddress { party: to });
        }
        self.check_crashed(from)?;
        self.bump(from);
        if let Some(fs) = &mut self.faults {
            if fs.plan.partitioned(from, to) {
                return Err(NetError::Partitioned { from, to });
            }
            if let Some(extra) = fs.plan.slowdown(from) {
                // A slow sender loses virtual time instead of sleeping.
                self.clocks[from] += nanos(Duration::from_secs_f64(extra.max(0.0)));
            }
            if fs.plan.drop_prob > 0.0 && fs.drop_rngs[from].gen_range(0.0..1.0) < fs.plan.drop_prob
            {
                // Lost before the wire: the receiver will time out. The
                // caller sees a successful send; metrics don't count it.
                return Ok(msg.payload_len());
            }
        }
        let delay = self.link_delay(from, to);
        let deliver_at = self.clocks[from] + delay;
        let mut buf = self.arena.checkout();
        msg.encode_frame_into(&mut buf);
        let payload = buf.len() - HEADER_BYTES;
        self.metrics.frames += 1;
        self.metrics.framed_bytes_total += buf.len() as u64;
        self.metrics.payload_bytes_total += payload as u64;
        self.per_party_payload[from] += payload as u64;
        self.metrics.payload_bytes_max = self
            .metrics
            .payload_bytes_max
            .max(self.per_party_payload[from]);
        self.links
            .entry(from as u64 * self.m as u64 + to as u64)
            .or_default()
            .push_back(Frame {
                bytes: buf,
                delay,
                deliver_at,
            });
        Ok(payload)
    }

    /// Receives the next frame on the `from → at` link, applying the
    /// fault gate first (crash check, then one operation counted).
    /// Delivery advances `at`'s virtual clock to the frame's arrival
    /// instant; an empty link, or a frame slower than the timeout
    /// (consumed), is [`NetError::Timeout`] at once, never a hang.
    fn recv(&mut self, at: usize, from: usize) -> Result<Message, NetError> {
        self.check(at)?;
        self.check(from)?;
        self.check_crashed(at)?;
        self.bump(at);
        let key = from as u64 * self.m as u64 + at as u64;
        let Some(frame) = self.links.get_mut(&key).and_then(VecDeque::pop_front) else {
            return Err(NetError::Timeout { at, from });
        };
        if frame.delay > self.timeout {
            self.arena.give_back(frame.bytes);
            return Err(NetError::Timeout { at, from });
        }
        self.clocks[at] = self.clocks[at].max(frame.deliver_at);
        let decoded = Message::decode_frame(&frame.bytes);
        self.arena.give_back(frame.bytes);
        Ok(decoded?.0)
    }

    fn round(&mut self, at: usize) {
        if at < self.m {
            self.per_party_rounds[at] += 1;
            self.metrics.rounds = self.metrics.rounds.max(self.per_party_rounds[at]);
        }
    }

    fn metrics(&self) -> TransportMetrics {
        self.metrics.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arboretum_field::FGold;

    fn msg(k: u64) -> Message {
        Message::FieldElems(vec![FGold::new(k)])
    }

    #[test]
    fn send_recv_round_trips_through_frames() {
        let mut ev = EventedFabric::new(3);
        let two = Message::FieldElems(vec![FGold::new(1), FGold::new(2)]);
        assert_eq!(ev.send(0, 2, &two), Ok(16));
        assert_eq!(ev.recv(2, 0), Ok(two));
    }

    #[test]
    fn queues_are_fifo_per_link() {
        let mut ev = EventedFabric::new(2);
        ev.send(0, 1, &msg(1)).unwrap();
        ev.send(0, 1, &msg(2)).unwrap();
        assert_eq!(ev.recv(1, 0), Ok(msg(1)));
        assert_eq!(ev.recv(1, 0), Ok(msg(2)));
    }

    #[test]
    fn recv_on_empty_link_is_timeout_not_hang() {
        let mut ev = EventedFabric::new(2);
        assert_eq!(ev.recv(0, 1), Err(NetError::Timeout { at: 0, from: 1 }));
    }

    #[test]
    fn self_send_and_out_of_range_rejected() {
        let mut ev = EventedFabric::new(2);
        assert_eq!(
            ev.send(0, 0, &msg(0)),
            Err(NetError::BadAddress { party: 0 })
        );
        assert_eq!(
            ev.send(0, 5, &msg(0)),
            Err(NetError::BadAddress { party: 5 })
        );
        assert_eq!(ev.recv(9, 0), Err(NetError::BadAddress { party: 9 }));
    }

    #[test]
    fn metering_separates_payload_from_framing() {
        let mut ev = EventedFabric::new(3);
        let wide = Message::FieldElems(vec![FGold::new(7); 4]); // 32B payload.
        assert_eq!(ev.send(0, 1, &wide), Ok(32));
        assert_eq!(ev.send(1, 2, &wide), Ok(32));
        ev.round(0);
        ev.round(1);
        ev.round(2);
        let m = ev.metrics();
        assert_eq!(m.frames, 2);
        assert_eq!(m.payload_bytes_total, 64);
        assert_eq!(m.payload_bytes_max, 32);
        // Every frame carries an 8-byte header.
        assert_eq!(m.framed_bytes_total, 64 + 2 * 8);
        assert_eq!(m.rounds, 1, "rounds are the max over parties, not the sum");
    }

    #[test]
    fn metering_is_unchanged_by_an_empty_fault_plan() {
        // A fault plan that schedules nothing changes nothing.
        let zero_plan = EventedConfig {
            faults: Some(FaultPlan::default()),
            ..EventedConfig::default()
        };
        for cfg in [EventedConfig::default(), zero_plan] {
            let mut ev = EventedFabric::with_config(4, &cfg);
            let wide = Message::FieldElems(vec![FGold::new(7); 4]);
            assert_eq!(ev.send(0, 1, &wide), Ok(32));
            assert_eq!(ev.send(1, 2, &wide), Ok(32));
            assert_eq!(ev.send(2, 3, &msg(8)), Ok(8));
            assert_eq!(ev.send(2, 3, &msg(9)), Ok(8));
            assert_eq!(ev.recv(1, 0), Ok(wide));
            assert_eq!(ev.recv(3, 2), Ok(msg(8)));
            ev.round(0);
            ev.round(1);
            ev.round(1);
            assert_eq!(
                ev.metrics(),
                TransportMetrics {
                    rounds: 2,
                    payload_bytes_total: 80,
                    payload_bytes_max: 32,
                    frames: 4,
                    framed_bytes_total: 80 + 4 * 8,
                }
            );
            assert_eq!(ev.recv(0, 1), Err(NetError::Timeout { at: 0, from: 1 }));
        }
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
