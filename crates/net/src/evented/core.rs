//! The shared event core: virtual clocks, sparse link queues, pooled
//! buffers, and clock-expressed fault injection.
//!
//! Both evented frontends share this state machine: the act-as-anyone
//! [`super::EventedFabric`] owns a core directly, and the per-party
//! [`super::EventedEndpoint`]s share one behind a mutex. All latency,
//! jitter, slow-party, and timeout semantics are *virtual*: each party
//! carries a `u64`-nanosecond clock, a send schedules its frame at
//! `clock[from] + modeled_delay`, and a delivery advances the receiver
//! to `max(clock[at], deliver_at)`. Nothing ever sleeps, so the fabric
//! simulates 10^5–10^6 parties in one process at queue-push speed.
//!
//! The timeout rule: a queued frame is delivered iff its modeled
//! one-way delay is at most the receive timeout (equality delivers); a
//! slower frame is consumed off the link and reported as
//! [`NetError::Timeout`]. The decision compares modeled values only —
//! never wall-clock arrival — so it is the same on every run.
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
//! but is not metered. (A send to a
//! peer whose endpoint has exited is `Closed` before any of this and
//! counts no operation.)

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::arena::{ArenaCounters, BufferArena};
use crate::fault::FaultPlan;
use crate::transport::{NetError, TransportMetrics};
use crate::wire::{Message, HEADER_BYTES};

/// Configuration for an evented fabric (either frontend).
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

/// A party blocked in a virtual-time receive (endpoint frontend only).
#[derive(Clone, Debug)]
pub(super) struct Waiter {
    /// The peer this receive is waiting on.
    pub from: usize,
    /// Virtual deadline: the waiter's clock at registration plus the
    /// timeout.
    pub deadline: u64,
    /// Set by quiescence resolution: this waiter's receive times out.
    pub fired: bool,
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

/// Outcome of polling a link for a receivable frame.
pub(super) enum Poll {
    /// The receive resolves now (delivery, per-frame timeout, or a
    /// decode error).
    Ready(Result<Message, NetError>),
    /// The link is empty; the caller decides whether to block.
    Empty,
}

/// The event core: all fabric state for `m` parties.
#[derive(Debug)]
pub(super) struct EventedCore {
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
    /// Endpoint frontend only: parties whose endpoint has been dropped.
    exited: Vec<bool>,
    /// Endpoint frontend only: parties blocked in a receive.
    waiters: Vec<Option<Waiter>>,
    /// Count of non-exited parties (endpoint frontend; 0 otherwise).
    /// Kept incrementally so the quiescence gate — consulted on every
    /// blocked receive *and every endpoint drop* — is O(1); recounting
    /// the vectors would make tearing down an n-endpoint fabric O(n²).
    live: usize,
    /// Count of registered waiters, maintained by
    /// [`set_waiter`](Self::set_waiter)/[`take_waiter`](Self::take_waiter).
    waiting: usize,
    per_party_payload: Vec<u64>,
    per_party_rounds: Vec<u64>,
    metrics: TransportMetrics,
}

impl EventedCore {
    /// Builds the core. `endpoint_mode` allocates the waiter/exit
    /// tracking the blocking frontend needs.
    pub(super) fn new(m: usize, cfg: &EventedConfig, endpoint_mode: bool) -> Self {
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
            exited: if endpoint_mode {
                vec![false; m]
            } else {
                Vec::new()
            },
            waiters: if endpoint_mode {
                vec![None; m]
            } else {
                Vec::new()
            },
            live: if endpoint_mode { m } else { 0 },
            waiting: 0,
            per_party_payload: vec![0; m],
            per_party_rounds: vec![0; m],
            metrics: TransportMetrics::default(),
        }
    }

    pub(super) fn parties(&self) -> usize {
        self.m
    }

    pub(super) fn timeout_nanos(&self) -> u64 {
        self.timeout
    }

    /// The virtual clock of `party`, in nanoseconds.
    pub(super) fn clock(&self, party: usize) -> u64 {
        self.clocks[party]
    }

    pub(super) fn check(&self, party: usize) -> Result<(), NetError> {
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

    /// Fault gate applied at the top of every receive: crash check,
    /// then one operation counted, once per call however long the
    /// receive then blocks.
    pub(super) fn recv_fault_gate(&mut self, at: usize) -> Result<(), NetError> {
        self.check_crashed(at)?;
        self.bump(at);
        Ok(())
    }

    /// Whether `party`'s endpoint has been dropped (endpoint frontend).
    pub(super) fn has_exited(&self, party: usize) -> bool {
        self.exited.get(party).copied().unwrap_or(false)
    }

    pub(super) fn mark_exited(&mut self, party: usize) {
        if let Some(e) = self.exited.get_mut(party) {
            if !*e {
                *e = true;
                self.live -= 1;
            }
        }
    }

    /// Registers `at` as blocked in a receive (replacing any stale
    /// registration), keeping the waiter count incremental.
    pub(super) fn set_waiter(&mut self, at: usize, w: Waiter) {
        if self.waiters[at].is_none() {
            self.waiting += 1;
        }
        self.waiters[at] = Some(w);
    }

    /// Clears `at`'s waiter registration, if any.
    pub(super) fn take_waiter(&mut self, at: usize) -> Option<Waiter> {
        let w = self.waiters[at].take();
        if w.is_some() {
            self.waiting -= 1;
        }
        w
    }

    /// Whether quiescence chose `at`'s receive to time out.
    pub(super) fn waiter_fired(&self, at: usize) -> bool {
        self.waiters[at].as_ref().is_some_and(|w| w.fired)
    }

    /// Sends one frame, applying faults, modeled delay, metering, and
    /// pooled encoding. Addressing must already be validated.
    pub(super) fn send(
        &mut self,
        from: usize,
        to: usize,
        msg: &Message,
    ) -> Result<usize, NetError> {
        if self.has_exited(to) {
            return Err(NetError::Closed { peer: to });
        }
        if self.faults.is_some() {
            self.check_crashed(from)?;
            self.bump(from);
            let fs = self.faults.as_mut().expect("checked above");
            if fs.plan.partitioned(from, to) {
                return Err(NetError::Partitioned { from, to });
            }
            if let Some(extra) = fs.plan.slowdown(from) {
                // A slow sender loses virtual time instead of sleeping.
                self.clocks[from] += nanos(Duration::from_secs_f64(extra.max(0.0)));
            }
            let fs = self.faults.as_mut().expect("checked above");
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

    /// Polls the `from → at` link. Delivery advances `at`'s virtual
    /// clock to the frame's arrival instant; a frame slower than the
    /// timeout is consumed and reported as [`NetError::Timeout`].
    pub(super) fn poll_recv(&mut self, at: usize, from: usize) -> Poll {
        let key = from as u64 * self.m as u64 + at as u64;
        let Some(frame) = self.links.get_mut(&key).and_then(VecDeque::pop_front) else {
            return Poll::Empty;
        };
        if frame.delay > self.timeout {
            self.arena.give_back(frame.bytes);
            return Poll::Ready(Err(NetError::Timeout { at, from }));
        }
        self.clocks[at] = self.clocks[at].max(frame.deliver_at);
        let decoded = Message::decode_frame(&frame.bytes);
        self.arena.give_back(frame.bytes);
        match decoded {
            Ok((msg, _)) => Poll::Ready(Ok(msg)),
            Err(e) => Poll::Ready(Err(NetError::Wire(e))),
        }
    }

    pub(super) fn round(&mut self, at: usize) {
        if at < self.m {
            self.per_party_rounds[at] += 1;
            self.metrics.rounds = self.metrics.rounds.max(self.per_party_rounds[at]);
        }
    }

    pub(super) fn metrics(&self) -> TransportMetrics {
        self.metrics.clone()
    }

    pub(super) fn arena_counters(&self) -> ArenaCounters {
        self.arena.counters()
    }

    /// Quiescence resolution for the endpoint frontend: when every
    /// non-exited party is blocked in a receive on an empty link, no
    /// send can ever arrive, so virtual time jumps to the earliest
    /// receive deadline and that waiter's receive times out. Ties break
    /// toward the smallest party id. Returns whether a waiter fired.
    pub(super) fn fire_if_quiescent(&mut self) -> bool {
        debug_assert_eq!(self.live, self.exited.iter().filter(|&&e| !e).count());
        debug_assert_eq!(self.waiting, self.waiters.iter().flatten().count());
        if self.live == 0 || self.waiting != self.live {
            return false;
        }
        // A registration only means the party was blocked when it last
        // held the lock. If its awaited link has since gained a frame,
        // or its sender has exited (it will see `Closed`), that party
        // can still make progress on wake-up — the system is not
        // quiescent and firing a timeout here would be spurious.
        for (p, w) in self.waiters.iter().enumerate() {
            let Some(w) = w else { continue };
            if self.exited.get(w.from).copied().unwrap_or(false) {
                return false;
            }
            let key = w.from as u64 * self.m as u64 + p as u64;
            if self.links.get(&key).is_some_and(|q| !q.is_empty()) {
                return false;
            }
        }
        let (party, deadline) = self
            .waiters
            .iter()
            .enumerate()
            .filter_map(|(p, w)| w.as_ref().map(|w| (p, w.deadline)))
            .min_by_key(|&(p, d)| (d, p))
            .expect("waiting == live > 0");
        self.clocks[party] = self.clocks[party].max(deadline);
        self.waiters[party].as_mut().expect("selected above").fired = true;
        true
    }
}
