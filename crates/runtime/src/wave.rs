//! Large-population wave driver: sortition plus one upload wave.
//!
//! This is the headline workload for the evented fabric — one process
//! seats the committees by hash sortition over the full device registry
//! and then drives an upload wave where every device sends one
//! encrypted-input-sized frame to the aggregator. On the evented fabric
//! latency and timeouts are virtual and frame buffers come from a
//! recycling arena, so populations of 10^5–10^6 devices fit in a single
//! process; the sim fabric holds dense per-pair state and is only
//! sensible for small populations (cross-fabric parity tests).
//!
//! The driver also computes the closed-form traffic model for the wave
//! and reports both, so callers (tests, the CI smoke job)
//! can assert the measured [`TransportMetrics`] are bitwise identical
//! to the model — and, transitively, identical across fabrics.

use std::time::Duration;

use arboretum_crypto::sha256::sha256;
use arboretum_field::FGold;
use arboretum_net::{
    evented_fabric, ArenaCounters, EventedConfig, FabricKind, Message, SimTransport, Transport,
    TransportMetrics, HEADER_BYTES,
};
use arboretum_sortition::{select_committees, select_committees_reference, Device, Registry};

/// Devices per send/drain batch: bounds the number of simultaneously
/// queued frames (and therefore the arena's peak live-buffer count)
/// regardless of population size.
const WAVE_BATCH: usize = 4096;

/// Beacon preimage shared by [`run_wave`] and [`sortition_parity`], so
/// the parity check exercises the exact digest the wave seats under.
const WAVE_BEACON: &[u8] = b"arboretum wave beacon v1";

/// Configuration for [`run_wave`].
#[derive(Clone, Debug)]
pub struct WaveConfig {
    /// Registered devices (wave senders). The fabric holds one extra
    /// party, the aggregator.
    pub devices: usize,
    /// Committees to seat by sortition.
    pub committees: usize,
    /// Members per committee.
    pub committee_size: usize,
    /// Field elements in each device's upload frame.
    pub payload_elems: usize,
    /// Query index mixed into the sortition beacon.
    pub query_idx: u64,
    /// Fabric selection; `None` falls back to the process-wide default
    /// and then [`FabricKind::Evented`]. Sim holds dense per-pair
    /// state — keep `devices` small on it.
    pub fabric: Option<FabricKind>,
    /// Receive timeout for the wave's transport.
    pub timeout: Duration,
}

impl Default for WaveConfig {
    fn default() -> Self {
        Self {
            devices: 1 << 10,
            committees: 3,
            committee_size: 5,
            payload_elems: 8,
            query_idx: 0,
            fabric: None,
            timeout: Duration::from_secs(5),
        }
    }
}

impl WaveConfig {
    /// The million-device release profile: 10^6 devices on the evented
    /// fabric, five committees of seven. This is the population the
    /// fixed-base/batch-verify sortition path is sized for; only run it
    /// in release builds (the CI `wave` job does).
    pub fn million() -> Self {
        Self {
            devices: 1_000_000,
            committees: 5,
            committee_size: 7,
            fabric: Some(FabricKind::Evented),
            ..Self::default()
        }
    }
}

/// Checks that the optimized sortition pipeline (fixed-base
/// exponentiation, parallel ticket kernels, O(n) partial selection)
/// seats committees bitwise identical to the serial full-sort
/// reference under the wave beacon, at a population where running the
/// reference path is affordable.
///
/// `devices` is the parity population; committee shape and query index
/// come from `cfg` so the check covers the same selection parameters
/// the full wave runs with.
pub fn sortition_parity(cfg: &WaveConfig, devices: usize) -> bool {
    let registry = Registry::new((0..devices as u64).map(Device::from_id).collect());
    let block = sha256(WAVE_BEACON);
    let fast = select_committees(
        &registry,
        &block,
        cfg.query_idx,
        cfg.committees,
        cfg.committee_size,
    );
    let reference = select_committees_reference(
        &registry,
        &block,
        cfg.query_idx,
        cfg.committees,
        cfg.committee_size,
    );
    fast == reference
}

/// What one sortition + upload wave produced.
#[derive(Clone, Debug)]
pub struct WaveReport {
    /// Fabric the wave ran on.
    pub fabric: FabricKind,
    /// Devices that uploaded.
    pub devices: usize,
    /// Seated committees: `seats[k]` lists registry indices.
    pub seats: Vec<Vec<usize>>,
    /// Sum over the first element of every device's upload, checked
    /// by callers as an end-to-end delivery proof.
    pub aggregate: FGold,
    /// Measured transport metrics for the wave.
    pub metrics: TransportMetrics,
    /// Closed-form traffic model for the wave.
    pub model: TransportMetrics,
    /// Buffer-arena counters (evented fabric only): `fresh` is the peak
    /// number of simultaneously live frame buffers.
    pub arena: Option<ArenaCounters>,
}

impl WaveReport {
    /// Whether the measured metrics are bitwise identical to the model.
    pub fn identical(&self) -> bool {
        self.metrics == self.model
    }
}

/// The deterministic upload frame for device `i`.
fn upload_frame(i: usize, payload_elems: usize) -> Message {
    let mut elems = vec![FGold::new(1); payload_elems];
    if payload_elems > 1 {
        elems[1] = FGold::new(i as u64);
    }
    Message::FieldElems(elems)
}

/// Closed-form traffic model: `n` devices each send one frame of
/// `payload` bytes to the aggregator, one communication round.
fn wave_model(n: usize, payload: usize) -> TransportMetrics {
    TransportMetrics {
        rounds: 1,
        payload_bytes_total: n as u64 * payload as u64,
        payload_bytes_max: payload as u64,
        frames: n as u64,
        framed_bytes_total: n as u64 * (payload + HEADER_BYTES) as u64,
    }
}

/// Runs sortition over `cfg.devices` registered devices and then one
/// upload wave on the selected fabric.
///
/// # Panics
///
/// Panics if the registry cannot seat `committees × committee_size`
/// devices, or if a wave frame fails to deliver (delivery is
/// unconditional on a fault-free fabric — a panic here is a fabric
/// bug, not an operational error).
pub fn run_wave(cfg: &WaveConfig) -> WaveReport {
    let n = cfg.devices;
    let fabric = FabricKind::resolve(cfg.fabric, FabricKind::Evented);

    // Sortition over the full registry: beacon is a deterministic
    // digest so reports are reproducible across runs and fabrics.
    let registry = Registry::new((0..n as u64).map(Device::from_id).collect());
    let block = sha256(WAVE_BEACON);
    let seats = select_committees(
        &registry,
        &block,
        cfg.query_idx,
        cfg.committees,
        cfg.committee_size,
    )
    .committees;

    // Upload wave: devices 0..n each send one frame to party n (the
    // aggregator), chunked so at most WAVE_BATCH frames are in flight.
    let payload = upload_frame(0, cfg.payload_elems).payload_len();
    let (aggregate, metrics, arena) = match fabric {
        FabricKind::Evented => {
            let evcfg = EventedConfig {
                timeout: cfg.timeout,
                ..EventedConfig::default()
            };
            let mut eps = evented_fabric(n + 1, &evcfg);
            let mut agg = eps.pop().expect("fabric has n + 1 endpoints");
            let handle = agg.metrics_handle();
            let mut sum = FGold::new(0);
            for chunk in 0..n.div_ceil(WAVE_BATCH) {
                let lo = chunk * WAVE_BATCH;
                let hi = (lo + WAVE_BATCH).min(n);
                for (i, ep) in eps[lo..hi].iter_mut().enumerate() {
                    let msg = upload_frame(lo + i, cfg.payload_elems);
                    ep.send(lo + i, n, &msg).expect("wave send");
                }
                for i in lo..hi {
                    match agg.recv(n, i).expect("wave recv") {
                        Message::FieldElems(v) => sum += v[0],
                        other => panic!("unexpected wave frame {:?}", other.kind()),
                    }
                }
            }
            agg.round(n);
            drop(agg);
            drop(eps);
            (sum, handle.snapshot(), Some(handle.arena_counters()))
        }
        FabricKind::Sim => {
            let mut t = SimTransport::new(n + 1);
            let mut sum = FGold::new(0);
            for chunk in 0..n.div_ceil(WAVE_BATCH) {
                let lo = chunk * WAVE_BATCH;
                let hi = (lo + WAVE_BATCH).min(n);
                for i in lo..hi {
                    let msg = upload_frame(i, cfg.payload_elems);
                    t.send(i, n, &msg).expect("wave send");
                }
                for i in lo..hi {
                    match t.recv(n, i).expect("wave recv") {
                        Message::FieldElems(v) => sum += v[0],
                        other => panic!("unexpected wave frame {:?}", other.kind()),
                    }
                }
            }
            t.round(n);
            (sum, t.metrics(), None)
        }
    };

    WaveReport {
        fabric,
        devices: n,
        seats,
        aggregate,
        metrics,
        model: wave_model(n, payload),
        arena,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(fabric: FabricKind) -> WaveConfig {
        WaveConfig {
            devices: 64,
            committees: 2,
            committee_size: 5,
            payload_elems: 4,
            fabric: Some(fabric),
            ..WaveConfig::default()
        }
    }

    #[test]
    fn wave_metrics_match_the_model_on_every_fabric() {
        for fabric in FabricKind::ALL {
            let r = run_wave(&small(fabric));
            assert!(r.identical(), "{fabric}: {:?} != {:?}", r.metrics, r.model);
            assert_eq!(r.aggregate, FGold::new(64), "{fabric} lost a frame");
        }
    }

    #[test]
    fn wave_outcomes_are_bitwise_identical_across_fabrics() {
        let sim = run_wave(&small(FabricKind::Sim));
        let ev = run_wave(&small(FabricKind::Evented));
        assert_eq!(sim.metrics, ev.metrics);
        assert_eq!(sim.seats, ev.seats);
        assert_eq!(sim.aggregate, ev.aggregate);
    }

    #[test]
    fn fast_sortition_matches_reference_under_the_wave_beacon() {
        // Default and million committee shapes, small parity population.
        assert!(sortition_parity(&WaveConfig::default(), 512));
        assert!(sortition_parity(&WaveConfig::million(), 512));
    }

    #[test]
    fn million_profile_is_the_evented_release_preset() {
        let cfg = WaveConfig::million();
        assert_eq!(cfg.devices, 1_000_000);
        assert!(matches!(cfg.fabric, Some(FabricKind::Evented)));
        assert!(
            cfg.committees * cfg.committee_size <= 512,
            "parity population must seat it"
        );
    }

    #[test]
    fn arena_peak_is_bounded_by_the_batch_size() {
        let r = run_wave(&WaveConfig {
            devices: 3 * WAVE_BATCH + 17,
            fabric: Some(FabricKind::Evented),
            ..WaveConfig::default()
        });
        let arena = r.arena.expect("evented wave reports arena counters");
        assert!(
            arena.fresh <= WAVE_BATCH as u64,
            "peak live buffers {} exceeds the batch bound {WAVE_BATCH}",
            arena.fresh
        );
        assert!(arena.reused > 0, "later batches must recycle buffers");
        assert!(r.identical());
    }
}
