//! Fabric × population benchmark: one aggregator gathers a frame from
//! every device on each network fabric, timing the whole gather and the
//! per-party overhead.
//!
//! The sim fabric holds a dense queue per ordered pair of parties, so
//! it is only run at small populations; the evented virtual-time
//! fabric drives the same gather over sparse link queues and pooled
//! buffers, which is what lets one process reach 10^5–10^6 devices.
//! Every cell also cross-checks its measured [`TransportMetrics`]
//! against the closed-form model (`identical`), so the rows are
//! comparisons between runs that provably moved the same bytes.

use std::time::{Duration, Instant};

use arboretum_field::FGold;
use arboretum_net::{
    evented_fabric, EventedConfig, Message, SimTransport, Transport, TransportMetrics, HEADER_BYTES,
};

/// Field elements in each device's frame (the shape of an encrypted
/// one-hot upload digest).
const ELEMS: usize = 32;

/// Devices per send/drain batch, so the evented arena's peak
/// live-buffer count stays bounded.
const BATCH: usize = 4096;

/// One measured (fabric, population) cell.
#[derive(Clone, Debug)]
pub struct NetPoint {
    /// Fabric name: `"sim"` or `"evented"`.
    pub fabric: &'static str,
    /// Devices gathered from (the fabric holds one more party, the
    /// aggregator).
    pub devices: usize,
    /// Timed gathers.
    pub reps: usize,
    /// Nanoseconds per full gather.
    pub ns_per_gather: f64,
    /// `ns_per_gather / devices` — the per-party overhead.
    pub ns_per_party: f64,
    /// Peak simultaneously-live frame buffers (evented only; the arena
    /// allocation counter is the memory proxy — everything beyond it
    /// was recycled). Zero on the sim fabric.
    pub peak_buffers: u64,
    /// Whether the measured transport metrics equal the closed-form
    /// model bitwise.
    pub identical: bool,
}

/// The network fabric benchmark: one [`NetPoint`] per (fabric,
/// population) cell.
#[derive(Clone, Debug)]
pub struct NetBench {
    /// CPUs available to the process (every gather runs on one thread).
    pub host_cpus: usize,
    /// One measurement per cell.
    pub points: Vec<NetPoint>,
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn frame() -> Message {
    Message::FieldElems((0..ELEMS as u64).map(FGold::new).collect())
}

/// The closed-form traffic model for one gather of `n` frames.
fn model(n: usize) -> TransportMetrics {
    let payload = frame().payload_len() as u64;
    TransportMetrics {
        rounds: 0,
        payload_bytes_total: n as u64 * payload,
        payload_bytes_max: payload,
        frames: n as u64,
        framed_bytes_total: n as u64 * (payload + HEADER_BYTES as u64),
    }
}

/// One gather on the sim fabric; returns (elapsed, measured metrics).
fn gather_sim(n: usize) -> (Duration, TransportMetrics) {
    let mut t = SimTransport::new(n + 1);
    let msg = frame();
    let start = Instant::now();
    for lo in (0..n).step_by(BATCH) {
        let hi = (lo + BATCH).min(n);
        for i in lo..hi {
            t.send(i, n, &msg).unwrap();
        }
        for i in lo..hi {
            std::hint::black_box(t.recv(n, i).unwrap());
        }
    }
    (start.elapsed(), t.metrics())
}

/// One gather on the evented fabric; returns (elapsed, metrics, peak
/// live buffers).
fn gather_evented(n: usize) -> (Duration, TransportMetrics, u64) {
    let mut eps = evented_fabric(n + 1, &EventedConfig::default());
    let mut agg = eps.pop().unwrap();
    let handle = agg.metrics_handle();
    let msg = frame();
    let start = Instant::now();
    for lo in (0..n).step_by(BATCH) {
        let hi = (lo + BATCH).min(n);
        for (i, ep) in eps[lo..hi].iter_mut().enumerate() {
            ep.send(lo + i, n, &msg).unwrap();
        }
        for i in lo..hi {
            std::hint::black_box(agg.recv(n, i).unwrap());
        }
    }
    let elapsed = start.elapsed();
    let metrics = handle.snapshot();
    let peak = handle.arena_counters().fresh;
    (elapsed, metrics, peak)
}

fn point(
    fabric: &'static str,
    devices: usize,
    reps: usize,
    mut run: impl FnMut() -> (Duration, TransportMetrics, u64),
) -> NetPoint {
    // One untimed warm-up run also supplies the metrics cross-check.
    let (_, metrics, mut peak) = run();
    let identical = metrics == model(devices);
    let mut total = Duration::ZERO;
    for _ in 0..reps {
        let (d, _, p) = run();
        total += d;
        peak = peak.max(p);
    }
    let ns_per_gather = total.as_nanos() as f64 / reps as f64;
    NetPoint {
        fabric,
        devices,
        reps,
        ns_per_gather,
        ns_per_party: ns_per_gather / devices as f64,
        peak_buffers: peak,
        identical,
    }
}

/// Runs the gather grid: the evented fabric at every population in
/// `sizes`; sim only at populations `≤ dense_cap`, because it holds
/// dense per-pair state (m² queues).
pub fn bench_net(sizes: &[usize], dense_cap: usize, reps: usize) -> NetBench {
    let mut points = Vec::new();
    for &n in sizes {
        if n <= dense_cap {
            points.push(point("sim", n, reps, || {
                let (d, m) = gather_sim(n);
                (d, m, 0)
            }));
        }
        points.push(point("evented", n, reps, || gather_evented(n)));
    }
    NetBench {
        host_cpus: host_cpus(),
        points,
    }
}

impl NetBench {
    /// Renders the benchmark as a JSON document (the schema of
    /// `BENCH_net.json`).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "    {{\"fabric\": \"{}\", \"devices\": {}, \"reps\": {}, \
                     \"ns_per_gather\": {:.0}, \"ns_per_party\": {:.1}, \
                     \"peak_buffers\": {}, \"identical\": {}}}",
                    p.fabric,
                    p.devices,
                    p.reps,
                    p.ns_per_gather,
                    p.ns_per_party,
                    p.peak_buffers,
                    p.identical
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"net_fabrics\",\n  \"host_cpus\": {},\n  \
             \"results\": [\n{}\n  ]\n}}\n",
            self.host_cpus,
            rows.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_moves_exactly_the_modeled_bytes() {
        let b = bench_net(&[64, 300], 300, 1);
        assert_eq!(b.points.len(), 4, "both fabrics at both populations");
        for p in &b.points {
            assert!(
                p.identical,
                "{} at {} diverged from the model",
                p.fabric, p.devices
            );
            assert!(p.ns_per_party > 0.0);
        }
    }

    #[test]
    fn evented_peak_buffers_stay_bounded_by_the_batch() {
        // Straight to the evented gather: the sim fabric's dense m²
        // queues would dominate this population in a debug build.
        let n = 2 * BATCH + 5;
        let (_, metrics, peak) = gather_evented(n);
        assert_eq!(metrics, model(n));
        assert!(peak <= BATCH as u64);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let b = bench_net(&[32], 32, 1);
        let j = b.to_json();
        assert!(j.contains("\"bench\": \"net_fabrics\""));
        assert!(j.contains("\"fabric\": \"evented\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
