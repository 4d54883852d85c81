//! Serial-vs-parallel benchmark for the aggregator's ⊞ hot path, with
//! machine-readable JSON output (`BENCH_aggregation.json` at the repo
//! root).
//!
//! The benchmark runs the serial reference and the parallel kernel on
//! the *same* workload and records wall times, the speedup, and —
//! because speed without the determinism contract is worthless here —
//! whether the two aggregates were bitwise identical.

use std::sync::Arc;
use std::time::Instant;

use arboretum_bgv::{
    encode_coeffs, encrypt, keygen, par_sum, par_sum_sharded, sum, BgvContext, BgvParams,
    Ciphertext,
};
use arboretum_par::{ParConfig, ShardedPool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One (shard count, thread count) measurement within a benchmark.
#[derive(Clone, Debug)]
pub struct ParPoint {
    /// Worker threads used by the parallel run.
    pub threads: usize,
    /// Aggregator shards the workload was partitioned across.
    pub shards: usize,
    /// Serial reference wall time (seconds).
    pub serial_secs: f64,
    /// Parallel wall time (seconds).
    pub parallel_secs: f64,
    /// `serial_secs / parallel_secs`.
    pub speedup: f64,
    /// Whether parallel and serial results were identical.
    pub identical: bool,
}

/// The aggregation benchmark: ⊞-sum `n_ciphertexts` BGV ciphertexts
/// at the aggregation preset's ring degree.
#[derive(Clone, Debug)]
pub struct AggBench {
    /// Number of ciphertexts summed.
    pub n_ciphertexts: usize,
    /// BGV ring degree.
    pub ring_degree: usize,
    /// RNS primes in the ciphertext modulus.
    pub rns_primes: usize,
    /// CPUs available to the benchmarking process — speedups are
    /// hardware-capped at this number no matter the thread count.
    pub host_cpus: usize,
    /// One measurement per benchmarked thread count.
    pub points: Vec<ParPoint>,
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs the ciphertext-aggregation benchmark.
///
/// The workload is `n_ciphertexts` encryptions of small one-hot rows
/// under the paper's aggregation preset (ring degree 4096); the serial
/// side is the plain left fold, the parallel side the sharded
/// deterministic tree reduction, one point per (shard count, thread
/// count) pair. `shards = 1` on a single pool reproduces the unsharded
/// kernel; every point's `identical` asserts bitwise equality with the
/// serial fold.
pub fn bench_aggregation(
    n_ciphertexts: usize,
    thread_counts: &[usize],
    shard_counts: &[usize],
) -> AggBench {
    let params = BgvParams::aggregation();
    let ring_degree = params.n;
    let rns_primes = params.moduli.len();
    let ctx = Arc::new(BgvContext::new(params));
    let mut rng = StdRng::seed_from_u64(0xa66);
    let (_, pk) = keygen(&ctx, &mut rng);
    // Encrypt a handful of distinct payloads and cycle them: the sum's
    // cost depends only on ciphertext count and ring degree.
    let distinct: Vec<Ciphertext> = (0..16u64)
        .map(|i| {
            let msg = encode_coeffs(&ctx, &[i % 7, i % 5, i % 3]).expect("encode");
            encrypt(&ctx, &pk, &msg, &mut rng)
        })
        .collect();
    let cts: Vec<Ciphertext> = (0..n_ciphertexts)
        .map(|i| distinct[i % distinct.len()].clone())
        .collect();

    // Untimed warm-up: fault in the allocator's working set once, so
    // the timed runs measure ⊞ throughput rather than first-touch page
    // faults (which are very expensive under some hypervisors).
    let _ = sum(&ctx, &cts);
    let _ = par_sum(&ParConfig::serial().pool(), &ctx, cts.clone());

    let start = Instant::now();
    let serial = sum(&ctx, &cts).expect("non-empty workload");
    let serial_secs = start.elapsed().as_secs_f64();

    let mut points = Vec::with_capacity(shard_counts.len() * thread_counts.len());
    for &shards in shard_counts {
        for &threads in thread_counts {
            let set = ShardedPool::new(threads, shards);
            // One untimed run per point faults in this pool set's
            // working set; the clones hand the kernel an owned workload
            // and are bench plumbing, so both stay outside the timed
            // region.
            let _ = par_sum_sharded(&set, &ctx, cts.clone());
            let owned = cts.clone();
            let start = Instant::now();
            let parallel = par_sum_sharded(&set, &ctx, owned).expect("non-empty workload");
            let parallel_secs = start.elapsed().as_secs_f64();
            points.push(ParPoint {
                threads,
                shards,
                serial_secs,
                parallel_secs,
                speedup: serial_secs / parallel_secs.max(1e-12),
                identical: parallel == serial,
            });
        }
    }
    AggBench {
        n_ciphertexts,
        ring_degree,
        rns_primes,
        host_cpus: host_cpus(),
        points,
    }
}

fn json_points(points: &[ParPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"threads\": {}, \"shards\": {}, \"serial_secs\": {:.6}, \
                 \"parallel_secs\": {:.6}, \"speedup\": {:.3}, \"identical\": {}}}",
                p.threads, p.shards, p.serial_secs, p.parallel_secs, p.speedup, p.identical
            )
        })
        .collect();
    rows.join(",\n")
}

impl AggBench {
    /// Renders the benchmark as a JSON document (the schema of
    /// `BENCH_aggregation.json`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"bgv_aggregation\",\n  \"n_ciphertexts\": {},\n  \
             \"ring_degree\": {},\n  \"rns_primes\": {},\n  \"host_cpus\": {},\n  \
             \"results\": [\n{}\n  ]\n}}\n",
            self.n_ciphertexts,
            self.ring_degree,
            self.rns_primes,
            self.host_cpus,
            json_points(&self.points)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_bench_smoke_is_deterministic() {
        // 97 ciphertexts: a remainder at both shard counts.
        let b = bench_aggregation(97, &[2], &[1, 3]);
        assert_eq!(b.ring_degree, 4096);
        assert_eq!(b.points.len(), 2);
        for p in &b.points {
            assert!(
                p.identical,
                "sharded sum must match serial at shards={}",
                p.shards
            );
            assert!(p.serial_secs > 0.0);
        }
        assert_eq!(b.points[0].shards, 1);
        assert_eq!(b.points[1].shards, 3);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let b = bench_aggregation(64, &[1], &[2]);
        let j = b.to_json();
        assert!(j.contains("\"bench\": \"bgv_aggregation\""));
        assert!(j.contains("\"shards\": 2"));
        assert!(j.contains("\"identical\": true"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
