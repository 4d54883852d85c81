//! Fabric × population network benchmark.
//!
//! Gathers one frame from every device into an aggregator on the sim
//! and evented fabrics, and writes `BENCH_net.json` into the working
//! directory. The dense sim fabric (m² queues) only runs at
//! populations up to `--dense-cap`; the evented virtual-time fabric
//! runs the full axis — that asymmetry is the point of the benchmark.
//! `--smoke` shrinks populations and repetitions to finish in seconds;
//! `--sizes` overrides the population axis (comma-separated).

use arboretum_bench::netbench::bench_net;

fn main() {
    let mut sizes: Vec<usize> = vec![100, 1_000, 10_000, 100_000];
    let mut dense_cap = 1_000usize;
    let mut reps = 3usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => {
                sizes = vec![100, 1_000];
                reps = 1;
            }
            "--sizes" => {
                sizes = args
                    .next()
                    .expect("--sizes needs a value")
                    .split(',')
                    .map(|t| t.trim().parse().expect("--sizes takes numbers"))
                    .collect();
            }
            "--dense-cap" => {
                dense_cap = args
                    .next()
                    .expect("--dense-cap needs a value")
                    .trim()
                    .parse()
                    .expect("--dense-cap takes a number");
            }
            other => {
                eprintln!("unknown flag {other}; use --smoke | --sizes A,B,C | --dense-cap N");
                std::process::exit(2);
            }
        }
    }
    let bench = bench_net(&sizes, dense_cap, reps);
    println!("net fabrics: {} host CPU(s)", bench.host_cpus);
    println!(
        "{:>9} {:>8} {:>5} {:>15} {:>13} {:>12} {:>10}",
        "fabric", "devices", "reps", "ns/gather", "ns/party", "peak bufs", "identical"
    );
    for p in &bench.points {
        println!(
            "{:>9} {:>8} {:>5} {:>15.0} {:>13.1} {:>12} {:>10}",
            p.fabric,
            p.devices,
            p.reps,
            p.ns_per_gather,
            p.ns_per_party,
            p.peak_buffers,
            p.identical
        );
    }
    std::fs::write("BENCH_net.json", bench.to_json()).expect("write BENCH_net.json");
    println!("wrote BENCH_net.json");
}
