//! Criterion benchmark of the two transport fabrics: framed messages
//! per second through the instant simulated path and the evented
//! virtual-time path (shared core, pooled buffers). The evented
//! population axis shows the per-party overhead staying flat as the
//! gather grows — useful when deciding which fabric an experiment
//! harness should run on.

use arboretum_field::FGold;
use arboretum_net::{evented_fabric, EventedConfig, Message, SimTransport, Transport};
use criterion::{criterion_group, criterion_main, Criterion};

const PARTIES: usize = 5;
const ELEMS: usize = 64;

fn payload() -> Message {
    Message::FieldElems((0..ELEMS as u64).map(FGold::new).collect())
}

/// One all-to-one exchange: every non-king party sends the payload to
/// party 0, which receives all of them (the shape of a king-based open).
fn bench_sim(c: &mut Criterion) {
    let msg = payload();
    c.bench_function("net/sim_gather_5x64", |b| {
        b.iter(|| {
            let mut fabric = SimTransport::new(PARTIES);
            for p in 1..PARTIES {
                fabric.send(p, 0, &msg).unwrap();
            }
            for p in 1..PARTIES {
                std::hint::black_box(fabric.recv(0, p).unwrap());
            }
        })
    });
}

/// The same king-gather on the evented fabric's blocking endpoints,
/// driven from one thread: sends queue on the virtual clock, so the
/// king's receives never block.
fn bench_evented(c: &mut Criterion) {
    let msg = payload();
    c.bench_function("net/evented_gather_5x64", |b| {
        b.iter(|| {
            let mut eps = evented_fabric(PARTIES, &EventedConfig::default());
            let mut king = eps.remove(0);
            for (p, ep) in eps.iter_mut().enumerate() {
                ep.send(p + 1, 0, &msg).unwrap();
            }
            for p in 1..PARTIES {
                std::hint::black_box(king.recv(0, p).unwrap());
            }
        })
    });
}

/// Evented gathers across a population axis: per-party cost should
/// stay flat.
fn bench_evented_populations(c: &mut Criterion) {
    let msg = payload();
    let mut group = c.benchmark_group("net/evented_gather_population");
    for n in [100usize, 1_000, 10_000] {
        group.bench_function(n.to_string().as_str(), |b| {
            b.iter(|| {
                let mut eps = evented_fabric(n + 1, &EventedConfig::default());
                let mut agg = eps.pop().unwrap();
                for (i, ep) in eps.iter_mut().enumerate() {
                    ep.send(i, n, &msg).unwrap();
                }
                for i in 0..n {
                    std::hint::black_box(agg.recv(n, i).unwrap());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sim, bench_evented, bench_evented_populations);
criterion_main!(benches);
