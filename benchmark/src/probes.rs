//! Single-layer micro-probes: short timed loops around leaf-crate
//! public functions at the workload's own shape. They run once per
//! traced run, after the ops, and feed per-layer metrics only.

use arboretum::bgv::{self, BgvContext, BgvParams};
use arboretum::crypto::fastexp::multi_exp;
use arboretum::crypto::group::{GroupElem, Scalar};
use arboretum::crypto::pedersen::PedersenParams;
use arboretum::crypto::sha256::sha256;
use arboretum::dp::budget::{LedgerBook, PrivacyCost};
use arboretum::field::primes::{BGV_Q1, BGV_Q2, BGV_Q_ROOTS};
use arboretum::field::zq::RtNttTable;
use arboretum::field::FGold;
use arboretum::net::{evented_fabric, EventedConfig, Message, Transport};
use arboretum::sortition::select::{select_committees, Device, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;
use crate::workloads::Layers;

/// The ring degree every workload aggregates at (`setup.rs` picks
/// `max(256, categories)`, and no workload has more than 128).
const RING: usize = 256;

/// Median nanoseconds of one `f()` over five batches of `iters` calls.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// Runs every micro-probe for a workload over `devices` × `categories`.
pub fn run(seed: u64, devices: usize, categories: usize, layers: &mut Layers) {
    let mut rng = StdRng::seed_from_u64(seed);

    // field: the NTT the BGV ring multiplies with.
    let table = RtNttTable::new(RING, BGV_Q1, BGV_Q_ROOTS[0]);
    let a: Vec<u64> = (0..RING).map(|_| rng.gen::<u64>() % BGV_Q1).collect();
    let b: Vec<u64> = (0..RING).map(|_| rng.gen::<u64>() % BGV_Q1).collect();
    let mut work = a.clone();
    layers.set(
        "field.ntt_forward_ns",
        ns_per_call(2000, || table.forward(black_box(&mut work))),
    );
    layers.set(
        "field.negacyclic_mul_ns",
        ns_per_call(1000, || {
            black_box(table.negacyclic_mul(black_box(&a), black_box(&b)));
        }),
    );

    // crypto: what one-hot proofs are made of.
    let pp = PedersenParams::standard();
    let (v, r) = (Scalar::new(rng.gen()), Scalar::new(rng.gen()));
    layers.set(
        "crypto.pedersen_commit_ns",
        ns_per_call(2000, || {
            black_box(pp.commit_with(black_box(v), black_box(r)));
        }),
    );
    layers.set(
        "crypto.fixed_base_exp_ns",
        ns_per_call(2000, || {
            black_box(GroupElem::mul_base(black_box(r)));
        }),
    );
    let pairs: Vec<(GroupElem, Scalar)> = (0..128)
        .map(|_| {
            (
                GroupElem::mul_base(Scalar::new(rng.gen())),
                Scalar::new(rng.gen()),
            )
        })
        .collect();
    layers.set(
        "crypto.multiexp_ns_per_pair",
        ns_per_call(20, || {
            black_box(multi_exp(black_box(&pairs)));
        }) / pairs.len() as f64,
    );
    let blocks = [0x5au8; 64 * 64];
    layers.set(
        "crypto.sha256_ns_per_block",
        ns_per_call(200, || {
            black_box(sha256(black_box(&blocks)));
        }) / 64.0,
    );

    // bgv: key generation at the session's parameters (encrypt, ⊞ and
    // decrypt are timed by the replay, on the workload's own uploads).
    let params = BgvParams::new(
        RING.max(categories.next_power_of_two()),
        vec![BGV_Q1, BGV_Q2],
        BGV_Q_ROOTS[..2].to_vec(),
        1 << 30,
        None,
    )
    .expect("session parameters");
    layers.set("bgv.ciphertext_bytes", params.ciphertext_bytes() as f64);
    let ctx = BgvContext::new(params);
    layers.set(
        "bgv.keygen_us",
        ns_per_call(20, || {
            black_box(bgv::keygen(&ctx, &mut rng));
        }) / 1e3,
    );

    // sortition: registry build and committee selection, per device.
    let start = Instant::now();
    let registry = Registry::new((0..devices as u64).map(Device::from_id).collect());
    layers.set(
        "sortition.registry_us_per_device",
        start.elapsed().as_secs_f64() * 1e6 / devices as f64,
    );
    let beacon = sha256(b"probe-beacon");
    layers.set(
        "sortition.select_us_per_device",
        ns_per_call(1, || {
            black_box(select_committees(&registry, &beacon, 1, 5, 5));
        }) / 1e3
            / devices as f64,
    );

    // net: one gather of 1000 frames on the evented fabric.
    let parties = 1000;
    let msg = Message::FieldElems((0..4).map(FGold::new).collect());
    layers.set(
        "net.evented_ns_per_frame",
        ns_per_call(1, || {
            let mut eps = evented_fabric(parties + 1, &EventedConfig::default());
            let mut agg = eps.pop().expect("aggregator endpoint");
            for (i, ep) in eps.iter_mut().enumerate() {
                ep.send(i, parties, &msg).expect("send");
            }
            for i in 0..parties {
                black_box(agg.recv(parties, i).expect("recv"));
            }
        }) / parties as f64,
    );

    // dp: one all-or-nothing charge against analyst + deployment ledgers.
    let big = PrivacyCost {
        epsilon: 1e12,
        delta: 0.5,
    };
    let mut book = LedgerBook::new(big);
    book.open("analyst", big).expect("fresh book");
    let cost = PrivacyCost {
        epsilon: 8.0,
        delta: 0.0,
    };
    layers.set(
        "dp.ledger_charge_us",
        ns_per_call(2000, || {
            black_box(book.charge("analyst", black_box(cost))).expect("budget is ample");
        }) / 1e3,
    );
}
