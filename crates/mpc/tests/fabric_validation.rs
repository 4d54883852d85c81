//! Measured-vs-modeled validation: the same protocol, written once
//! against [`MpcOps`], runs on the analytic [`MpcEngine`] (which meters
//! costs through `NetMeter`) over both of its fabrics, and on a real
//! 5-party committee — one OS thread per member, each blocking on its
//! own `arboretum-net` evented endpoint, which counts the actual framed
//! bytes crossing the links. The measured payload bytes and rounds must
//! equal the model **exactly** — for Beaver multiplication, masked
//! comparison, and the argmax tournament.

use std::time::Duration;

use arboretum_field::FGold;
use arboretum_mpc::{
    argmax_tournament, less_than, shared_dealer, MpcEngine, MpcError, MpcOps, Party,
};
use arboretum_net::{evented_fabric, EventedConfig, FabricKind};

const M: usize = 5;
const T: usize = 2;
const BITS: usize = 16;

/// Inputs to the argmax stage, one per committee member.
const ARGMAX_INPUTS: [u64; M] = [37, 12, 99, 4, 55];

/// The protocol under test, generic over the engine: multi-party
/// inputs, batched Beaver multiplication, a masked comparison, and a
/// log-depth argmax tournament, all opened in one final batch.
fn protocol<E: MpcOps>(e: &mut E) -> Result<Vec<FGold>, MpcError> {
    let a = e.input(0, FGold::new(6))?;
    let b = e.input(1, FGold::new(7))?;
    let c = e.input(2, FGold::new(30))?;
    let prods = e.mul_batch(&[(&a, &b), (&b, &c)])?;
    let lt = less_than(e, &a, &b, BITS)?;
    let xs: Vec<E::Secret> = ARGMAX_INPUTS
        .iter()
        .enumerate()
        .map(|(p, &v)| e.input(p, FGold::new(v)))
        .collect::<Result<_, _>>()?;
    let (mx, am) = argmax_tournament(e, &xs, BITS)?;
    let mut outs: Vec<&E::Secret> = prods.iter().collect();
    outs.push(&lt);
    outs.push(&mx);
    outs.push(&am);
    e.open_batch(&outs)
}

fn expected() -> Vec<FGold> {
    vec![
        FGold::new(6 * 7),
        FGold::new(7 * 30),
        FGold::ONE, // 6 < 7
        FGold::new(99),
        FGold::new(2), // index of 99
    ]
}

#[test]
fn per_party_measured_traffic_equals_netmeter_model_exactly() {
    // Modeled run: the analytic all-party engine, semi-honest (the
    // per-thread parties run the semi-honest protocol).
    let mut engine = MpcEngine::new(M, T, false, 42);
    let modeled_out = protocol(&mut engine).expect("modeled protocol");
    assert_eq!(modeled_out, expected());
    let modeled = engine.net.metrics.clone();
    // The engine's own fabric already agrees with its meter (payload
    // bytes are defined by the wire format in both).
    let engine_fabric = engine.transport_metrics();
    assert_eq!(engine_fabric.payload_bytes_total, modeled.bytes_sent_total);
    assert_eq!(engine_fabric.payload_bytes_max, modeled.bytes_sent_max);
    assert_eq!(engine_fabric.rounds, modeled.rounds);

    // The same act-as-anyone engine on the evented fabric's engine
    // frontend must be bitwise identical to the sim fabric.
    let mut ev_engine = MpcEngine::new_on(M, T, false, 42, FabricKind::Evented);
    let out = protocol(&mut ev_engine).expect("evented-engine protocol");
    assert_eq!(out, expected());
    assert_eq!(
        ev_engine.transport_metrics(),
        engine_fabric,
        "evented engine fabric must meter bitwise identically to sim"
    );

    // Measured run: one OS thread per committee member, real frames
    // between blocking evented endpoints, with receive timeouts so a
    // wedged run fails rather than hangs.
    let cfg = EventedConfig {
        timeout: Duration::from_secs(10),
        ..EventedConfig::default()
    };
    let endpoints = evented_fabric(M, &cfg);
    let handle = endpoints[0].metrics_handle();
    let dealer = shared_dealer(M, T, 7);
    let outs: Vec<Vec<FGold>> = std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| {
                let dealer = dealer.clone();
                s.spawn(move || {
                    let mut party = Party::new(M, T, ep, dealer, 99);
                    protocol(&mut party)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("party thread must not panic"))
            .map(|r| r.expect("committee protocol"))
            .collect()
    });
    for out in &outs {
        assert_eq!(out, &expected(), "every party must open the same results");
    }
    // The acceptance assertion: measured == modeled, exactly.
    let measured = handle.snapshot();
    assert_eq!(
        measured.payload_bytes_total, modeled.bytes_sent_total,
        "measured payload bytes must equal the NetMeter model exactly"
    );
    assert_eq!(
        measured.payload_bytes_max, modeled.bytes_sent_max,
        "busiest-party bytes must equal the model exactly"
    );
    assert_eq!(
        measured.rounds, modeled.rounds,
        "measured sync rounds must equal the model exactly"
    );
    // Framing overhead is metered separately, on top of the payload.
    assert_eq!(
        measured.framed_bytes_total,
        measured.payload_bytes_total + 8 * measured.frames,
        "framed bytes are payload plus one 8-byte header per frame"
    );
    assert!(measured.frames > 0 && measured.rounds > 0);
}
