//! Measured-vs-modeled validation: one protocol runs on the MPC engine
//! over its evented fabric, which counts the frames and framed bytes
//! that actually cross its links. Its measured payload bytes,
//! busiest-party bytes and rounds must equal the engine's `NetMeter`
//! model **exactly** — for Beaver multiplication, masked comparison,
//! and the argmax tournament.

use arboretum_field::FGold;
use arboretum_mpc::{argmax_tournament, less_than, MpcEngine, MpcError, Shared};

const M: usize = 5;
const T: usize = 2;
const BITS: usize = 16;

/// Inputs to the argmax stage, one per committee member.
const ARGMAX_INPUTS: [u64; M] = [37, 12, 99, 4, 55];

/// The protocol under test: multi-party inputs, batched Beaver
/// multiplication, a masked comparison, and a log-depth argmax
/// tournament, all opened in one final batch.
fn protocol(e: &mut MpcEngine) -> Result<Vec<FGold>, MpcError> {
    let a = e.input(0, FGold::new(6))?;
    let b = e.input(1, FGold::new(7))?;
    let c = e.input(2, FGold::new(30))?;
    let prods = e.mul_batch(&[(&a, &b), (&b, &c)])?;
    let lt = less_than(e, &a, &b, BITS)?;
    let xs: Vec<Shared> = ARGMAX_INPUTS
        .iter()
        .enumerate()
        .map(|(p, &v)| e.input(p, FGold::new(v)))
        .collect::<Result<_, _>>()?;
    let (mx, am) = argmax_tournament(e, &xs, BITS)?;
    let mut outs: Vec<&Shared> = prods.iter().collect();
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
    // Measured run: the evented fabric encodes, queues and decodes every
    // frame, semi-honest (the mode committee failover runs).
    let mut evented = MpcEngine::new(M, T, false, 42);
    assert_eq!(
        protocol(&mut evented).expect("evented protocol"),
        expected()
    );
    let modeled = evented.net.metrics.clone();
    let measured = evented.transport_metrics();
    // The acceptance assertion: measured == modeled, exactly.
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
