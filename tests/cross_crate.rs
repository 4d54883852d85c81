//! Integration across substrates: BGV + MPC + VSR + sortition working
//! together outside the executor's orchestration.

use arboretum::bgv::{add, decrypt, encode_coeffs, encrypt, keygen, BgvContext, BgvParams};
use arboretum::crypto::group::Scalar;
use arboretum::crypto::sha256::sha256;
use arboretum::field::FGold;
use arboretum::mpc::compare::argmax_tournament;
use arboretum::mpc::engine::MpcEngine;
use arboretum::sortition::select::{select_committees, Device, Registry};
use arboretum::sortition::size::{min_committee_size, SortitionParams};
use arboretum::vsr::{combine_batches, feldman_share, reconstruct, redistribute_share};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Figure 5 pipeline by hand: encrypt one-hot inputs, sum under AHE,
/// decrypt, share into an MPC, and run the argmax — each stage from a
/// different crate.
#[test]
fn figure5_pipeline_by_hand() {
    let mut rng = StdRng::seed_from_u64(99);
    let ctx = BgvContext::new(BgvParams::test_small());
    let (sk, pk) = keygen(&ctx, &mut rng);

    // 50 participants in 4 categories: category 2 dominates.
    let assignment = [4usize, 7, 30, 9];
    let mut agg = None;
    for (cat, &count) in assignment.iter().enumerate() {
        for _ in 0..count {
            let mut one_hot = vec![0u64; 4];
            one_hot[cat] = 1;
            let ct = encrypt(&ctx, &pk, &encode_coeffs(&ctx, &one_hot).unwrap(), &mut rng);
            agg = Some(match agg {
                None => ct,
                Some(acc) => add(&ctx, &acc, &ct),
            });
        }
    }
    let counts = decrypt(&ctx, &sk, &agg.unwrap());
    assert_eq!(&counts[..4], &[4, 7, 30, 9]);

    // Share the counts into a 7-party MPC and find the argmax.
    let mut mpc = MpcEngine::new(7, 3, true, 5);
    let shares: Vec<_> = counts[..4]
        .iter()
        .map(|&c| mpc.input(0, FGold::new(c)))
        .collect();
    let (max_val, max_idx) = argmax_tournament(&mut mpc, &shares, 8).unwrap();
    assert_eq!(mpc.open(&max_val).unwrap(), FGold::new(30));
    assert_eq!(mpc.open(&max_idx).unwrap(), FGold::new(2));
    // Malicious-secure MPC metered real traffic.
    assert!(mpc.net.metrics.bytes_sent_total > 1000);
    assert!(mpc.net.metrics.rounds > 8);
}

/// Sortition → committee sizing → VSR chain: pick committees for a
/// 500-device registry, size them by the failure model, and hand a
/// secret along the committee chain.
#[test]
fn sortition_sizing_and_vsr_chain() {
    let registry = Registry::new((0..500u64).map(Device::from_id).collect());
    let params = SortitionParams::default();
    // Three committees (keygen, decrypt, output) at paper parameters.
    let m = min_committee_size(3, &params).expect("paper parameters are feasible") as usize;
    assert!(m >= 20, "paper-parameter committees are tens of members");
    // Use a smaller concrete m to keep the test fast, same structure.
    let m = 9;
    let t = (m - 1) / 2;
    let sel = select_committees(&registry, &sha256(b"beacon"), 0, 3, m);
    assert_eq!(sel.committees.len(), 3);

    // Keygen committee holds a secret; hand it to the output committee
    // through the decryption committee.
    let mut rng = StdRng::seed_from_u64(42);
    let secret = Scalar::new(0xfeed_beef);
    let hop0 = feldman_share(secret, t, m, &mut rng);
    let b1: Vec<_> = hop0
        .shares
        .iter()
        .map(|s| redistribute_share(s, t, m, &mut rng))
        .collect();
    let hop1 = combine_batches(&b1, &hop0.commitments, t, m).unwrap();
    let c1 = arboretum::vsr::combine_commitments(&b1.iter().take(t + 1).collect::<Vec<_>>());
    let b2: Vec<_> = hop1
        .iter()
        .map(|s| redistribute_share(s, t, m, &mut rng))
        .collect();
    let hop2 = combine_batches(&b2, &c1, t, m).unwrap();
    assert_eq!(reconstruct(&hop2, t).unwrap(), secret);
}

/// ZKP one-hot proofs compose with BGV input encoding: only proof-valid
/// uploads enter the aggregate.
#[test]
fn zkp_gated_aggregation() {
    use arboretum::crypto::pedersen::PedersenParams;
    use arboretum::zkp::onehot::{prove_one_hot, verify_one_hot};

    let mut rng = StdRng::seed_from_u64(11);
    let ctx = BgvContext::new(BgvParams::test_small());
    let (sk, pk) = keygen(&ctx, &mut rng);
    let pp = PedersenParams::standard();

    let mut agg = None;
    let mut accepted = 0;
    // Ten honest one-hot uploads, five malformed ones.
    for i in 0..15u64 {
        let honest = i < 10;
        let bits: Vec<u64> = if honest {
            let mut v = vec![0u64; 3];
            v[(i % 3) as usize] = 1;
            v
        } else {
            vec![1, 1, 1] // Triple-voting attempt.
        };
        let Ok(proof) = prove_one_hot(&pp, &bits, &mut rng) else {
            continue; // Malicious prover cannot even produce a proof.
        };
        if !verify_one_hot(&pp, &proof) {
            continue;
        }
        let ct = encrypt(&ctx, &pk, &encode_coeffs(&ctx, &bits).unwrap(), &mut rng);
        agg = Some(match agg {
            None => ct,
            Some(acc) => add(&ctx, &acc, &ct),
        });
        accepted += 1;
    }
    assert_eq!(accepted, 10, "only honest inputs aggregate");
    let counts = decrypt(&ctx, &sk, &agg.unwrap());
    assert_eq!(counts[..3].iter().sum::<u64>(), 10);
}

/// The fixed-point noise samplers embed losslessly into MPC fixed-point
/// and produce statistically sane noise after reconstruction.
#[test]
fn noise_through_mpc_roundtrip() {
    use arboretum::dp::noise::gumbel_fix;
    use arboretum::field::fixed::Fix;
    use arboretum::mpc::fixp::{inject_with_cost, FunctionalityCost, SharedFix};

    let mut rng = StdRng::seed_from_u64(21);
    let mut mpc = MpcEngine::new(5, 2, false, 9);
    let scale = Fix::from_f64(2.0).unwrap();
    let mut sum = 0.0;
    let k = 200;
    for _ in 0..k {
        let noise = gumbel_fix(&mut rng, scale);
        let shared = inject_with_cost(&mut mpc, noise, FunctionalityCost::gumbel());
        let base = SharedFix::input(&mut mpc, 0, Fix::from_int(100).unwrap());
        let opened = base.add(&mpc, &shared).open(&mut mpc).unwrap();
        sum += opened.to_f64();
    }
    let mean = sum / k as f64 - 100.0;
    // Gumbel(0, 2) mean = 2γ ≈ 1.154.
    assert!((mean - 1.154).abs() < 0.6, "mean {mean}");
}
