//! Golden digests of honest proof bytes: what the one-pass transcript
//! moved, and what it did not.
//!
//! Both tests walk the same fixed set of honest one-hot and range proofs
//! drawn from one seeded RNG.
//!
//! * The **first-move** digest covers every group element of every proof
//!   (commitments, `a0`, `a1`, the sum proof's `A`, range value and bit
//!   commitments) and the returned range openings. It was generated on
//!   56d4c29, the commit before the chained transcript was replaced by
//!   the single streaming pass, and is committed unchanged: the RNG draw
//!   order and every group element the prover emits are the parent's.
//! * The **full-proof** digest adds the challenge-dependent scalars
//!   (`e0`, `z0`, `z1`, the sum proof's `z`). It was regenerated on the
//!   commit that introduced the one-pass transcript — only those scalars
//!   changed (the first-move digest above is the proof of "only") — and
//!   pins the new layout: any later change to a label, a frame, the
//!   challenge derivation, a scalar or the draw order changes it.

use arboretum_crypto::pedersen::PedersenParams;
use arboretum_crypto::sha256::Sha256;
use arboretum_zkp::onehot::prove_one_hot;
use arboretum_zkp::range::prove_range;
use arboretum_zkp::sigma::BitProof;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hex SHA-256 over the fixed proof set; `responses` adds the scalars a
/// challenge feeds into.
fn digest(responses: bool) -> String {
    let pp = PedersenParams::standard();
    let mut rng = StdRng::seed_from_u64(0xa4b0_4e70);
    let mut h = Sha256::new();
    let absorb_bit_proofs = |h: &mut Sha256, proofs: &[BitProof]| {
        for bp in proofs {
            h.update(&bp.a0.to_bytes());
            h.update(&bp.a1.to_bytes());
            if responses {
                for s in [bp.e0, bp.z0, bp.z1] {
                    h.update(&s.value().to_be_bytes());
                }
            }
        }
    };
    for k in [1usize, 4, 64] {
        for hot in [0, k / 2, k - 1] {
            let mut bits = vec![0u64; k];
            bits[hot] = 1;
            let proof = prove_one_hot(&pp, &bits, &mut rng).unwrap();
            for c in &proof.commitments {
                h.update(&c.to_bytes());
            }
            absorb_bit_proofs(&mut h, &proof.bit_proofs);
            h.update(&proof.sum_proof.a.to_bytes());
            if responses {
                h.update(&proof.sum_proof.z.value().to_be_bytes());
            }
        }
    }
    for (value, bits) in [(5u64, 8u32), (1023, 10)] {
        let (proof, opening) = prove_range(&pp, value, bits, &mut rng).unwrap();
        h.update(&proof.commitment.to_bytes());
        for c in &proof.bit_commitments {
            h.update(&c.to_bytes());
        }
        absorb_bit_proofs(&mut h, &proof.bit_proofs);
        h.update(&opening.value.value().to_be_bytes());
        h.update(&opening.blinding.value().to_be_bytes());
    }
    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn first_moves_match_the_pre_rewrite_digest() {
    assert_eq!(
        digest(false),
        "30d6ac51c587ffd51fe0e59924ecae99d1f29928d4055709cc7577c69de46871"
    );
}

#[test]
fn honest_proof_bytes_match_the_one_pass_digest() {
    assert_eq!(
        digest(true),
        "1c3187cb2a692417237f4ea5a19367b64f9d5f16f98331048a91817c70d74408"
    );
}
