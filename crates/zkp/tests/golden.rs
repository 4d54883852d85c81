//! Golden digest of honest proof bytes.
//!
//! The prover's fixed-base and opening-based rewrites claim to emit the
//! *same* proofs as the generic ladders they replaced. This pins that
//! claim: one SHA-256 over every field of a fixed set of honest one-hot
//! and range proofs drawn from one seeded RNG, computed on the commit
//! before the rewrite (4f6623a). Any change to a group element, a
//! scalar, the RNG draw order or the transcript changes the digest.

use arboretum_crypto::pedersen::PedersenParams;
use arboretum_crypto::sha256::Sha256;
use arboretum_zkp::onehot::prove_one_hot;
use arboretum_zkp::range::prove_range;
use arboretum_zkp::sigma::BitProof;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn absorb_bit_proofs(h: &mut Sha256, proofs: &[BitProof]) {
    for bp in proofs {
        h.update(&bp.a0.to_bytes());
        h.update(&bp.a1.to_bytes());
        for s in [bp.e0, bp.z0, bp.z1] {
            h.update(&s.value().to_be_bytes());
        }
    }
}

#[test]
fn honest_proof_bytes_match_the_pre_rewrite_digest() {
    let pp = PedersenParams::standard();
    let mut rng = StdRng::seed_from_u64(0xa4b0_4e70);
    let mut h = Sha256::new();
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
            h.update(&proof.sum_proof.z.value().to_be_bytes());
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
    let hex: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        "3fb87e4424d0d0019f335a3716284bcc43c144d414270d77926390d52f23d5c5"
    );
}
