//! Property-based tests for the cryptographic primitives.

use arboretum_crypto::fastexp::{base_table, multi_exp, straus_base_mul, FixedBaseTable};
use arboretum_crypto::group::{GroupElem, Scalar, GROUP_Q};
use arboretum_crypto::hmac::{hmac_expand, hmac_sha256};
use arboretum_crypto::merkle::MerkleTree;
use arboretum_crypto::pedersen::PedersenParams;
use arboretum_crypto::schnorr::{verify, verify_batch, BatchEntry, Keypair, PreparedPublicKey};
use arboretum_crypto::sha256::{sha256, Sha256};
use proptest::prelude::*;

/// Random plus edge exponents: 0, 1, and q−1 are always exercised.
fn exponents(random: u64) -> Vec<Scalar> {
    vec![
        Scalar::ZERO,
        Scalar::ONE,
        Scalar::new(GROUP_Q - 1),
        Scalar::new(random),
    ]
}

proptest! {
    #[test]
    fn sha256_incremental_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..2048), split in 0usize..2048) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn sha256_is_deterministic_and_injective_in_practice(a in prop::collection::vec(any::<u8>(), 0..256), b in prop::collection::vec(any::<u8>(), 0..256)) {
        if a == b {
            prop_assert_eq!(sha256(&a), sha256(&b));
        } else {
            prop_assert_ne!(sha256(&a), sha256(&b));
        }
    }

    #[test]
    fn hmac_keys_separate(k1 in prop::collection::vec(any::<u8>(), 1..64), k2 in prop::collection::vec(any::<u8>(), 1..64), msg in prop::collection::vec(any::<u8>(), 0..128)) {
        if k1 != k2 {
            prop_assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
        }
    }

    #[test]
    fn hmac_expand_prefix_stable(len1 in 1usize..200, len2 in 1usize..200) {
        let (a, b) = (len1.min(len2), len1.max(len2));
        let short = hmac_expand(b"key", b"msg", a);
        let long = hmac_expand(b"key", b"msg", b);
        prop_assert_eq!(&short[..], &long[..a]);
    }

    #[test]
    fn merkle_proofs_verify(n in 1usize..64, idx_seed in any::<u64>()) {
        let leaves: Vec<Vec<u8>> = (0..n).map(|i| format!("L{i}").into_bytes()).collect();
        let t = MerkleTree::new(&leaves);
        let idx = (idx_seed as usize) % n;
        let proof = t.prove(idx);
        prop_assert!(MerkleTree::verify(&t.root(), &leaves[idx], &proof));
        // Wrong leaf data never verifies.
        prop_assert!(!MerkleTree::verify(&t.root(), b"evil", &proof));
    }

    #[test]
    fn group_exponent_laws(a in 0..GROUP_Q, b in 0..GROUP_Q) {
        let g = GroupElem::generator();
        let (sa, sb) = (Scalar::new(a), Scalar::new(b));
        prop_assert_eq!(g.pow(sa) + g.pow(sb), g.pow(sa + sb));
        prop_assert_eq!(g.pow(sa).pow(sb), g.pow(sa * sb));
    }

    #[test]
    fn fixed_base_table_is_bitwise_equal_to_pow(base_exp in 1..GROUP_Q, e in 0..GROUP_Q) {
        // An arbitrary base (a random power of g) and the generator both
        // agree with the naive ladder on random and edge exponents.
        let base = GroupElem::generator().pow(Scalar::new(base_exp));
        let table = FixedBaseTable::new(base);
        for s in exponents(e) {
            prop_assert_eq!(table.pow(s), base.pow(s));
            prop_assert_eq!(base_table().pow(s), GroupElem::generator().pow(s));
            prop_assert_eq!(GroupElem::mul_base(s), GroupElem::generator().pow(s));
        }
    }

    #[test]
    fn pedersen_table_pows_are_bitwise_equal_to_pow(e in 0..GROUP_Q, g_exp in 2..GROUP_Q) {
        // Standard parameters go through the two fixed-base tables;
        // any other generator pair falls back to the ladder. Both must
        // equal `pow`, and `commit_with` must equal the two-ladder product.
        let standard = PedersenParams::standard();
        let other = PedersenParams {
            g: standard.g.pow(Scalar::new(g_exp)),
            h: standard.h.pow(Scalar::new(g_exp)),
        };
        let mut scalars = exponents(e);
        scalars.push(Scalar::new((1 << 60) + (e >> 8)));
        for pp in [standard, other] {
            for &s in &scalars {
                prop_assert_eq!(pp.g_pow(s), pp.g.pow(s));
                prop_assert_eq!(pp.h_pow(s), pp.h.pow(s));
                prop_assert_eq!(pp.commit_with(s, -s).0, pp.g.pow(s) + pp.h.pow(-s));
            }
        }
    }

    #[test]
    fn straus_double_exp_is_bitwise_equal_to_pow(y_exp in 1..GROUP_Q, a in 0..GROUP_Q, b in 0..GROUP_Q) {
        let g = GroupElem::generator();
        let y = g.pow(Scalar::new(y_exp));
        for sa in exponents(a) {
            for sb in exponents(b) {
                prop_assert_eq!(straus_base_mul(sa, y, sb), g.pow(sa) + y.pow(sb));
            }
        }
    }

    #[test]
    fn multi_exp_is_bitwise_equal_to_pow_fold(seed in any::<u64>(), n in 0usize..40, edge in 0usize..4) {
        let edges = [0, 1, GROUP_Q - 1, seed % GROUP_Q];
        let pairs: Vec<(GroupElem, Scalar)> = (0..n)
            .map(|i| {
                let b = GroupElem::mul_base(Scalar::new(seed.wrapping_mul(i as u64 + 1) % GROUP_Q));
                // Mix one forced edge exponent into every nonempty batch.
                let e = if i == n / 2 { edges[edge] } else { seed.rotate_left(i as u32) % GROUP_Q };
                (b, Scalar::new(e))
            })
            .collect();
        let naive = pairs.iter().fold(GroupElem::IDENTITY, |acc, (b, e)| acc + b.pow(*e));
        prop_assert_eq!(multi_exp(&pairs), naive);
    }

    #[test]
    fn batch_verify_agrees_with_per_signature_verify(seed in any::<u64>(), n in 1usize..24, forge_mask in any::<u32>()) {
        let kps: Vec<Keypair> = (0..n)
            .map(|i| Keypair::from_seed(&(seed ^ i as u64).to_be_bytes()))
            .collect();
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| format!("round-{}", i % 5).into_bytes()).collect();
        let mut sigs: Vec<_> = kps.iter().zip(&msgs).map(|(kp, m)| kp.sign(m)).collect();
        // Forge a seed-chosen subset by tampering s; expected culprits are
        // exactly the tampered indices.
        let forged: Vec<usize> = (0..n).filter(|i| forge_mask >> (i % 32) & 1 == 1).collect();
        for &i in &forged {
            sigs[i].s += Scalar::ONE;
        }
        let entries: Vec<BatchEntry> = kps
            .iter()
            .zip(&msgs)
            .zip(&sigs)
            .map(|((kp, m), &sig)| BatchEntry { pk: kp.pk, msg: m, sig })
            .collect();
        let per_sig: Vec<usize> = entries
            .iter()
            .enumerate()
            .filter(|(_, en)| !verify(&en.pk, en.msg, &en.sig))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(&per_sig, &forged);
        match verify_batch(&entries) {
            Ok(()) => prop_assert!(forged.is_empty()),
            Err(bad) => prop_assert_eq!(bad, forged),
        }
    }

    #[test]
    fn prepared_key_agrees_with_verify(seed in any::<u64>(), msg in prop::collection::vec(any::<u8>(), 0..64), tweak in 1..GROUP_Q) {
        let kp = Keypair::from_seed(&seed.to_be_bytes());
        let prepared = PreparedPublicKey::new(kp.pk);
        let sig = kp.sign(&msg);
        prop_assert!(prepared.verify(&msg, &sig));
        let mut bad = sig;
        bad.s += Scalar::new(tweak);
        prop_assert_eq!(prepared.verify(&msg, &bad), verify(&kp.pk, &msg, &bad));
    }

    #[test]
    fn schnorr_roundtrip_and_unforgeability(seed in any::<u64>(), msg in prop::collection::vec(any::<u8>(), 0..64), tweak in 1..GROUP_Q) {
        let kp = Keypair::from_seed(&seed.to_be_bytes());
        let sig = kp.sign(&msg);
        prop_assert!(verify(&kp.pk, &msg, &sig));
        let mut bad = sig;
        bad.s += Scalar::new(tweak);
        prop_assert!(!verify(&kp.pk, &msg, &bad));
    }

    #[test]
    fn pedersen_homomorphism(v1 in 0..GROUP_Q, v2 in 0..GROUP_Q, r1 in 0..GROUP_Q, r2 in 0..GROUP_Q) {
        let pp = PedersenParams::standard();
        let c1 = pp.commit_with(Scalar::new(v1), Scalar::new(r1));
        let c2 = pp.commit_with(Scalar::new(v2), Scalar::new(r2));
        let sum = pp.commit_with(Scalar::new(v1) + Scalar::new(v2), Scalar::new(r1) + Scalar::new(r2));
        prop_assert_eq!(c1.add(c2), sum);
    }

    #[test]
    fn pedersen_binding_in_practice(v1 in 0..GROUP_Q, v2 in 0..GROUP_Q, r in 0..GROUP_Q) {
        if v1 != v2 {
            let pp = PedersenParams::standard();
            prop_assert_ne!(
                pp.commit_with(Scalar::new(v1), Scalar::new(r)),
                pp.commit_with(Scalar::new(v2), Scalar::new(r))
            );
        }
    }
}
