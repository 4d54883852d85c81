//! Fold ≡ sequential.
//!
//! `verify_one_hot_detailed` and `verify_range_detailed` check a proof's
//! `2k + 1` equations as one folded multi-exponentiation and fall back
//! to the per-equation pass only to name a failure. This suite holds the
//! public verdict — `Ok`, or the error variant and index — equal to a
//! test-local copy of the sequential verifier the fold replaced (generic
//! ladders, no tables, no fold), over every single-field mutation of
//! every coordinate, on both sides of `multi_exp`'s Straus/Pippenger
//! cutoff. A rejected verdict can only come from a failed fold, so the
//! mutations also show the fold itself rejecting, including the
//! compensating pairs an unweighted sum of the equations would accept.
//!
//! The test-local verifier also spells out the transcript layout frame
//! by frame — labels, order, challenge names — from `crypto::transcript`'s
//! public API alone, so a layout change in `zkp` that is not made here
//! too fails every honest proof below.

use arboretum_crypto::fastexp::PIPPENGER_CUTOFF;
use arboretum_crypto::group::{GroupElem, Scalar};
use arboretum_crypto::pedersen::{Commitment, PedersenParams};
use arboretum_crypto::transcript::{Sealed, Transcript};
use arboretum_zkp::onehot::{
    prove_one_hot, verify_one_hot_detailed, OneHotProof, OneHotVerifyError,
};
use arboretum_zkp::range::{prove_range, verify_range_detailed, RangeProof, RangeVerifyError};
use arboretum_zkp::sigma::BitProof;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---- The sequential verifier, as it stood before the fold, on the
// one-pass transcript: absorb everything, seal, then check. ----

fn absorb_bit_first_moves(t: &mut Transcript, bit_proofs: &[BitProof]) {
    t.append_points(b"bit/a", bit_proofs.iter().map(|bp| [bp.a0, bp.a1]));
}

fn seq_bit(pp: &PedersenParams, c: &Commitment, bp: &BitProof, i: usize, sealed: &Sealed) -> bool {
    let s0 = c.0;
    let s1 = c.0 - pp.g;
    let e = sealed.challenge(i as u64, b"bit/e");
    let e1 = e - bp.e0;
    pp.h.pow(bp.z0) == bp.a0 + s0.pow(bp.e0) && pp.h.pow(bp.z1) == bp.a1 + s1.pow(e1)
}

fn seq_one_hot(pp: &PedersenParams, proof: &OneHotProof) -> Result<(), OneHotVerifyError> {
    if proof.commitments.is_empty() || proof.commitments.len() != proof.bit_proofs.len() {
        return Err(OneHotVerifyError::Structure);
    }
    let mut t = Transcript::new(b"one-hot");
    t.append_u64(b"len", proof.commitments.len() as u64);
    t.append_points(b"c", proof.commitments.iter().map(|c| [c.0]));
    absorb_bit_first_moves(&mut t, &proof.bit_proofs);
    t.append_points(b"sum/a", std::iter::once([proof.sum_proof.a]));
    let sealed = t.seal();
    for (i, (c, bp)) in proof.commitments.iter().zip(&proof.bit_proofs).enumerate() {
        if !seq_bit(pp, c, bp, i, &sealed) {
            return Err(OneHotVerifyError::BitProof(i));
        }
    }
    let d = proof
        .commitments
        .iter()
        .skip(1)
        .fold(proof.commitments[0].0, |acc, c| acc + c.0)
        - pp.g;
    let e = sealed.challenge(0, b"sum/e");
    if pp.h.pow(proof.sum_proof.z) != proof.sum_proof.a + d.pow(e) {
        return Err(OneHotVerifyError::SumProof);
    }
    Ok(())
}

fn seq_range(pp: &PedersenParams, proof: &RangeProof, bits: u32) -> Result<(), RangeVerifyError> {
    if proof.bit_commitments.len() != bits as usize
        || proof.bit_proofs.len() != bits as usize
        || bits == 0
        || bits > 60
    {
        return Err(RangeVerifyError::Structure);
    }
    let product = proof
        .bit_commitments
        .iter()
        .enumerate()
        .fold(GroupElem::IDENTITY, |acc, (i, c)| {
            acc + c.0.pow(Scalar::new(1u64 << i))
        });
    if product != proof.commitment.0 {
        return Err(RangeVerifyError::Binding);
    }
    let mut t = Transcript::new(b"range");
    t.append_u64(b"bits", bits as u64);
    t.append_points(b"value", std::iter::once([proof.commitment.0]));
    t.append_points(b"bit", proof.bit_commitments.iter().map(|c| [c.0]));
    absorb_bit_first_moves(&mut t, &proof.bit_proofs);
    let sealed = t.seal();
    for (i, (c, bp)) in proof
        .bit_commitments
        .iter()
        .zip(&proof.bit_proofs)
        .enumerate()
    {
        if !seq_bit(pp, c, bp, i, &sealed) {
            return Err(RangeVerifyError::BitProof(i));
        }
    }
    Ok(())
}

// ---- Mutations. ----

/// A labeled single-field mutation of one bit proof.
type BitProofMutation<'a> = (&'static str, Box<dyn Fn(&mut BitProof) + 'a>);

/// Every single-field mutation of one bit proof.
fn bit_proof_mutations(pp: &PedersenParams) -> Vec<BitProofMutation<'_>> {
    vec![
        ("a0 replaced", Box::new(|bp| bp.a0 = bp.a0 + pp.g)),
        ("a1 replaced", Box::new(|bp| bp.a1 = bp.a1 + pp.h)),
        (
            "a0 <-> a1",
            Box::new(|bp| std::mem::swap(&mut bp.a0, &mut bp.a1)),
        ),
        ("e0 + 1", Box::new(|bp| bp.e0 += Scalar::ONE)),
        ("z0 + 1", Box::new(|bp| bp.z0 += Scalar::ONE)),
        ("z1 + 1", Box::new(|bp| bp.z1 += Scalar::ONE)),
    ]
}

fn one_hot_agrees(pp: &PedersenParams, proof: &OneHotProof, what: &str) -> bool {
    let verdict = verify_one_hot_detailed(pp, proof);
    assert_eq!(verdict, seq_one_hot(pp, proof), "{what}");
    verdict.is_ok()
}

fn range_agrees(pp: &PedersenParams, proof: &RangeProof, bits: u32, what: &str) -> bool {
    let verdict = verify_range_detailed(pp, proof, bits);
    assert_eq!(verdict, seq_range(pp, proof, bits), "{what}");
    verdict.is_ok()
}

#[test]
fn one_hot_verdicts_equal_the_sequential_verifier_under_every_mutation() {
    let pp = PedersenParams::standard();
    let mut rng = StdRng::seed_from_u64(0xf01d);
    // 3k + 1 pairs: k ≤ 5 stays on the Straus side of the cutoff, 64 and
    // 128 run Pippenger.
    const { assert!(3 * 5 + 1 < PIPPENGER_CUTOFF && 3 * 64 + 1 >= PIPPENGER_CUTOFF) };
    for k in [1usize, 2, 5, 64, 128] {
        let mut bits = vec![0u64; k];
        bits[k / 2] = 1;
        let honest = prove_one_hot(&pp, &bits, &mut rng).unwrap();
        assert!(one_hot_agrees(&pp, &honest, "honest"), "k={k}");

        for i in 0..k {
            for (name, mutate) in bit_proof_mutations(&pp) {
                let mut p = honest.clone();
                mutate(&mut p.bit_proofs[i]);
                let what = format!("k={k} coordinate {i}: {name}");
                assert!(!one_hot_agrees(&pp, &p, &what), "{what} accepted");
            }
            let mut p = honest.clone();
            p.commitments[i].0 = p.commitments[i].0 + pp.g;
            let what = format!("k={k} coordinate {i}: commitment replaced");
            assert!(!one_hot_agrees(&pp, &p, &what), "{what} accepted");
            if k > 1 {
                let mut p = honest.clone();
                p.commitments.swap(i, (i + 1) % k);
                let what = format!("k={k} coordinate {i}: commitment swapped with the next");
                assert!(!one_hot_agrees(&pp, &p, &what), "{what} accepted");
            }
        }

        let mut p = honest.clone();
        p.sum_proof.a = p.sum_proof.a + pp.h;
        assert!(!one_hot_agrees(&pp, &p, "sum a replaced"), "k={k}");
        let mut p = honest.clone();
        p.sum_proof.z += Scalar::ONE;
        assert!(!one_hot_agrees(&pp, &p, "sum z + 1"), "k={k}");

        let mut p = honest.clone();
        p.bit_proofs.pop();
        assert!(!one_hot_agrees(&pp, &p, "bit proof popped"), "k={k}");
        let mut p = honest.clone();
        p.bit_proofs.push(honest.bit_proofs[0]);
        assert!(!one_hot_agrees(&pp, &p, "bit proof pushed"), "k={k}");
        let mut p = honest.clone();
        p.commitments.pop();
        assert!(!one_hot_agrees(&pp, &p, "commitment popped"), "k={k}");
        // Arity restored on both sides: one coordinate fewer, so the
        // transcript's width and run lengths (and every challenge)
        // differ.
        p.bit_proofs.pop();
        assert!(!one_hot_agrees(&pp, &p, "coordinate popped"), "k={k}");
    }
}

#[test]
fn range_verdicts_equal_the_sequential_verifier_under_every_mutation() {
    let pp = PedersenParams::standard();
    let mut rng = StdRng::seed_from_u64(0xf02d);
    // 32 bits is 97 pairs: the Pippenger side.
    for (value, bits) in [(1u64, 1u32), (5, 8), (1023, 10), (0xdead_beef, 32)] {
        let (honest, _) = prove_range(&pp, value, bits, &mut rng).unwrap();
        assert!(range_agrees(&pp, &honest, bits, "honest"), "bits={bits}");

        for i in 0..bits as usize {
            for (name, mutate) in bit_proof_mutations(&pp) {
                let mut p = honest.clone();
                mutate(&mut p.bit_proofs[i]);
                let what = format!("bits={bits} position {i}: {name}");
                assert!(!range_agrees(&pp, &p, bits, &what), "{what} accepted");
            }
            let mut p = honest.clone();
            p.bit_commitments[i].0 = p.bit_commitments[i].0 + pp.g;
            let what = format!("bits={bits} position {i}: bit commitment replaced");
            assert!(!range_agrees(&pp, &p, bits, &what), "{what} accepted");
            if bits > 1 {
                let mut p = honest.clone();
                p.bit_commitments.swap(i, (i + 1) % bits as usize);
                let what = format!("bits={bits} position {i}: bit commitment swapped");
                assert!(!range_agrees(&pp, &p, bits, &what), "{what} accepted");
            }
        }

        let mut p = honest.clone();
        p.commitment.0 = p.commitment.0 + pp.g;
        assert!(!range_agrees(&pp, &p, bits, "value commitment replaced"));

        let mut p = honest.clone();
        p.bit_proofs.pop();
        assert!(!range_agrees(&pp, &p, bits, "bit proof popped"));
        let mut p = honest.clone();
        p.bit_proofs.push(honest.bit_proofs[0]);
        assert!(!range_agrees(&pp, &p, bits, "bit proof pushed"));
        assert!(!range_agrees(
            &pp,
            &honest,
            bits + 1,
            "claimed one bit wider"
        ));
        assert!(!range_agrees(
            &pp,
            &honest,
            bits - 1,
            "claimed one bit narrower"
        ));
    }
}

/// Errors that cancel in an *unweighted* product of the equations: the
/// left sides' `h` exponents sum to the same total, or the right sides
/// multiply to the same element. Only distinct nonzero coefficients per
/// equation tell them apart.
#[test]
fn compensating_mutations_are_rejected() {
    let pp = PedersenParams::standard();
    let mut rng = StdRng::seed_from_u64(0xf03d);
    for k in [2usize, 5, 64] {
        let mut bits = vec![0u64; k];
        bits[0] = 1;
        let honest = prove_one_hot(&pp, &bits, &mut rng).unwrap();
        let (i, j) = (0, k - 1);

        let mut p = honest.clone();
        p.bit_proofs[i].z0 += Scalar::ONE;
        p.bit_proofs[j].z0 -= Scalar::ONE;
        assert!(!one_hot_agrees(&pp, &p, "z0[i] + 1, z0[j] - 1"), "k={k}");

        for c in [i, j] {
            let mut p = honest.clone();
            p.bit_proofs[c].z0 += Scalar::ONE;
            p.bit_proofs[c].z1 -= Scalar::ONE;
            assert!(!one_hot_agrees(&pp, &p, "z0[c] + 1, z1[c] - 1"), "k={k}");

            let mut p = honest.clone();
            let bp = &mut p.bit_proofs[c];
            std::mem::swap(&mut bp.a0, &mut bp.a1);
            assert!(!one_hot_agrees(&pp, &p, "a0[c] <-> a1[c]"), "k={k}");
        }

        let mut p = honest.clone();
        p.bit_proofs[i].z1 += Scalar::ONE;
        p.sum_proof.z -= Scalar::ONE;
        assert!(!one_hot_agrees(&pp, &p, "z1[i] + 1, sum z - 1"), "k={k}");
    }

    let (honest, _) = prove_range(&pp, 0b1011_0010, 8, &mut rng).unwrap();
    let mut p = honest.clone();
    p.bit_proofs[2].z0 += Scalar::ONE;
    p.bit_proofs[6].z0 -= Scalar::ONE;
    assert!(!range_agrees(&pp, &p, 8, "z0[2] + 1, z0[6] - 1"));
    // Bit commitments 0 and 1 traded so the *unweighted* product is
    // unchanged; the 2^i weights (and the transcript) see it.
    let mut p = honest.clone();
    p.bit_commitments[0].0 = p.bit_commitments[0].0 + pp.h;
    p.bit_commitments[1].0 = p.bit_commitments[1].0 - pp.h;
    assert!(!range_agrees(&pp, &p, 8, "c[0] · h, c[1] / h"));
}
