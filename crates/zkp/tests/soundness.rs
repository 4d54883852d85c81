//! Soundness negative suite: every field of every proof type is flipped
//! in turn, and verification must reject — with the typed error naming
//! the exact failing check — while the surrounding proofs in a batch
//! stay unaffected.
//!
//! The positive direction ("honest proofs verify") lives in the unit
//! tests; this suite is the adversarial complement backing the §5.3
//! claim that *no* malformed proof slips through.

use arboretum_crypto::group::Scalar;
use arboretum_crypto::pedersen::PedersenParams;
use arboretum_crypto::transcript::Transcript;
use arboretum_zkp::onehot::{
    prove_one_hot, verify_one_hot_detailed, OneHotProof, OneHotVerifyError,
};
use arboretum_zkp::range::{prove_range, verify_range_detailed, RangeProof, RangeVerifyError};
use arboretum_zkp::sigma::{prove_bit, prove_dlog, verify_bit, verify_dlog, BitProof, DlogProof};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(seed: u64) -> (PedersenParams, StdRng) {
    (PedersenParams::standard(), StdRng::seed_from_u64(seed))
}

/// A labeled list of single-field tamper functions for proof type `P`.
type Tampers<'a, P> = Vec<(&'static str, Box<dyn Fn(&mut P) + 'a>)>;

// ---- Sigma protocols: every field flip must reject. ----

#[test]
fn every_dlog_proof_field_flip_rejects() {
    let (pp, mut rng) = setup(1);
    let r = Scalar::new(424242);
    let d = pp.h.pow(r);
    let proof = prove_dlog(&pp, &d, r, &mut Transcript::new(b"t"), &mut rng);
    let tampers: Tampers<DlogProof> = vec![
        ("a", Box::new(|p: &mut DlogProof| p.a = p.a + pp.g)),
        ("z", Box::new(|p: &mut DlogProof| p.z += Scalar::ONE)),
    ];
    for (field, tamper) in tampers {
        let mut bad = proof;
        tamper(&mut bad);
        assert!(
            !verify_dlog(&pp, &d, &bad, &mut Transcript::new(b"t")),
            "flipping {field} must reject"
        );
    }
    // Statement substitution rejects too.
    let other = pp.h.pow(Scalar::new(424243));
    assert!(!verify_dlog(
        &pp,
        &other,
        &proof,
        &mut Transcript::new(b"t")
    ));
}

#[test]
fn every_bit_proof_field_flip_rejects_for_both_bits() {
    let (pp, mut rng) = setup(2);
    for bit in [Scalar::ZERO, Scalar::ONE] {
        let (c, o) = pp.commit(bit, &mut rng);
        let proof = prove_bit(&pp, &c, &o, &mut Transcript::new(b"t"), &mut rng);
        assert!(verify_bit(&pp, &c, &proof, &mut Transcript::new(b"t")));
        let tampers: Tampers<BitProof> = vec![
            ("a0", Box::new(|p: &mut BitProof| p.a0 = p.a0 + pp.g)),
            ("a1", Box::new(|p: &mut BitProof| p.a1 = p.a1 + pp.g)),
            ("e0", Box::new(|p: &mut BitProof| p.e0 += Scalar::ONE)),
            ("z0", Box::new(|p: &mut BitProof| p.z0 += Scalar::ONE)),
            ("z1", Box::new(|p: &mut BitProof| p.z1 += Scalar::ONE)),
        ];
        for (field, tamper) in tampers {
            let mut bad = proof;
            tamper(&mut bad);
            assert!(
                !verify_bit(&pp, &c, &bad, &mut Transcript::new(b"t")),
                "flipping {field} must reject (bit {bit:?})"
            );
        }
    }
}

// ---- One-hot proofs: flips land on the exact typed error. ----

fn one_hot_fixture(seed: u64) -> (PedersenParams, OneHotProof) {
    let (pp, mut rng) = setup(seed);
    let proof = prove_one_hot(&pp, &[0, 1, 0, 0], &mut rng).unwrap();
    assert_eq!(verify_one_hot_detailed(&pp, &proof), Ok(()));
    (pp, proof)
}

#[test]
fn tampered_one_hot_bit_response_is_attributed_to_its_coordinate() {
    for i in 0..4 {
        let (pp, mut proof) = one_hot_fixture(3);
        proof.bit_proofs[i].z0 += Scalar::ONE;
        assert_eq!(
            verify_one_hot_detailed(&pp, &proof),
            Err(OneHotVerifyError::BitProof(i)),
            "coordinate {i}"
        );
    }
}

#[test]
fn tampered_one_hot_branch_commitment_is_attributed_to_its_coordinate() {
    // The shared Fiat–Shamir transcript makes later challenges depend on
    // earlier messages, so a flip at coordinate i must fail at i, not
    // anywhere earlier.
    for i in 0..4 {
        let (pp, mut proof) = one_hot_fixture(4);
        proof.bit_proofs[i].a1 = proof.bit_proofs[i].a1 + pp.g;
        assert_eq!(
            verify_one_hot_detailed(&pp, &proof),
            Err(OneHotVerifyError::BitProof(i)),
            "coordinate {i}"
        );
    }
}

#[test]
fn tampered_one_hot_commitment_poisons_the_transcript_from_the_start() {
    // Coordinate commitments are absorbed before any bit proof, so a
    // flipped commitment invalidates the first challenge drawn.
    for i in 0..4 {
        let (pp, mut proof) = one_hot_fixture(5);
        proof.commitments[i].0 = proof.commitments[i].0 + pp.g;
        assert_eq!(
            verify_one_hot_detailed(&pp, &proof),
            Err(OneHotVerifyError::BitProof(0)),
            "coordinate {i}"
        );
    }
}

#[test]
fn tampered_one_hot_sum_proof_fields_reject_as_sum_proof() {
    let (pp, mut proof) = one_hot_fixture(6);
    proof.sum_proof.z += Scalar::ONE;
    assert_eq!(
        verify_one_hot_detailed(&pp, &proof),
        Err(OneHotVerifyError::SumProof)
    );
    let (pp, mut proof) = one_hot_fixture(6);
    proof.sum_proof.a = proof.sum_proof.a + pp.g;
    assert_eq!(
        verify_one_hot_detailed(&pp, &proof),
        Err(OneHotVerifyError::SumProof)
    );
}

#[test]
fn structurally_damaged_one_hot_proofs_reject_as_structure() {
    let (pp, mut proof) = one_hot_fixture(7);
    proof.bit_proofs.pop();
    assert_eq!(
        verify_one_hot_detailed(&pp, &proof),
        Err(OneHotVerifyError::Structure)
    );
    let (pp, mut proof) = one_hot_fixture(7);
    proof.commitments.pop();
    assert_eq!(
        verify_one_hot_detailed(&pp, &proof),
        Err(OneHotVerifyError::Structure)
    );
    let (pp, mut proof) = one_hot_fixture(7);
    proof.commitments.clear();
    proof.bit_proofs.clear();
    assert_eq!(
        verify_one_hot_detailed(&pp, &proof),
        Err(OneHotVerifyError::Structure)
    );
}

#[test]
fn swapped_one_hot_commitments_reject() {
    // Coordinates 0 and 2 both commit to zero, but under different
    // blindings — the bit proofs are bound to their own commitments and
    // transcript positions, so even a value-preserving swap rejects.
    let (pp, mut proof) = one_hot_fixture(8);
    proof.commitments.swap(0, 2);
    assert!(verify_one_hot_detailed(&pp, &proof).is_err());
}

// ---- Range proofs: flips land on the exact typed error. ----

fn range_fixture(seed: u64) -> (PedersenParams, RangeProof) {
    let (pp, mut rng) = setup(seed);
    let (proof, _) = prove_range(&pp, 5, 4, &mut rng).unwrap();
    assert_eq!(verify_range_detailed(&pp, &proof, 4), Ok(()));
    (pp, proof)
}

#[test]
fn tampered_range_value_commitment_rejects_as_binding() {
    let (pp, mut proof) = range_fixture(9);
    proof.commitment.0 = proof.commitment.0 + pp.g;
    assert_eq!(
        verify_range_detailed(&pp, &proof, 4),
        Err(RangeVerifyError::Binding)
    );
}

#[test]
fn tampered_range_bit_commitment_rejects_as_binding() {
    // The weighted-product binding check runs before any bit proof, so
    // a flipped bit commitment is caught there.
    for i in 0..4 {
        let (pp, mut proof) = range_fixture(10);
        proof.bit_commitments[i].0 = proof.bit_commitments[i].0 + pp.g;
        assert_eq!(
            verify_range_detailed(&pp, &proof, 4),
            Err(RangeVerifyError::Binding),
            "bit {i}"
        );
    }
}

#[test]
fn tampered_range_bit_proof_fields_are_attributed_to_their_bit() {
    for i in 0..4 {
        for field in 0..3 {
            let (pp, mut proof) = range_fixture(11);
            match field {
                0 => proof.bit_proofs[i].z0 += Scalar::ONE,
                1 => proof.bit_proofs[i].e0 += Scalar::ONE,
                _ => proof.bit_proofs[i].a0 = proof.bit_proofs[i].a0 + pp.g,
            }
            assert_eq!(
                verify_range_detailed(&pp, &proof, 4),
                Err(RangeVerifyError::BitProof(i)),
                "bit {i} field {field}"
            );
        }
    }
}

#[test]
fn structurally_damaged_range_proofs_reject_as_structure() {
    let (pp, mut proof) = range_fixture(12);
    proof.bit_proofs.pop();
    assert_eq!(
        verify_range_detailed(&pp, &proof, 4),
        Err(RangeVerifyError::Structure)
    );
    let (pp, proof) = range_fixture(12);
    // Claimed width disagrees with the proof's arity.
    assert_eq!(
        verify_range_detailed(&pp, &proof, 5),
        Err(RangeVerifyError::Structure)
    );
    assert_eq!(
        verify_range_detailed(&pp, &proof, 0),
        Err(RangeVerifyError::Structure)
    );
}

// ---- Batch isolation: one bad proof never taints its neighbors. ----

#[test]
fn batch_one_hot_isolates_bad_proofs_to_their_index() {
    let (pp, mut rng) = setup(13);
    let mut proofs: Vec<OneHotProof> = (0..8)
        .map(|i| {
            let mut bits = vec![0u64; 4];
            bits[i % 4] = 1;
            prove_one_hot(&pp, &bits, &mut rng).unwrap()
        })
        .collect();
    proofs[3].bit_proofs[2].z0 += Scalar::ONE;
    proofs[6].bit_proofs.pop();
    for (i, proof) in proofs.iter().enumerate() {
        let v = verify_one_hot_detailed(&pp, proof);
        match i {
            3 => assert_eq!(v, Err(OneHotVerifyError::BitProof(2))),
            6 => assert_eq!(v, Err(OneHotVerifyError::Structure)),
            _ => assert_eq!(v, Ok(()), "index {i}"),
        }
    }
}

#[test]
fn batch_ranges_isolate_bad_proofs_to_their_index() {
    let (pp, mut rng) = setup(14);
    let mut proofs: Vec<RangeProof> = (0..8)
        .map(|i| prove_range(&pp, i, 4, &mut rng).unwrap().0)
        .collect();
    proofs[1].commitment.0 = proofs[1].commitment.0 + pp.g;
    proofs[5].bit_proofs[3].z1 += Scalar::ONE;
    for (i, proof) in proofs.iter().enumerate() {
        let v = verify_range_detailed(&pp, proof, 4);
        match i {
            1 => assert_eq!(v, Err(RangeVerifyError::Binding)),
            5 => assert_eq!(v, Err(RangeVerifyError::BitProof(3))),
            _ => assert_eq!(v, Ok(()), "index {i}"),
        }
    }
}
