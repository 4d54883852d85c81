//! Soundness negative suite: every field of every proof type is flipped
//! in turn, and verification must reject — with the typed error naming
//! the exact failing check — while the surrounding proofs in a batch
//! stay unaffected.
//!
//! The positive direction ("honest proofs verify") lives in the unit
//! tests; this suite is the adversarial complement backing the §5.3
//! claim that *no* malformed proof slips through.

use arboretum_crypto::group::{GroupElem, Scalar};
use arboretum_crypto::pedersen::{Commitment, PedersenParams};
use arboretum_crypto::transcript::{Sealed, Transcript};
use arboretum_zkp::onehot::{
    prove_one_hot, verify_one_hot_detailed, OneHotProof, OneHotVerifyError,
};
use arboretum_zkp::range::{prove_range, verify_range_detailed, RangeProof, RangeVerifyError};
use arboretum_zkp::sigma::{
    verify_bit, verify_dlog, BitFirstMove, BitProof, DlogFirstMove, DlogProof,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(seed: u64) -> (PedersenParams, StdRng) {
    (PedersenParams::standard(), StdRng::seed_from_u64(seed))
}

/// A labeled list of single-field tamper functions for proof type `P`.
type Tampers<'a, P> = Vec<(&'static str, Box<dyn Fn(&mut P) + 'a>)>;

// ---- Sigma protocols: every field flip must reject. ----

/// The challenge of a stand-alone sigma proof: its statement and first
/// move, sealed.
fn challenge(statement: &GroupElem, first_move: &[GroupElem]) -> Scalar {
    let mut t = Transcript::new(b"t");
    t.append_points(b"statement", std::iter::once([*statement]));
    t.append_points(b"first-move", first_move.iter().map(|a| [*a]));
    t.seal().challenge(0, b"e")
}

#[test]
fn every_dlog_proof_field_flip_rejects() {
    let (pp, mut rng) = setup(1);
    let r = Scalar::new(424242);
    let d = pp.h.pow(r);
    let first = DlogFirstMove::new(&pp, &mut rng);
    let e = challenge(&d, &[first.a]);
    let proof = first.respond(e, r);
    let check = |d: &GroupElem, p: &DlogProof| verify_dlog(&pp, d, p, challenge(d, &[p.a]));
    assert!(check(&d, &proof));
    let tampers: Tampers<DlogProof> = vec![
        ("a", Box::new(|p: &mut DlogProof| p.a = p.a + pp.g)),
        ("z", Box::new(|p: &mut DlogProof| p.z += Scalar::ONE)),
    ];
    for (field, tamper) in tampers {
        let mut bad = proof;
        tamper(&mut bad);
        assert!(!check(&d, &bad), "flipping {field} must reject");
    }
    // Statement substitution rejects too.
    let other = pp.h.pow(Scalar::new(424243));
    assert!(!check(&other, &proof));
}

#[test]
fn every_bit_proof_field_flip_rejects_for_both_bits() {
    let (pp, mut rng) = setup(2);
    for bit in [Scalar::ZERO, Scalar::ONE] {
        let (c, o) = pp.commit(bit, &mut rng);
        let first = BitFirstMove::new(&pp, &o, &mut rng);
        let e = challenge(&c.0, &[first.a0, first.a1]);
        let proof = first.respond(e);
        let check = |p: &BitProof| verify_bit(&pp, &c, p, challenge(&c.0, &[p.a0, p.a1]));
        assert!(check(&proof));
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
            assert!(!check(&bad), "flipping {field} must reject (bit {bit:?})");
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
fn tampered_one_hot_first_move_is_named_by_the_first_check() {
    // Every challenge is derived from one digest over every first-move
    // message of the proof, so a flipped `a0ᵢ`, `a1ᵢ` or `A` invalidates
    // all of them and the first check in the fixed order names it —
    // exactly as a flipped commitment always has.
    for i in 0..4 {
        for branch in 0..2 {
            let (pp, mut proof) = one_hot_fixture(4);
            let bp = &mut proof.bit_proofs[i];
            match branch {
                0 => bp.a0 = bp.a0 + pp.g,
                _ => bp.a1 = bp.a1 + pp.g,
            }
            assert_eq!(
                verify_one_hot_detailed(&pp, &proof),
                Err(OneHotVerifyError::BitProof(0)),
                "coordinate {i} branch {branch}"
            );
        }
    }
    let (pp, mut proof) = one_hot_fixture(6);
    proof.sum_proof.a = proof.sum_proof.a + pp.g;
    assert_eq!(
        verify_one_hot_detailed(&pp, &proof),
        Err(OneHotVerifyError::BitProof(0))
    );
}

#[test]
fn tampered_one_hot_commitment_poisons_the_transcript_from_the_start() {
    // Coordinate commitments are part of the sealed digest too, so a
    // flipped commitment invalidates the first challenge checked.
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
fn tampered_one_hot_sum_response_rejects_as_sum_proof() {
    // The response is not part of any challenge: every bit proof still
    // verifies and the sum proof is the first (and only) failure.
    let (pp, mut proof) = one_hot_fixture(6);
    proof.sum_proof.z += Scalar::ONE;
    assert_eq!(
        verify_one_hot_detailed(&pp, &proof),
        Err(OneHotVerifyError::SumProof)
    );
}

/// The sealed one-hot transcript, rebuilt from `crypto::transcript`'s
/// public API (`tests/fold.rs` pins the same layout).
fn one_hot_sealed(proof: &OneHotProof) -> Sealed {
    let mut t = Transcript::new(b"one-hot");
    t.append_u64(b"len", proof.commitments.len() as u64);
    t.append_points(b"c", proof.commitments.iter().map(|c| [c.0]));
    t.append_points(b"bit/a", proof.bit_proofs.iter().map(|bp| [bp.a0, bp.a1]));
    t.append_points(b"sum/a", std::iter::once([proof.sum_proof.a]));
    t.seal()
}

fn coordinate_verifies(
    pp: &PedersenParams,
    c: &Commitment,
    bp: &BitProof,
    i: usize,
    sealed: &Sealed,
) -> bool {
    verify_bit(pp, c, bp, sealed.challenge(i as u64, b"bit/e"))
}

#[test]
fn a_first_move_flip_at_one_coordinate_fails_every_other_coordinate() {
    // Parallel composition: flipping a single first-move message at
    // coordinate j turns the verdict of every *untouched* coordinate
    // i ≠ j from accept to reject — later ones (i > j), which a chained
    // transcript also caught, and earlier ones (i < j), which it could
    // not, because their challenges had been squeezed before j's
    // messages were absorbed.
    let (pp, honest) = one_hot_fixture(15);
    let k = honest.commitments.len();
    let sealed = one_hot_sealed(&honest);
    for i in 0..k {
        assert!(coordinate_verifies(
            &pp,
            &honest.commitments[i],
            &honest.bit_proofs[i],
            i,
            &sealed
        ));
    }
    type Flip = fn(&mut OneHotProof, usize, GroupElem);
    let flips: [(&str, Flip); 3] = [
        ("a0", |p, j, g| p.bit_proofs[j].a0 = p.bit_proofs[j].a0 + g),
        ("a1", |p, j, g| p.bit_proofs[j].a1 = p.bit_proofs[j].a1 + g),
        ("c", |p, j, g| p.commitments[j].0 = p.commitments[j].0 + g),
    ];
    for j in 0..k {
        for (name, flip) in flips {
            let mut bad = honest.clone();
            flip(&mut bad, j, pp.g);
            let sealed = one_hot_sealed(&bad);
            for i in (0..k).filter(|&i| i != j) {
                assert!(
                    !coordinate_verifies(&pp, &bad.commitments[i], &bad.bit_proofs[i], i, &sealed),
                    "{name} flipped at {j}: untouched coordinate {i} still verifies"
                );
            }
        }
    }
    // The sum proof's first move reaches every coordinate as well.
    let mut bad = honest.clone();
    bad.sum_proof.a = bad.sum_proof.a + pp.g;
    let sealed = one_hot_sealed(&bad);
    for i in 0..k {
        assert!(!coordinate_verifies(
            &pp,
            &bad.commitments[i],
            &bad.bit_proofs[i],
            i,
            &sealed
        ));
    }
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
    // The response fields (`e0`, `z0`, `z1`) feed no challenge, so a
    // flip fails at its own bit. The first-move fields are the next
    // test's.
    for i in 0..4 {
        for field in 0..3 {
            let (pp, mut proof) = range_fixture(11);
            match field {
                0 => proof.bit_proofs[i].z0 += Scalar::ONE,
                1 => proof.bit_proofs[i].e0 += Scalar::ONE,
                _ => proof.bit_proofs[i].z1 += Scalar::ONE,
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
fn tampered_range_first_move_is_named_by_the_first_check() {
    // A flipped `a0ᵢ` or `a1ᵢ` invalidates every challenge; the binding
    // involves none and still holds, so bit 0 is the first failure.
    for i in 0..4 {
        for branch in 0..2 {
            let (pp, mut proof) = range_fixture(11);
            let bp = &mut proof.bit_proofs[i];
            match branch {
                0 => bp.a0 = bp.a0 + pp.g,
                _ => bp.a1 = bp.a1 + pp.g,
            }
            assert_eq!(
                verify_range_detailed(&pp, &proof, 4),
                Err(RangeVerifyError::BitProof(0)),
                "bit {i} branch {branch}"
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
    // Widths past the scalar field are structure too, with no shift by
    // the width on the way (debug builds would panic on one).
    for bits in [61, 64, 65, u32::MAX] {
        assert_eq!(
            verify_range_detailed(&pp, &proof, bits),
            Err(RangeVerifyError::Structure),
            "bits {bits}"
        );
    }
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
