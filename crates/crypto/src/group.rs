//! A prime-order Schnorr group for commitments and signatures.
//!
//! The group is the order-`q` subgroup of quadratic residues in `Z_p*`,
//! where `p = 2q + 1` is a 62-bit safe prime. This gives the exact
//! algebraic structure the paper's commitment and proof machinery assumes
//! (prime-order cyclic group, hard-to-relate generators), at
//! research-scale rather than production-scale parameters — see DESIGN.md
//! ("Substitutions"). All higher layers are parametric in the group, so
//! swapping in a production curve would not change them.

use arboretum_field::fp::Fp;
use core::ops::{Add, Mul, Neg, Sub};

use crate::sha256::Sha256;

/// The 62-bit safe prime `p = 2q + 1`.
pub const GROUP_P: u64 = 4_611_686_018_427_377_339;

/// The prime group order `q = (p - 1) / 2`.
pub const GROUP_Q: u64 = 2_305_843_009_213_688_669;

/// The base-field type `Z_p`.
pub type Base = Fp<GROUP_P>;

/// Scalars are exponents, living in `Z_q`.
pub type Scalar = Fp<GROUP_Q>;

/// An element of the order-`q` subgroup, in multiplicative notation
/// internally but exposed additively (`+` is the group operation,
/// `scalar * point` is exponentiation) to match common group APIs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GroupElem(Base);

impl GroupElem {
    /// The identity element.
    pub const IDENTITY: Self = Self(Base::new(1));

    /// The standard generator `g = 4` (a quadratic residue, order `q`).
    pub fn generator() -> Self {
        Self(Base::new(4))
    }

    /// Exponentiation `self^e` for a scalar exponent (generic
    /// square-and-multiply; the fixed-base and multi-base fast paths in
    /// [`crate::fastexp`] are bitwise equal to this by construction).
    pub fn pow(self, e: Scalar) -> Self {
        Self(self.0.pow(e.value()))
    }

    /// Returns `generator^e`, through the lazily-built process-wide
    /// fixed-base window table ([`crate::fastexp::base_table`]) — seven
    /// group multiplications, three deep, instead of a ~90-operation
    /// ladder, with an identical result.
    pub fn mul_base(e: Scalar) -> Self {
        crate::fastexp::base_table().pow(e)
    }

    /// Hashes a domain-separation label to a group element of unknown
    /// discrete log (squares the hash to land in the QR subgroup).
    ///
    /// The 64-bit hash draw is accepted only when it already lies in
    /// `(1, p)` — rejection sampling, so accepted values are uniform
    /// over the valid range. (The previous `u64 % p` reduction favored
    /// residues below `2^64 mod p`; `p ≈ 2^62`, so low residues were
    /// up to 4× likelier.) Labels whose first draw lands in range —
    /// including every generator the workspace derives today, e.g.
    /// Pedersen's `h` — hash to the same element as before.
    pub fn hash_to_group(label: &[u8]) -> Self {
        let mut ctr = 0u32;
        loop {
            let mut h = Sha256::new();
            h.update(b"arboretum/h2g/");
            h.update(label);
            h.update(&ctr.to_be_bytes());
            let d = h.finalize();
            let v = u64::from_be_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]]);
            if v > 1 && v < GROUP_P {
                // Squaring maps into the QR subgroup of order q.
                return Self(Base::new(v).square());
            }
            ctr += 1;
        }
    }

    /// Canonical byte encoding of the element.
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.value().to_be_bytes()
    }

    /// Decodes an element, checking subgroup membership.
    ///
    /// Returns `None` if the value is not a quadratic residue mod `p`
    /// (i.e. not in the order-`q` subgroup) or is out of range.
    pub fn from_bytes(b: [u8; 8]) -> Option<Self> {
        let v = u64::from_be_bytes(b);
        if v == 0 || v >= GROUP_P {
            return None;
        }
        let e = Base::new(v);
        // Euler's test: e^q == 1 iff e is in the QR subgroup.
        if e.pow(GROUP_Q) == Base::new(1) {
            Some(Self(e))
        } else {
            None
        }
    }

    /// Raw base-field value (for transcripts and tests).
    pub fn value(self) -> u64 {
        self.0.value()
    }
}

impl Add for GroupElem {
    type Output = Self;
    /// Group operation (multiplication in `Z_p*`).
    #[allow(clippy::suspicious_arithmetic_impl)] // Additive notation over a multiplicative group.
    fn add(self, rhs: Self) -> Self {
        Self(self.0 * rhs.0)
    }
}

impl Sub for GroupElem {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        self + (-rhs)
    }
}

impl Neg for GroupElem {
    type Output = Self;
    /// Group inverse.
    fn neg(self) -> Self {
        Self(self.0.inv())
    }
}

impl Mul<GroupElem> for Scalar {
    type Output = GroupElem;
    /// Scalar multiplication (exponentiation).
    fn mul(self, rhs: GroupElem) -> GroupElem {
        rhs.pow(self)
    }
}

/// `2^64 mod q`: `q = 2^61 − 5283`, so `2^64 = 8·2^61 ≡ 8·5283`.
const POW64_MOD_Q: u64 = 8 * ((1 << 61) - GROUP_Q);

/// Reduces 32 hash bytes to a scalar in `Z_q`.
///
/// The digest is four big-endian 64-bit limbs `l0 … l3`, and its value
/// mod `q` is `l0·2^192 + l1·2^128 + l2·2^64 + l3`. The three powers of
/// `2^64` mod `q` are the constants 42,264, 42,264² and 42,264³ (the
/// cube is below `2^47`, so they are plain integer products), which
/// makes the three products independent of each other — a Horner chain
/// over the limbs computes the same scalar in four dependent steps.
///
/// The bias from direct reduction of a 256-bit value modulo a 61-bit prime
/// is below `2^-190`, i.e. negligible.
pub fn scalar_from_hash(d: &[u8; 32]) -> Scalar {
    const C1: Scalar = Scalar::new(POW64_MOD_Q);
    const C2: Scalar = Scalar::new(POW64_MOD_Q * POW64_MOD_Q);
    const C3: Scalar = Scalar::new(POW64_MOD_Q * POW64_MOD_Q * POW64_MOD_Q);
    let (limbs, _) = d.as_chunks::<8>();
    let limb = |i: usize| Scalar::new(u64::from_be_bytes(limbs[i]));
    (limb(0) * C3 + limb(1) * C2) + (limb(2) * C1 + limb(3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arboretum_field::primes::is_prime;

    #[test]
    fn parameters_are_sound() {
        assert!(is_prime(GROUP_P));
        assert!(is_prime(GROUP_Q));
        assert_eq!(GROUP_P, 2 * GROUP_Q + 1);
    }

    #[test]
    fn generator_has_order_q() {
        let g = GroupElem::generator();
        assert_eq!(
            g.pow(Scalar::new(GROUP_Q)),
            GroupElem::IDENTITY + g.pow(Scalar::ZERO) - GroupElem::IDENTITY
        );
        // g^q should be the identity.
        assert_eq!(Base::new(4).pow(GROUP_Q), Base::new(1));
        assert_ne!(g, GroupElem::IDENTITY);
    }

    #[test]
    fn exponent_laws() {
        let g = GroupElem::generator();
        let a = Scalar::new(123_456_789);
        let b = Scalar::new(987_654_321);
        assert_eq!(g.pow(a) + g.pow(b), g.pow(a + b));
        assert_eq!(g.pow(a).pow(b), g.pow(a * b));
        assert_eq!(g.pow(a) - g.pow(a), GroupElem::IDENTITY);
    }

    #[test]
    fn hash_to_group_lands_in_subgroup() {
        for label in [b"a".as_slice(), b"pedersen-h", b"zzz"] {
            let e = GroupElem::hash_to_group(label);
            assert_eq!(e.0.pow(GROUP_Q), Base::new(1), "not in subgroup");
            assert_ne!(e, GroupElem::IDENTITY);
        }
        assert_ne!(
            GroupElem::hash_to_group(b"a"),
            GroupElem::hash_to_group(b"b")
        );
    }

    #[test]
    fn hash_to_group_keeps_existing_generators_stable() {
        // Rejection sampling replaced `u64 % p`; labels whose first draw
        // already lay in range are unchanged. Pedersen's blinding
        // generator is the one the rest of the workspace depends on —
        // pin its exact value so a sampling change can never silently
        // re-derive it.
        assert_eq!(
            GroupElem::hash_to_group(b"pedersen-h").value(),
            142_484_066_720_369_681
        );
    }

    #[test]
    fn hash_to_group_is_roughly_uniform() {
        // Accepted draws are uniform over (1, p) by rejection; squares of
        // uniform values equidistribute over the QR subgroup, which is
        // itself equidistributed in [1, p). Bucket element values into
        // octants of [0, p) and require every octant populated within
        // generous bounds. (The old modulo-biased draw favored values
        // below 2^64 mod p ≈ 0.25·p by a factor of up to 4.)
        const LABELS: usize = 2000;
        let mut buckets = [0usize; 8];
        for i in 0..LABELS {
            let e = GroupElem::hash_to_group(format!("dist-{i}").as_bytes());
            let octant = (e.value() as u128 * 8 / GROUP_P as u128) as usize;
            buckets[octant] += 1;
        }
        let expected = LABELS / 8;
        for (i, &b) in buckets.iter().enumerate() {
            assert!(
                b > expected / 2 && b < expected * 2,
                "octant {i} holds {b} of {LABELS} elements (expected ~{expected})"
            );
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let g = GroupElem::generator();
        for e in [g, g.pow(Scalar::new(42)), GroupElem::hash_to_group(b"x")] {
            assert_eq!(GroupElem::from_bytes(e.to_bytes()), Some(e));
        }
    }

    #[test]
    fn decode_rejects_non_residues() {
        // 2 generates the full group Z_p* for a safe prime with p ≡ 3 mod 8
        // unless it is a QR; verify rejection logic on a known non-residue.
        let mut rejected = 0;
        for v in 2u64..200 {
            if GroupElem::from_bytes(v.to_be_bytes()).is_none() {
                rejected += 1;
            }
        }
        // About half of small values are non-residues.
        assert!(rejected > 50, "only {rejected} rejected");
        assert!(GroupElem::from_bytes(0u64.to_be_bytes()).is_none());
        assert!(GroupElem::from_bytes(GROUP_P.to_be_bytes()).is_none());
    }

    #[test]
    fn scalar_from_hash_matches_the_horner_chain() {
        // The reference reads the digest as one big-endian integer, limb
        // by limb: acc = acc·2^64 + limb, with 2^64 mod q from a squaring.
        fn horner(d: &[u8; 32]) -> Scalar {
            let shift = Scalar::new(1u64 << 32).square();
            d.chunks(8).fold(Scalar::ZERO, |acc, chunk| {
                let mut limb = [0u8; 8];
                limb.copy_from_slice(chunk);
                acc * shift + Scalar::new(u64::from_be_bytes(limb))
            })
        }
        assert_eq!(Scalar::new(1u64 << 32).square().value(), POW64_MOD_Q);
        for d in [[0u8; 32], [0xff; 32]] {
            assert_eq!(scalar_from_hash(&d), horner(&d));
        }
        let mut d = crate::sha256::sha256(b"scalar-from-hash");
        for _ in 0..10_000 {
            assert_eq!(scalar_from_hash(&d), horner(&d));
            d = crate::sha256::sha256(&d);
        }
    }

    #[test]
    fn scalar_from_hash_is_deterministic() {
        let d = crate::sha256::sha256(b"challenge");
        assert_eq!(scalar_from_hash(&d), scalar_from_hash(&d));
        let d2 = crate::sha256::sha256(b"challenge2");
        assert_ne!(scalar_from_hash(&d), scalar_from_hash(&d2));
    }
}
