//! Pedersen commitments over the workspace group.
//!
//! `commit(v, r) = g^v · h^r`, with `h` a hash-derived generator of
//! unknown discrete log relative to `g`. The commitment is perfectly
//! hiding and computationally binding, and additively homomorphic —
//! which the ZKP crate exploits for one-hot and range proofs, and the
//! VSR crate for Feldman-style share commitments.

use std::sync::OnceLock;

use crate::fastexp::FixedBaseTable;
use crate::group::{GroupElem, Scalar};
use rand::Rng;

/// Public parameters for Pedersen commitments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PedersenParams {
    /// The value generator `g`.
    pub g: GroupElem,
    /// The blinding generator `h` (unknown dlog w.r.t. `g`).
    pub h: GroupElem,
}

/// A Pedersen commitment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Commitment(pub GroupElem);

/// The opening of a commitment: the value and blinding factor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Opening {
    /// The committed value.
    pub value: Scalar,
    /// The blinding scalar.
    pub blinding: Scalar,
}

impl Default for PedersenParams {
    fn default() -> Self {
        Self::standard()
    }
}

/// The standard blinding generator.
fn standard_h() -> GroupElem {
    GroupElem::hash_to_group(b"pedersen-h")
}

/// The process-wide fixed-base table for [`standard_h`] (16 KiB), built
/// lazily on first use like the generator's
/// ([`crate::fastexp::base_table`]).
fn standard_h_table() -> &'static FixedBaseTable {
    static TABLE: OnceLock<FixedBaseTable> = OnceLock::new();
    TABLE.get_or_init(|| FixedBaseTable::new(standard_h()))
}

impl PedersenParams {
    /// The workspace-standard parameters (`h` derived by hash-to-group).
    pub fn standard() -> Self {
        Self {
            g: GroupElem::generator(),
            h: standard_h(),
        }
    }

    /// `g^e`, bitwise equal to `self.g.pow(e)`: through the generator's
    /// fixed-base table (seven multiplications, three deep) when `g` is the
    /// standard generator, the generic ladder otherwise.
    pub fn g_pow(&self, e: Scalar) -> GroupElem {
        if self.g == GroupElem::generator() {
            GroupElem::mul_base(e)
        } else {
            self.g.pow(e)
        }
    }

    /// `h^e`, bitwise equal to `self.h.pow(e)`: through the standard
    /// `h`'s fixed-base table when `h` is the standard blinding
    /// generator, the generic ladder otherwise.
    pub fn h_pow(&self, e: Scalar) -> GroupElem {
        let table = standard_h_table();
        if self.h == table.base() {
            table.pow(e)
        } else {
            self.h.pow(e)
        }
    }

    /// Commits to `value` with the given blinding factor.
    pub fn commit_with(&self, value: Scalar, blinding: Scalar) -> Commitment {
        Commitment(self.g_pow(value) + self.h_pow(blinding))
    }

    /// Commits to `value` with fresh randomness, returning the opening.
    pub fn commit<R: Rng + ?Sized>(&self, value: Scalar, rng: &mut R) -> (Commitment, Opening) {
        let blinding = Scalar::new(rng.gen());
        (
            self.commit_with(value, blinding),
            Opening { value, blinding },
        )
    }

    /// Verifies an opening against a commitment.
    pub fn verify(&self, c: &Commitment, o: &Opening) -> bool {
        self.commit_with(o.value, o.blinding) == *c
    }
}

#[allow(clippy::should_implement_trait)] // Homomorphic ops named for the algebra.
impl Commitment {
    /// Homomorphic addition: `commit(a) + commit(b) = commit(a + b)`.
    pub fn add(self, other: Self) -> Self {
        Self(self.0 + other.0)
    }

    /// Homomorphic subtraction.
    pub fn sub(self, other: Self) -> Self {
        Self(self.0 - other.0)
    }

    /// Homomorphic scalar multiplication.
    pub fn scale(self, k: Scalar) -> Self {
        Self(self.0.pow(k))
    }

    /// Canonical byte encoding.
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_bytes()
    }
}

#[allow(clippy::should_implement_trait)]
impl Opening {
    /// Adds two openings (tracks the homomorphic commitment addition).
    pub fn add(self, other: Self) -> Self {
        Self {
            value: self.value + other.value,
            blinding: self.blinding + other.blinding,
        }
    }

    /// Scales an opening.
    pub fn scale(self, k: Scalar) -> Self {
        Self {
            value: self.value * k,
            blinding: self.blinding * k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (PedersenParams, StdRng) {
        (PedersenParams::standard(), StdRng::seed_from_u64(7))
    }

    #[test]
    fn commit_open_roundtrip() {
        let (pp, mut rng) = setup();
        let (c, o) = pp.commit(Scalar::new(42), &mut rng);
        assert!(pp.verify(&c, &o));
    }

    #[test]
    fn wrong_value_rejected() {
        let (pp, mut rng) = setup();
        let (c, mut o) = pp.commit(Scalar::new(42), &mut rng);
        o.value = Scalar::new(43);
        assert!(!pp.verify(&c, &o));
    }

    #[test]
    fn wrong_blinding_rejected() {
        let (pp, mut rng) = setup();
        let (c, mut o) = pp.commit(Scalar::new(42), &mut rng);
        o.blinding += Scalar::ONE;
        assert!(!pp.verify(&c, &o));
    }

    #[test]
    fn additively_homomorphic() {
        let (pp, mut rng) = setup();
        let (c1, o1) = pp.commit(Scalar::new(10), &mut rng);
        let (c2, o2) = pp.commit(Scalar::new(32), &mut rng);
        let c = c1.add(c2);
        let o = o1.add(o2);
        assert_eq!(o.value, Scalar::new(42));
        assert!(pp.verify(&c, &o));
    }

    #[test]
    fn scaling_homomorphic() {
        let (pp, mut rng) = setup();
        let (c, o) = pp.commit(Scalar::new(7), &mut rng);
        let c3 = c.scale(Scalar::new(3));
        let o3 = o.scale(Scalar::new(3));
        assert_eq!(o3.value, Scalar::new(21));
        assert!(pp.verify(&c3, &o3));
    }

    #[test]
    fn hiding_under_fresh_randomness() {
        let (pp, mut rng) = setup();
        let (c1, _) = pp.commit(Scalar::new(5), &mut rng);
        let (c2, _) = pp.commit(Scalar::new(5), &mut rng);
        assert_ne!(c1, c2, "same value must yield different commitments");
    }
}
