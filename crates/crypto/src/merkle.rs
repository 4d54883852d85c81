//! Merkle hash trees with inclusion proofs.
//!
//! Used in three places in Arboretum: the registry of participant devices
//! (§5.1), the aggregator's step-audit tree that participants spot-check
//! (§5.3), and the query-authorization certificate contents (§5.2).
//!
//! Leaves and interior nodes are domain-separated (prefix bytes `0x00` /
//! `0x01`) to prevent second-preimage splicing attacks.

use crate::sha256::{Digest, Sha256};

fn hash_leaf(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(data);
    h.finalize()
}

fn hash_node(l: &Digest, r: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(l);
    h.update(r);
    h.finalize()
}

/// A Merkle tree over a list of byte-string leaves.
///
/// Odd nodes at any level are promoted unchanged (no duplication), which
/// keeps proofs unambiguous for any leaf count.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// `levels[0]` holds leaf hashes, `levels.last()` the root.
    levels: Vec<Vec<Digest>>,
}

/// An inclusion proof: sibling hashes from leaf to root.
///
/// A level entry is `None` when the node was promoted without a sibling
/// (odd node count at that level), which keeps the verifier's index path
/// in sync with the prover's.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub index: usize,
    /// Per level: sibling digest and whether it sits on the right, or
    /// `None` for a promoted (sibling-less) node.
    pub siblings: Vec<Option<(Digest, bool)>>,
}

impl MerkleProof {
    /// Serialized size in bytes (for cost accounting).
    pub fn size_bytes(&self) -> usize {
        8 + self.siblings.len() * 33
    }
}

impl MerkleTree {
    /// Builds a tree over `leaves` (raw leaf payloads, hashed internally).
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty; an empty registry has no root.
    pub fn new<T: AsRef<[u8]>>(leaves: &[T]) -> Self {
        assert!(!leaves.is_empty(), "Merkle tree needs at least one leaf");
        let mut levels = vec![leaves
            .iter()
            .map(|l| hash_leaf(l.as_ref()))
            .collect::<Vec<_>>()];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                next.push(if pair.len() == 2 {
                    hash_node(&pair[0], &pair[1])
                } else {
                    pair[0]
                });
            }
            levels.push(next);
        }
        Self { levels }
    }

    /// The root digest.
    pub fn root(&self) -> Digest {
        self.levels.last().expect("nonempty")[0]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// Returns `true` if the tree has no leaves (never constructible).
    pub fn is_empty(&self) -> bool {
        self.levels[0].is_empty()
    }

    /// Produces an inclusion proof for leaf `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn prove(&self, index: usize) -> MerkleProof {
        assert!(index < self.len(), "leaf index {index} out of bounds");
        let mut siblings = Vec::new();
        let mut i = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sib = i ^ 1;
            siblings.push(if sib < level.len() {
                Some((level[sib], sib > i))
            } else {
                None
            });
            i /= 2;
        }
        MerkleProof { index, siblings }
    }

    /// Verifies that `leaf_data` sits at `proof.index` under `root`.
    pub fn verify(root: &Digest, leaf_data: &[u8], proof: &MerkleProof) -> bool {
        let mut acc = hash_leaf(leaf_data);
        let mut idx = proof.index;
        for entry in &proof.siblings {
            if let Some((sib, sib_is_right)) = entry {
                // The recorded side must be consistent with the index path.
                if *sib_is_right != idx.is_multiple_of(2) {
                    return false;
                }
                acc = if *sib_is_right {
                    hash_node(&acc, sib)
                } else {
                    hash_node(sib, &acc)
                };
            }
            idx /= 2;
        }
        acc == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf() {
        let t = MerkleTree::new(&leaves(1));
        let p = t.prove(0);
        assert!(p.siblings.is_empty());
        assert!(MerkleTree::verify(&t.root(), b"leaf-0", &p));
    }

    #[test]
    fn all_proofs_verify_for_various_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 33, 100] {
            let ls = leaves(n);
            let t = MerkleTree::new(&ls);
            for (i, l) in ls.iter().enumerate() {
                let p = t.prove(i);
                assert!(MerkleTree::verify(&t.root(), l, &p), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_rejected() {
        let ls = leaves(10);
        let t = MerkleTree::new(&ls);
        let p = t.prove(3);
        assert!(!MerkleTree::verify(&t.root(), b"leaf-4", &p));
        assert!(!MerkleTree::verify(&t.root(), b"evil", &p));
    }

    #[test]
    fn tampered_proof_rejected() {
        let ls = leaves(10);
        let t = MerkleTree::new(&ls);
        let mut p = t.prove(3);
        p.siblings[0].as_mut().unwrap().0[0] ^= 1;
        assert!(!MerkleTree::verify(&t.root(), b"leaf-3", &p));
    }

    #[test]
    fn proof_for_wrong_index_rejected() {
        let ls = leaves(8);
        let t = MerkleTree::new(&ls);
        let mut p = t.prove(3);
        p.index = 4; // Claim a different position with the same path.
        assert!(!MerkleTree::verify(&t.root(), b"leaf-3", &p));
    }

    #[test]
    fn roots_differ_by_content_and_order() {
        let a = MerkleTree::new(&leaves(4));
        let mut swapped = leaves(4);
        swapped.swap(0, 1);
        let b = MerkleTree::new(&swapped);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn leaf_interior_domain_separation() {
        // A 2-leaf tree's root must not equal the leaf-hash of the sibling
        // concatenation, thanks to domain-separation prefixes.
        let ls = leaves(2);
        let t = MerkleTree::new(&ls);
        let concat = [ls[0].clone(), ls[1].clone()].concat();
        assert_ne!(t.root(), hash_leaf(&concat));
    }
}
