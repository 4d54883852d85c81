//! Merkle hash trees with inclusion proofs.
//!
//! Used in three places in Arboretum: the registry of participant devices
//! (§5.1), the aggregator's step-audit tree that participants spot-check
//! (§5.3), and the query-authorization certificate contents (§5.2).
//!
//! Leaves and interior nodes are domain-separated (prefix bytes `0x00` /
//! `0x01`) to prevent second-preimage splicing attacks.
//!
//! A proof comes in two forms with one verifier: an owned
//! [`MerkleProof`], what a device receives over the wire, and a
//! [`MerklePath`] borrowed from the tree that made it, which reads the
//! same siblings in place so a simulated audit answers a challenge
//! without allocating.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

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
    pub fn new<T: AsRef<[u8]>>(leaves: impl IntoIterator<Item = T>) -> Self {
        let mut level: Vec<Digest> = leaves.into_iter().map(|l| hash_leaf(l.as_ref())).collect();
        assert!(!level.is_empty(), "Merkle tree needs at least one leaf");
        let mut levels = Vec::new();
        while level.len() > 1 {
            let next = level
                .chunks(2)
                .map(|pair| match pair {
                    [l, r] => hash_node(l, r),
                    _ => pair[0],
                })
                .collect();
            levels.push(std::mem::replace(&mut level, next));
        }
        levels.push(level);
        Self { levels }
    }

    /// The root [`new`](Self::new) would give over `leaves`, without the
    /// tree: the leaf hashes are folded in place, level by level, in one
    /// `Vec<Digest>`, so the only allocation is one digest a leaf.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty; an empty registry has no root.
    pub fn root_of<T: AsRef<[u8]>>(leaves: impl IntoIterator<Item = T>) -> Digest {
        let mut level: Vec<Digest> = leaves.into_iter().map(|l| hash_leaf(l.as_ref())).collect();
        assert!(!level.is_empty(), "Merkle tree needs at least one leaf");
        let mut len = level.len();
        while len > 1 {
            // Node `i` of the next level is read from `2i` and `2i + 1`,
            // never left of `i`, so writing it in place overwrites only
            // nodes already read. An odd last node is promoted as is.
            for i in 0..len / 2 {
                level[i] = hash_node(&level[2 * i], &level[2 * i + 1]);
            }
            if !len.is_multiple_of(2) {
                level[len / 2] = level[len - 1];
            }
            len = len.div_ceil(2);
        }
        level[0]
    }

    /// The root digest.
    // `new` refuses an empty leaf list, so the top level holds the root.
    #[allow(clippy::expect_used)]
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
        self.path(index).to_proof()
    }

    /// Borrows the inclusion proof for leaf `index`: the siblings
    /// [`prove`](Self::prove) would copy out, read from the tree.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn path(&self, index: usize) -> MerklePath<'_> {
        assert!(index < self.len(), "leaf index {index} out of bounds");
        MerklePath { tree: self, index }
    }

    /// Verifies that `leaf_data` sits at `proof.index` under `root`.
    pub fn verify(root: &Digest, leaf_data: &[u8], proof: &MerkleProof) -> bool {
        let siblings = proof
            .siblings
            .iter()
            .map(|e| e.as_ref().map(|(d, r)| (d, *r)));
        verify_siblings(root, leaf_data, proof.index, siblings)
    }
}

/// The one verifier: folds `leaf_data` up through `siblings` (leaf to
/// root, `None` for a promoted node) from position `index` and compares
/// the result with `root`.
fn verify_siblings<'a>(
    root: &Digest,
    leaf_data: &[u8],
    index: usize,
    siblings: impl Iterator<Item = Option<(&'a Digest, bool)>>,
) -> bool {
    let mut acc = hash_leaf(leaf_data);
    let mut idx = index;
    for entry in siblings {
        if let Some((sib, sib_is_right)) = entry {
            // The recorded side must be consistent with the index path.
            if sib_is_right != idx.is_multiple_of(2) {
                return false;
            }
            acc = if sib_is_right {
                hash_node(&acc, sib)
            } else {
                hash_node(sib, &acc)
            };
        }
        idx /= 2;
    }
    acc == *root
}

/// An inclusion proof borrowed from its tree: the same index and
/// siblings as the [`MerkleProof`] [`MerkleTree::prove`] returns, read
/// in place, so making one costs nothing.
///
/// Two paths are equal when their proofs are: the same index and the
/// same siblings, whichever trees they borrow.
#[derive(Clone, Copy, Debug)]
pub struct MerklePath<'a> {
    tree: &'a MerkleTree,
    index: usize,
}

impl<'a> MerklePath<'a> {
    /// Per level, leaf to root: sibling digest and whether it sits on the
    /// right, or `None` for a promoted (sibling-less) node.
    fn siblings(&self) -> impl Iterator<Item = Option<(&'a Digest, bool)>> {
        let levels = &self.tree.levels[..self.tree.levels.len() - 1];
        levels.iter().scan(self.index, |i, level| {
            let sib = *i ^ 1;
            let entry = level.get(sib).map(|d| (d, sib > *i));
            *i /= 2;
            Some(entry)
        })
    }

    /// The owned proof, as sent to a device.
    pub fn to_proof(&self) -> MerkleProof {
        MerkleProof {
            index: self.index,
            siblings: self.siblings().map(|e| e.map(|(d, r)| (*d, r))).collect(),
        }
    }

    /// Verifies that `leaf_data` sits at this path's index under `root`:
    /// [`MerkleTree::verify`] of [`to_proof`](Self::to_proof), without
    /// the copy.
    pub fn verify(&self, root: &Digest, leaf_data: &[u8]) -> bool {
        verify_siblings(root, leaf_data, self.index, self.siblings())
    }
}

impl PartialEq for MerklePath<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
            && (std::ptr::eq(self.tree, other.tree) || self.siblings().eq(other.siblings()))
    }
}

impl Eq for MerklePath<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf() {
        let t = MerkleTree::new(leaves(1));
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
    fn paths_are_the_proofs_read_in_place() {
        for n in [1usize, 2, 3, 5, 8, 9, 33] {
            let ls = leaves(n);
            let t = MerkleTree::new(&ls);
            let copy = MerkleTree::new(&ls);
            for (i, l) in ls.iter().enumerate() {
                let path = t.path(i);
                let proof = t.prove(i);
                assert_eq!(path.to_proof(), proof, "n={n} i={i}");
                for data in [l.as_slice(), b"evil"] {
                    assert_eq!(
                        path.verify(&t.root(), data),
                        MerkleTree::verify(&t.root(), data, &proof)
                    );
                }
                // Equal by content, whichever tree is borrowed.
                assert_eq!(path, copy.path(i));
            }
        }
        // A path differs from another leaf's, and from the same leaf's in
        // a tree with a different sibling.
        let t = MerkleTree::new(leaves(4));
        assert_ne!(t.path(0), t.path(1));
        let mut other = leaves(4);
        other[1] = b"changed".to_vec();
        assert_ne!(t.path(0), MerkleTree::new(&other).path(0));
    }

    #[test]
    fn root_in_place_is_the_tree_root() {
        // 1..=70 crosses every odd-node promotion pattern up to 7 levels.
        for n in 1..=70 {
            let ls = leaves(n);
            assert_eq!(
                MerkleTree::root_of(&ls),
                MerkleTree::new(&ls).root(),
                "n={n}"
            );
        }
    }

    #[test]
    fn roots_differ_by_content_and_order() {
        let a = MerkleTree::new(leaves(4));
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
