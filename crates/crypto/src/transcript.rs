//! Fiat–Shamir transcripts.
//!
//! A transcript binds every public value of an interactive proof into the
//! challenge derivation, turning sigma protocols into non-interactive
//! proofs in the random-oracle model. Labels give domain separation both
//! between protocols and between messages within a protocol.

use crate::group::{scalar_from_hash, GroupElem, Scalar};
use crate::sha256::{Digest, Sha256};

/// A running Fiat–Shamir transcript.
///
/// Internally a chained SHA-256 state: each absorbed message rehashes the
/// previous digest with the new (length-prefixed, labeled) data, so the
/// challenge depends on the entire ordered history.
#[derive(Clone, Debug)]
pub struct Transcript {
    state: Digest,
}

impl Transcript {
    /// Starts a transcript under a protocol label.
    pub fn new(protocol: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update(b"arboretum/transcript/");
        h.update(protocol);
        Self {
            state: h.finalize(),
        }
    }

    /// Absorbs labeled bytes.
    pub fn append(&mut self, label: &[u8], data: &[u8]) {
        let mut h = Sha256::new();
        h.update(&self.state);
        h.update(&(label.len() as u64).to_be_bytes());
        h.update(label);
        h.update(&(data.len() as u64).to_be_bytes());
        h.update(data);
        self.state = h.finalize();
    }

    /// Absorbs a group element.
    pub fn append_point(&mut self, label: &[u8], p: &GroupElem) {
        self.append(label, &p.to_bytes());
    }

    /// Absorbs a u64 (counters, indices, sizes).
    pub fn append_u64(&mut self, label: &[u8], v: u64) {
        self.append(label, &v.to_be_bytes());
    }

    /// Squeezes a challenge scalar; also ratchets the state so subsequent
    /// challenges are independent.
    pub fn challenge_scalar(&mut self, label: &[u8]) -> Scalar {
        let mut h = Sha256::new();
        h.update(&self.state);
        h.update(b"challenge/");
        h.update(label);
        let d = h.finalize();
        self.state = {
            let mut r = Sha256::new();
            r.update(&d);
            r.update(b"ratchet");
            r.finalize()
        };
        scalar_from_hash(&d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_history() {
        let mut t1 = Transcript::new(b"proto");
        let mut t2 = Transcript::new(b"proto");
        t1.append(b"x", b"data");
        t2.append(b"x", b"data");
        assert_eq!(t1.challenge_scalar(b"c"), t2.challenge_scalar(b"c"));
    }

    #[test]
    fn sensitive_to_history() {
        let mut t1 = Transcript::new(b"proto");
        let mut t2 = Transcript::new(b"proto");
        t1.append(b"x", b"data");
        t2.append(b"x", b"dataX");
        assert_ne!(t1.challenge_scalar(b"c"), t2.challenge_scalar(b"c"));
    }

    #[test]
    fn sensitive_to_labels_and_protocol() {
        let mut t1 = Transcript::new(b"proto-a");
        let mut t2 = Transcript::new(b"proto-b");
        assert_ne!(t1.challenge_scalar(b"c"), t2.challenge_scalar(b"c"));

        let mut t3 = Transcript::new(b"p");
        let mut t4 = Transcript::new(b"p");
        t3.append(b"label1", b"d");
        t4.append(b"label2", b"d");
        assert_ne!(t3.challenge_scalar(b"c"), t4.challenge_scalar(b"c"));
    }

    #[test]
    fn message_boundaries_matter() {
        // ("ab", "c") must differ from ("a", "bc") thanks to length
        // prefixes.
        let mut t1 = Transcript::new(b"p");
        let mut t2 = Transcript::new(b"p");
        t1.append(b"m", b"ab");
        t1.append(b"m", b"c");
        t2.append(b"m", b"a");
        t2.append(b"m", b"bc");
        assert_ne!(t1.challenge_scalar(b"c"), t2.challenge_scalar(b"c"));
    }

    #[test]
    fn sequential_challenges_differ() {
        let mut t = Transcript::new(b"p");
        let c1 = t.challenge_scalar(b"c");
        let c2 = t.challenge_scalar(b"c");
        assert_ne!(c1, c2, "ratcheting must decorrelate challenges");
    }
}
