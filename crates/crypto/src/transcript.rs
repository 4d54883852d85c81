//! Fiat–Shamir transcripts: one streaming pass, then a sealed digest.
//!
//! A transcript binds every public value of an interactive proof into the
//! challenge derivation, turning sigma protocols into non-interactive
//! proofs in the random-oracle model. A proof here is *two-move*: the
//! prover absorbs the statement and **every** first-move message into one
//! running SHA-256 ([`Transcript`]), seals the stream once into a digest
//! `D` ([`Sealed`]), and derives each challenge as one single-block hash
//! `H(D ‖ index ‖ label)`. Every challenge therefore depends on every
//! absorbed message — the parallel composition of the underlying sigma
//! protocols under one random-oracle query per challenge — and a proof of
//! width `k` costs about `k/4` compressions to absorb plus one per
//! challenge, not several per message.
//!
//! A challenge's message `D ‖ index ‖ label` is 40 bytes plus the label,
//! so for labels of up to 15 bytes — every label the
//! proofs use — the padded message is exactly one block,
//!
//! ```text
//! D (32) ‖ index (8, big-endian) ‖ label (≤ 15) ‖ 0x80 ‖ 0… ‖ bit length (8, big-endian)
//! ```
//!
//! which [`Sealed::challenge`] writes on the stack and compresses once
//! from the IV. A longer label takes the streaming hasher; both are
//! SHA-256 of the same bytes.
//!
//! Framing keeps the byte stream injective: the protocol label and every
//! message are written as `len(label) ‖ label ‖ len(data) ‖ data` with
//! 8-byte big-endian lengths, so no two different histories absorb the
//! same bytes. Labels give domain separation between protocols, between
//! messages within a protocol, and between challenges drawn from one seal.

use crate::group::{scalar_from_hash, GroupElem, Scalar};
use crate::sha256::{sha256_padded_block, Digest, Sha256};

/// The longest challenge label whose message `D ‖ index ‖ label` still
/// pads into one SHA-256 block (`32 + 8 + 15 + 1 + 8 = 64`).
const ONE_BLOCK_LABEL: usize = 15;

/// A running Fiat–Shamir transcript: one SHA-256 stream over
/// length-prefixed, labeled frames.
pub struct Transcript {
    hasher: Sha256,
}

impl Transcript {
    /// Starts a transcript under a protocol label.
    pub fn new(protocol: &[u8]) -> Self {
        let mut t = Self {
            hasher: Sha256::new(),
        };
        t.append(b"arboretum/transcript", protocol);
        t
    }

    /// Writes a frame header: the label, and the byte length of the data
    /// that follows.
    fn frame(&mut self, label: &[u8], data_len: usize) {
        self.hasher.update(&(label.len() as u64).to_be_bytes());
        self.hasher.update(label);
        self.hasher.update(&(data_len as u64).to_be_bytes());
    }

    /// Absorbs labeled bytes.
    pub fn append(&mut self, label: &[u8], data: &[u8]) {
        self.frame(label, data.len());
        self.hasher.update(data);
    }

    /// Absorbs a u64 (counters, indices, sizes).
    pub fn append_u64(&mut self, label: &[u8], v: u64) {
        self.append(label, &v.to_be_bytes());
    }

    /// Absorbs a run of group elements as one frame: `rows` of `N`
    /// elements each (`[c]` per coordinate, `[a0, a1]` per bit proof),
    /// row by row.
    pub fn append_points<const N: usize>(
        &mut self,
        label: &[u8],
        rows: impl ExactSizeIterator<Item = [GroupElem; N]>,
    ) {
        self.frame(label, rows.len() * N * 8);
        // Eight blocks of elements at a time, so the hasher compresses
        // from this buffer instead of buffering 8 bytes per call.
        let mut buf = [0u8; 512];
        let mut len = 0;
        for p in rows.flatten() {
            buf[len..len + 8].copy_from_slice(&p.to_bytes());
            len += 8;
            if len == buf.len() {
                self.hasher.update(&buf);
                len = 0;
            }
        }
        self.hasher.update(&buf[..len]);
    }

    /// Closes the stream. Nothing can be absorbed afterwards; every
    /// challenge is derived from the returned value.
    pub fn seal(self) -> Sealed {
        Sealed(self.hasher.finalize())
    }
}

/// The digest of a finished transcript, from which challenges are drawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sealed(Digest);

impl Sealed {
    /// The challenge named `(index, label)`: `H(D ‖ index ‖ label)`. The
    /// fixed-width index comes first, so moving bytes between the index
    /// and the label cannot make two names collide. One compression for
    /// labels of up to 15 bytes (the module docs give the block).
    pub fn challenge(&self, index: u64, label: &[u8]) -> Scalar {
        if label.len() <= ONE_BLOCK_LABEL {
            let end = 40 + label.len();
            let mut block = [0u8; 64];
            block[..32].copy_from_slice(&self.0);
            block[32..40].copy_from_slice(&index.to_be_bytes());
            block[40..end].copy_from_slice(label);
            block[end] = 0x80;
            block[56..].copy_from_slice(&(8 * end as u64).to_be_bytes());
            return scalar_from_hash(&sha256_padded_block(&block));
        }
        let mut h = Sha256::new();
        h.update(&self.0);
        h.update(&index.to_be_bytes());
        h.update(label);
        scalar_from_hash(&h.finalize())
    }

    /// A sealed value that additionally depends on `data` — bytes that
    /// only exist once the challenges of `self` are known (a proof's
    /// responses), and that a later challenge must still bind.
    pub fn bind(&self, label: &[u8], data: &[u8]) -> Sealed {
        let mut h = Sha256::new();
        h.update(&self.0);
        h.update(&(label.len() as u64).to_be_bytes());
        h.update(label);
        h.update(data);
        Sealed(h.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn challenge(t: Transcript) -> Scalar {
        t.seal().challenge(0, b"c")
    }

    fn points(n: u64) -> Vec<[GroupElem; 1]> {
        (1..=n)
            .map(|i| [GroupElem::mul_base(Scalar::new(i))])
            .collect()
    }

    #[test]
    fn a_challenge_is_the_streamed_hash_at_every_label_length() {
        // Label lengths straddle the one-block limit (15) and the point
        // where `finalize` itself needs a second block (23/24).
        let sealed = Transcript::new(b"p").seal();
        let label = b"abcdefghijklmnopqrstuvwx";
        for len in 0..=label.len() {
            for index in [0, 1, 1 << 32, u64::MAX] {
                let mut h = Sha256::new();
                h.update(&sealed.0);
                h.update(&index.to_be_bytes());
                h.update(&label[..len]);
                assert_eq!(
                    sealed.challenge(index, &label[..len]),
                    scalar_from_hash(&h.finalize()),
                    "label of {len} bytes, index {index}"
                );
            }
        }
    }

    #[test]
    fn a_run_of_points_is_absorbed_as_one_update_per_element() {
        // The frames written out by hand on a bare hasher, one `update`
        // per element, for runs around the buffer's 64 elements.
        fn frame_header(h: &mut Sha256, label: &[u8], data_len: usize) {
            h.update(&(label.len() as u64).to_be_bytes());
            h.update(label);
            h.update(&(data_len as u64).to_be_bytes());
        }
        fn check<const N: usize>(rows: usize) {
            let run: Vec<[GroupElem; N]> = (0..rows as u64)
                .map(|i| {
                    core::array::from_fn(|j| {
                        GroupElem::mul_base(Scalar::new(N as u64 * i + j as u64 + 1))
                    })
                })
                .collect();
            let mut t = Transcript::new(b"p");
            t.append_points(b"run", run.iter().copied());
            let mut h = Sha256::new();
            frame_header(&mut h, b"arboretum/transcript", 1);
            h.update(b"p");
            frame_header(&mut h, b"run", rows * N * 8);
            for p in run.iter().flatten() {
                h.update(&p.to_bytes());
            }
            assert_eq!(t.seal().0, h.finalize(), "{rows} rows of {N}");
        }
        for rows in [0, 1, 7, 8, 9, 63, 64, 65, 200] {
            check::<1>(rows);
            check::<2>(rows);
        }
    }

    #[test]
    fn deterministic_for_same_history() {
        let mut t1 = Transcript::new(b"proto");
        let mut t2 = Transcript::new(b"proto");
        t1.append(b"x", b"data");
        t2.append(b"x", b"data");
        t1.append_points(b"run", points(3).into_iter());
        t2.append_points(b"run", points(3).into_iter());
        let (s1, s2) = (t1.seal(), t2.seal());
        assert_eq!(s1, s2);
        for i in 0..4 {
            assert_eq!(s1.challenge(i, b"c"), s2.challenge(i, b"c"));
        }
        assert_eq!(s1.bind(b"r", b"z"), s2.bind(b"r", b"z"));
    }

    #[test]
    fn sensitive_to_history() {
        let mut t1 = Transcript::new(b"proto");
        let mut t2 = Transcript::new(b"proto");
        t1.append(b"x", b"data");
        t2.append(b"x", b"dataX");
        assert_ne!(challenge(t1), challenge(t2));
    }

    #[test]
    fn sensitive_to_labels_and_protocol() {
        let t1 = Transcript::new(b"proto-a");
        let t2 = Transcript::new(b"proto-b");
        assert_ne!(challenge(t1), challenge(t2));

        let mut t3 = Transcript::new(b"p");
        let mut t4 = Transcript::new(b"p");
        t3.append(b"label1", b"d");
        t4.append(b"label2", b"d");
        assert_ne!(challenge(t3), challenge(t4));
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
        assert_ne!(challenge(t1), challenge(t2));
    }

    #[test]
    fn protocol_label_is_length_prefixed() {
        // One running hash, so the protocol label needs its own length
        // prefix: protocol "ab" + label "c" is not protocol "a" + label
        // "bc".
        let mut t1 = Transcript::new(b"ab");
        let mut t2 = Transcript::new(b"a");
        t1.append(b"c", b"d");
        t2.append(b"bc", b"d");
        assert_ne!(challenge(t1), challenge(t2));
    }

    #[test]
    fn a_run_of_points_is_one_length_prefixed_frame() {
        // n points and then a frame labeled L, against n + 1 points: the
        // run's byte length is written before the run.
        let ps = points(4);
        let mut t1 = Transcript::new(b"p");
        let mut t2 = Transcript::new(b"p");
        t1.append_points(b"run", ps[..3].iter().copied());
        t1.append_points(b"L", ps[3..].iter().copied());
        t2.append_points(b"run", ps.iter().copied());
        let whole = challenge(t2);
        assert_ne!(challenge(t1), whole);
        // Rows are framing for the caller, not for the stream: two rows
        // of two are the same run as four rows of one.
        let mut t3 = Transcript::new(b"p");
        t3.append_points(
            b"run",
            [[ps[0][0], ps[1][0]], [ps[2][0], ps[3][0]]].into_iter(),
        );
        assert_eq!(challenge(t3), whole);
        // A run is its elements in order.
        let mut t4 = Transcript::new(b"p");
        t4.append_points(b"run", ps.iter().rev().copied());
        assert_ne!(challenge(t4), whole);
    }

    #[test]
    fn sequential_challenges_differ() {
        // Challenges drawn from one seal are told apart by index and by
        // label.
        let sealed = Transcript::new(b"p").seal();
        let c: Vec<Scalar> = (0..8).map(|i| sealed.challenge(i, b"c")).collect();
        for i in 0..c.len() {
            for j in 0..i {
                assert_ne!(c[i], c[j], "indices {j} and {i}");
            }
        }
        assert_ne!(sealed.challenge(0, b"c"), sealed.challenge(0, b"d"));
    }

    #[test]
    fn challenge_names_cannot_trade_bytes_between_index_and_label() {
        // The index is eight bytes, always, and precedes the label: a
        // label that starts with the bytes of another index, or an index
        // whose low byte is a label's first byte, names a different
        // challenge.
        let sealed = Transcript::new(b"p").seal();
        assert_ne!(sealed.challenge(0x62, b"c"), sealed.challenge(0, b"bc"));
        assert_ne!(
            sealed.challenge(0, b"\x00\x00\x00\x00\x00\x00\x00\x01c"),
            sealed.challenge(1, b"c")
        );
        assert_ne!(sealed.challenge(0, b""), sealed.challenge(0, b"\x00"));
    }

    #[test]
    fn bound_responses_change_every_later_challenge() {
        let sealed = Transcript::new(b"p").seal();
        let rho = |data: &[u8]| sealed.bind(b"fold/responses", data).challenge(0, b"rho");
        assert_eq!(rho(b"responses"), rho(b"responses"));
        assert_ne!(rho(b"responses"), rho(b"responsez"));
        // Binding is not a no-op, and the bind label is framed.
        assert_ne!(rho(b""), sealed.challenge(0, b"rho"));
        assert_ne!(sealed.bind(b"ab", b"c"), sealed.bind(b"a", b"bc"));
    }
}
