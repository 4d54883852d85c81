//! SHA-256, implemented from the FIPS 180-4 specification.
//!
//! Arboretum uses SHA-256 for Merkle trees, Fiat–Shamir transcripts, HMAC,
//! and sortition hashing. Implemented in-workspace because the sanctioned
//! dependency set contains no hash crate.
//!
//! Hashing sits on the per-ticket critical path of million-device
//! sortition (≈5–8 compressions per ticket), so the compression function
//! dispatches at runtime to the x86 SHA new-instructions extension when
//! the CPU has it ([`ni`]), falling back to the portable scalar schedule
//! otherwise. Both produce bitwise-identical digests — the hardware path
//! evaluates the same FIPS 180-4 round function — and the dispatch is
//! pinned by known-answer and cross-path equality tests.

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; DIGEST_LEN];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while let Some((block, rest)) = data.split_first_chunk::<64>() {
            self.compress(block);
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
        self
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80 then zeros then the 8-byte big-endian bit length,
        // assembled in whole blocks (one, or two when fewer than 9 bytes
        // of the current block remain).
        let mut block = [0u8; 64];
        let n = self.buf_len;
        block[..n].copy_from_slice(&self.buf[..n]);
        block[n] = 0x80;
        if n + 9 > 64 {
            self.compress(&block);
            block = [0u8; 64];
        }
        block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);
        self.digest()
    }

    /// The state words as digest bytes.
    fn digest(&self) -> Digest {
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Resumes hashing from a compressed block-boundary state
    /// (`bytes_absorbed` must be a multiple of the 64-byte block). Used
    /// by HMAC key midstates and transcript-prefix reuse.
    pub(crate) fn from_midstate(state: [u32; 8], bytes_absorbed: u64) -> Self {
        debug_assert_eq!(bytes_absorbed % 64, 0, "midstates live on block boundaries");
        Self {
            state,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: bytes_absorbed,
        }
    }

    /// The block-boundary state (caller must have absorbed a multiple of
    /// 64 bytes).
    pub(crate) fn midstate(&self) -> [u32; 8] {
        debug_assert_eq!(self.buf_len, 0, "midstates live on block boundaries");
        self.state
    }

    /// One compression, dispatched to the hardware path when available.
    #[allow(unsafe_code)]
    fn compress(&mut self, block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if ni::available() {
            // SAFETY: `ni::available` confirmed the sha/ssse3/sse4.1 CPU
            // features this function is compiled for.
            unsafe { ni::compress(&mut self.state, block) };
            return;
        }
        self.compress_scalar(block);
    }

    fn compress_scalar(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// The x86 SHA new-instructions compression path.
///
/// `SHA256RNDS2` evaluates two FIPS 180-4 rounds per issue and
/// `SHA256MSG1`/`SHA256MSG2` run the message schedule, so one block costs
/// 32 round issues instead of 64 scalar round bodies — roughly an order
/// of magnitude on this workload. The word layout follows the canonical
/// Intel sequence: the state is carried as the two lane-packed registers
/// `ABEF` and `CDGH`.
///
/// This module is the crate's only brush with `unsafe`: the intrinsics
/// themselves are safe inside `#[target_feature]` functions, and the one
/// `unsafe` block (in [`Sha256::compress`]) marks the runtime-detected
/// call into them.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::K;
    use core::arch::x86_64::*;

    /// Whether the CPU has the required extensions (cached after the
    /// first query).
    pub fn available() -> bool {
        use std::sync::atomic::{AtomicU8, Ordering};
        static CACHE: AtomicU8 = AtomicU8::new(0);
        match CACHE.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => {
                let ok = std::arch::is_x86_feature_detected!("sha")
                    && std::arch::is_x86_feature_detected!("ssse3")
                    && std::arch::is_x86_feature_detected!("sse4.1");
                CACHE.store(if ok { 1 } else { 2 }, Ordering::Relaxed);
                ok
            }
        }
    }

    /// Schedule words `w[4i..4i+4]` from the previous four word quads.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(v0: __m128i, v1: __m128i, v2: __m128i, v3: __m128i) -> __m128i {
        let t1 = _mm_sha256msg1_epu32(v0, v1);
        let t2 = _mm_alignr_epi8(v3, v2, 4);
        _mm_sha256msg2_epu32(_mm_add_epi32(t1, t2), v3)
    }

    /// Rounds `4r..4r+4`: two `SHA256RNDS2` issues over `msg + K[4r..]`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, msg: __m128i, r: usize) {
        let k = _mm_set_epi32(
            K[4 * r + 3] as i32,
            K[4 * r + 2] as i32,
            K[4 * r + 1] as i32,
            K[4 * r] as i32,
        );
        let wk = _mm_add_epi32(msg, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// Big-endian message words `w[4i..4i+4]` as one lane-packed register.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn load_words(block: &[u8; 64], i: usize) -> __m128i {
        let w = |j: usize| {
            u32::from_be_bytes([
                block[4 * j],
                block[4 * j + 1],
                block[4 * j + 2],
                block[4 * j + 3],
            ]) as i32
        };
        _mm_set_epi32(w(4 * i + 3), w(4 * i + 2), w(4 * i + 1), w(4 * i))
    }

    /// One SHA-256 compression — bitwise identical to
    /// [`Sha256::compress_scalar`](super::Sha256); both evaluate the
    /// FIPS 180-4 round function exactly.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut abef = _mm_set_epi32(
            state[0] as i32,
            state[1] as i32,
            state[4] as i32,
            state[5] as i32,
        );
        let mut cdgh = _mm_set_epi32(
            state[2] as i32,
            state[3] as i32,
            state[6] as i32,
            state[7] as i32,
        );
        let (abef0, cdgh0) = (abef, cdgh);
        let mut m0 = load_words(block, 0);
        let mut m1 = load_words(block, 1);
        let mut m2 = load_words(block, 2);
        let mut m3 = load_words(block, 3);
        rounds4(&mut abef, &mut cdgh, m0, 0);
        rounds4(&mut abef, &mut cdgh, m1, 1);
        rounds4(&mut abef, &mut cdgh, m2, 2);
        rounds4(&mut abef, &mut cdgh, m3, 3);
        for blk in 1..4 {
            m0 = schedule(m0, m1, m2, m3);
            rounds4(&mut abef, &mut cdgh, m0, 4 * blk);
            m1 = schedule(m1, m2, m3, m0);
            rounds4(&mut abef, &mut cdgh, m1, 4 * blk + 1);
            m2 = schedule(m2, m3, m0, m1);
            rounds4(&mut abef, &mut cdgh, m2, 4 * blk + 2);
            m3 = schedule(m3, m0, m1, m2);
            rounds4(&mut abef, &mut cdgh, m3, 4 * blk + 3);
        }
        abef = _mm_add_epi32(abef, abef0);
        cdgh = _mm_add_epi32(cdgh, cdgh0);
        state[0] = _mm_extract_epi32::<3>(abef) as u32;
        state[1] = _mm_extract_epi32::<2>(abef) as u32;
        state[2] = _mm_extract_epi32::<3>(cdgh) as u32;
        state[3] = _mm_extract_epi32::<2>(cdgh) as u32;
        state[4] = _mm_extract_epi32::<1>(abef) as u32;
        state[5] = _mm_extract_epi32::<0>(abef) as u32;
        state[6] = _mm_extract_epi32::<1>(cdgh) as u32;
        state[7] = _mm_extract_epi32::<0>(cdgh) as u32;
    }
}

/// SHA-256 of a message of at most 55 bytes handed over already padded:
/// `block` is the message, `0x80`, zeros, and the message's bit length in
/// the last 8 bytes (big-endian) — what [`Sha256::finalize`] would
/// assemble. One compression from the IV, no buffering.
pub(crate) fn sha256_padded_block(block: &[u8; 64]) -> Digest {
    let mut h = Sha256::new();
    h.compress(block);
    h.digest()
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

fn digest_prefix(parts: &[&[u8]]) -> u64 {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    let d = h.finalize();
    u64::from_be_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]])
}

/// A seed-derived 64-bit draw: the first eight big-endian bytes of
/// `SHA-256(seed ‖ domain ‖ index)` (integers big-endian). Every
/// schedule, churn and per-device decision in the runtime and the
/// adversary harness flows through this one derivation, so a run
/// replays bitwise from its seed.
pub fn seed_draw(seed: u64, domain: &[u8], index: u64) -> u64 {
    digest_prefix(&[&seed.to_be_bytes(), domain, &index.to_be_bytes()])
}

/// A constant RNG-stream tag: the first eight big-endian bytes of
/// `SHA-256(domain)`, XORed into a seed to split off an independent
/// stream without magic numbers at the call site.
pub fn domain_tag(domain: &[u8]) -> u64 {
    digest_prefix(&[domain])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_vectors() {
        // FIPS 180-4 / NIST CAVS known-answer tests.
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[allow(unsafe_code)]
    fn hardware_compression_matches_scalar() {
        if !ni::available() {
            return;
        }
        // Chain 200 pseudo-random blocks through both compression paths
        // from the standard IV; states must stay bitwise equal throughout.
        let mut scalar = Sha256::new();
        let mut hw = [0u32; 8];
        hw.copy_from_slice(&scalar.state);
        for trial in 0u32..200 {
            let mut block = [0u8; 64];
            for (i, b) in block.iter_mut().enumerate() {
                *b = (trial.wrapping_mul(97) as usize + i * 13) as u8;
            }
            scalar.compress_scalar(&block);
            // SAFETY: `ni::available` confirmed the CPU features above.
            unsafe { ni::compress(&mut hw, &block) };
            assert_eq!(scalar.state, hw, "paths diverged at block {trial}");
        }
    }

    #[test]
    fn midstate_roundtrip_matches_streaming() {
        let data: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        let mut h = Sha256::new();
        h.update(&data[..128]);
        let mut resumed = Sha256::from_midstate(h.midstate(), 128);
        resumed.update(&data[128..]);
        assert_eq!(resumed.finalize(), sha256(&data));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn seed_draws_match_the_derivations_they_replaced() {
        // One vector per former call shape, computed independently
        // (hashlib) from the byte layout each replaced helper hashed.
        // `runtime::stream::draw` and `testkit::schedule::draw`:
        assert_eq!(seed_draw(9, b"arrival", 3), 0x5f5d_f663_1094_26b2);
        assert_eq!(seed_draw(42, b"device", 7), 0x5afc_5350_9685_8939);
        // `runtime::executor::_tag`:
        assert_eq!(domain_tag(b"mechanism-mpc"), 0xa1e6_181e_781f_6dff);
        assert_eq!(domain_tag(b"phase-a-uploads"), 0x7f9b_eb29_87f9_1ef4);
    }
}
