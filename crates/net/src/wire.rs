//! Wire serialization for committee messages.
//!
//! Every message that crosses a committee link is framed as
//!
//! ```text
//! +--------+--------+------+----------------+-- ~ --+
//! | magic  | version| kind | payload length | bytes |
//! | u16 LE |   u8   |  u8  |     u32 LE     |       |
//! +--------+--------+------+----------------+-- ~ --+
//! ```
//!
//! an 8-byte header followed by the payload. Payloads carry no redundant
//! length prefixes for their outermost list — the element count is derived
//! from the header's payload length — so a batch of `k` field elements
//! costs exactly `k · FIELD_BYTES` payload bytes. That identity is what
//! lets a fabric's measured payload bytes be compared
//! *exactly* against the analytic cost model in `arboretum-mpc`'s
//! `NetMeter` (framing overhead is metered separately).
//!
//! Decoding is strict: unknown kinds, short buffers, trailing payload
//! bytes, non-canonical field representatives, and off-subgroup group
//! elements are all errors, never silent truncation.

use arboretum_crypto::group::{GroupElem, Scalar};
use arboretum_field::FGold;
use arboretum_vsr::{FeldmanSharing, SubshareBatch, VShare};

/// Frame magic (little-endian on the wire).
pub const MAGIC: u16 = 0xA7B0;

/// Wire-format version carried in every frame header.
pub const VERSION: u8 = 1;

/// Size of the frame header in bytes.
pub const HEADER_BYTES: usize = 8;

/// Size of one encoded field element or scalar.
pub const ELEM_BYTES: usize = 8;

/// Errors from decoding a frame or payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame did not start with [`MAGIC`].
    BadMagic(u16),
    /// The frame declared an unsupported version.
    BadVersion(u8),
    /// The kind byte does not name a message variant.
    UnknownKind(u8),
    /// The buffer ended before the declared length.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// The payload length is impossible for the message kind.
    BadLength(usize),
    /// A decoded value is not a canonical element of its domain
    /// (field representative ≥ modulus, group element off the subgroup).
    InvalidValue,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            Self::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            Self::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            Self::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            Self::BadLength(n) => write!(f, "impossible payload length {n}"),
            Self::InvalidValue => write!(f, "non-canonical value on the wire"),
        }
    }
}

impl std::error::Error for WireError {}

/// A Shamir share as transmitted between parties: evaluation point and
/// Goldilocks value (`arboretum-mpc`'s share type, mirrored here so the
/// wire layer sits below the MPC engine in the crate graph).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireShare {
    /// Evaluation point (1-based party index).
    pub x: u64,
    /// Share value.
    pub y: FGold,
}

/// One message between committee members.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// A batch of bare field elements (opened values, masked values,
    /// share values whose evaluation point is implied by the sender).
    FieldElems(Vec<FGold>),
    /// A batch of Shamir shares with explicit evaluation points.
    Shares(Vec<WireShare>),
    /// A chunk of a BGV ciphertext: one residue limb's coefficient run.
    CtChunk {
        /// Which ciphertext polynomial (0 = c0, 1 = c1, ...).
        poly: u8,
        /// Which RNS limb of that polynomial.
        limb: u8,
        /// Starting coefficient index of this chunk.
        offset: u32,
        /// The coefficient values.
        coeffs: Vec<u64>,
    },
    /// Feldman/Pedersen commitments (VSR, proof material).
    Commitments(Vec<GroupElem>),
    /// One VSR redistribution batch: an old member's Feldman sharing of
    /// its share for the new committee.
    VsrSubshares {
        /// The old member's evaluation point.
        from: u64,
        /// Subshares for the new committee (scalar-field Shamir shares).
        shares: Vec<(u64, Scalar)>,
        /// Commitments to the re-sharing polynomial's coefficients.
        commitments: Vec<GroupElem>,
    },
    /// A round barrier / keep-alive carrying the sender's round counter.
    Sync {
        /// The sender's communication-round counter.
        round: u32,
    },
}

/// Types that can serialize themselves onto a byte stream and decode
/// back, without external framing.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `buf`, advancing it.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncated or non-canonical input.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if buf.len() < n {
        return Err(WireError::Truncated {
            need: n,
            have: buf.len(),
        });
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    Ok(u32::from_le_bytes(take(buf, 4)?.try_into().unwrap()))
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    Ok(u64::from_le_bytes(take(buf, 8)?.try_into().unwrap()))
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        get_u64(buf)
    }
}

impl Wire for FGold {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.value());
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let v = get_u64(buf)?;
        if v >= FGold::MODULUS {
            return Err(WireError::InvalidValue);
        }
        Ok(FGold::new(v))
    }
}

impl Wire for Scalar {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.value());
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let v = get_u64(buf)?;
        if v >= Scalar::MODULUS {
            return Err(WireError::InvalidValue);
        }
        Ok(Scalar::new(v))
    }
}

impl Wire for GroupElem {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let b: [u8; 8] = take(buf, 8)?.try_into().unwrap();
        GroupElem::from_bytes(b).ok_or(WireError::InvalidValue)
    }
}

impl Wire for WireShare {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.x);
        self.y.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Self {
            x: get_u64(buf)?,
            y: FGold::decode(buf)?,
        })
    }
}

impl Wire for VShare {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.x);
        self.y.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Self {
            x: get_u64(buf)?,
            y: Scalar::decode(buf)?,
        })
    }
}

impl Message {
    /// The kind byte written into the frame header.
    pub fn kind(&self) -> u8 {
        match self {
            Self::FieldElems(_) => 0,
            Self::Shares(_) => 1,
            Self::CtChunk { .. } => 2,
            Self::Commitments(_) => 3,
            Self::VsrSubshares { .. } => 4,
            Self::Sync { .. } => 5,
        }
    }

    /// Encodes the payload (no header) into `out`.
    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Self::FieldElems(vs) => {
                for v in vs {
                    v.encode(out);
                }
            }
            Self::Shares(ss) => {
                for s in ss {
                    s.encode(out);
                }
            }
            Self::CtChunk {
                poly,
                limb,
                offset,
                coeffs,
            } => {
                out.push(*poly);
                out.push(*limb);
                put_u32(out, *offset);
                for &c in coeffs {
                    put_u64(out, c);
                }
            }
            Self::Commitments(cs) => {
                for c in cs {
                    c.encode(out);
                }
            }
            Self::VsrSubshares {
                from,
                shares,
                commitments,
            } => {
                put_u64(out, *from);
                put_u32(out, shares.len() as u32);
                for (x, y) in shares {
                    put_u64(out, *x);
                    y.encode(out);
                }
                for c in commitments {
                    c.encode(out);
                }
            }
            Self::Sync { round } => put_u32(out, *round),
        }
    }

    /// Decodes a payload of the given `kind`, consuming exactly `buf`.
    fn decode_payload(kind: u8, mut buf: &[u8]) -> Result<Self, WireError> {
        let n = buf.len();
        let buf = &mut buf;
        let msg = match kind {
            0 => {
                if !n.is_multiple_of(ELEM_BYTES) {
                    return Err(WireError::BadLength(n));
                }
                let mut vs = Vec::with_capacity(n / ELEM_BYTES);
                for _ in 0..n / ELEM_BYTES {
                    vs.push(FGold::decode(buf)?);
                }
                Self::FieldElems(vs)
            }
            1 => {
                if !n.is_multiple_of(2 * ELEM_BYTES) {
                    return Err(WireError::BadLength(n));
                }
                let mut ss = Vec::with_capacity(n / (2 * ELEM_BYTES));
                for _ in 0..n / (2 * ELEM_BYTES) {
                    ss.push(WireShare::decode(buf)?);
                }
                Self::Shares(ss)
            }
            2 => {
                if n < 6 || !(n - 6).is_multiple_of(ELEM_BYTES) {
                    return Err(WireError::BadLength(n));
                }
                let head = take(buf, 2)?;
                let (poly, limb) = (head[0], head[1]);
                let offset = get_u32(buf)?;
                let k = (n - 6) / ELEM_BYTES;
                let mut coeffs = Vec::with_capacity(k);
                for _ in 0..k {
                    coeffs.push(get_u64(buf)?);
                }
                Self::CtChunk {
                    poly,
                    limb,
                    offset,
                    coeffs,
                }
            }
            3 => {
                if !n.is_multiple_of(ELEM_BYTES) {
                    return Err(WireError::BadLength(n));
                }
                let mut cs = Vec::with_capacity(n / ELEM_BYTES);
                for _ in 0..n / ELEM_BYTES {
                    cs.push(GroupElem::decode(buf)?);
                }
                Self::Commitments(cs)
            }
            4 => {
                let from = get_u64(buf)?;
                let k = get_u32(buf)? as usize;
                // `k` is the sender's claim: bound it by the bytes that
                // are actually left before allocating for it.
                if k > buf.len() / (2 * ELEM_BYTES) {
                    return Err(WireError::BadLength(n));
                }
                let mut shares = Vec::with_capacity(k);
                for _ in 0..k {
                    let x = get_u64(buf)?;
                    let y = Scalar::decode(buf)?;
                    shares.push((x, y));
                }
                if !buf.len().is_multiple_of(ELEM_BYTES) {
                    return Err(WireError::BadLength(n));
                }
                let c = buf.len() / ELEM_BYTES;
                let mut commitments = Vec::with_capacity(c);
                for _ in 0..c {
                    commitments.push(GroupElem::decode(buf)?);
                }
                Self::VsrSubshares {
                    from,
                    shares,
                    commitments,
                }
            }
            5 => {
                if n != 4 {
                    return Err(WireError::BadLength(n));
                }
                Self::Sync {
                    round: get_u32(buf)?,
                }
            }
            k => return Err(WireError::UnknownKind(k)),
        };
        if !buf.is_empty() {
            return Err(WireError::BadLength(n));
        }
        Ok(msg)
    }

    /// Size in bytes of the payload this message encodes to, without
    /// encoding it (used by metering fast paths).
    pub fn payload_len(&self) -> usize {
        match self {
            Self::FieldElems(vs) => vs.len() * ELEM_BYTES,
            Self::Shares(ss) => ss.len() * 2 * ELEM_BYTES,
            Self::CtChunk { coeffs, .. } => 6 + coeffs.len() * ELEM_BYTES,
            Self::Commitments(cs) => cs.len() * ELEM_BYTES,
            Self::VsrSubshares {
                shares,
                commitments,
                ..
            } => 12 + shares.len() * 2 * ELEM_BYTES + commitments.len() * ELEM_BYTES,
            Self::Sync { .. } => 4,
        }
    }

    /// Encodes this message as one complete frame (header + payload).
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + self.payload_len());
        self.encode_frame_into(&mut out);
        out
    }

    /// Encodes this message as one complete frame into `out`, reusing
    /// whatever capacity `out` already holds (the evented fabric's
    /// buffer arena feeds recycled buffers through here so steady-state
    /// traffic allocates nothing per frame). `out` is cleared first; on
    /// return it contains exactly the frame bytes.
    pub fn encode_frame_into(&self, out: &mut Vec<u8>) {
        let payload_len = self.payload_len();
        out.clear();
        out.reserve(HEADER_BYTES + payload_len);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.push(VERSION);
        out.push(self.kind());
        put_u32(out, payload_len as u32);
        self.encode_payload(out);
        debug_assert_eq!(out.len(), HEADER_BYTES + payload_len);
    }

    /// Decodes one frame from the front of `buf`, returning the message
    /// and the total number of frame bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on bad magic/version/kind, truncation, or
    /// non-canonical payload values.
    pub fn decode_frame(buf: &[u8]) -> Result<(Self, usize), WireError> {
        if buf.len() < HEADER_BYTES {
            return Err(WireError::Truncated {
                need: HEADER_BYTES,
                have: buf.len(),
            });
        }
        let magic = u16::from_le_bytes([buf[0], buf[1]]);
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        if buf[2] != VERSION {
            return Err(WireError::BadVersion(buf[2]));
        }
        let kind = buf[3];
        let payload_len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
        let total = HEADER_BYTES
            .checked_add(payload_len)
            .ok_or(WireError::BadLength(payload_len))?;
        if buf.len() < total {
            return Err(WireError::Truncated {
                need: total,
                have: buf.len(),
            });
        }
        let msg = Self::decode_payload(kind, &buf[HEADER_BYTES..total])?;
        Ok((msg, total))
    }
}

/// Encodes a VSR [`SubshareBatch`] as a [`Message::VsrSubshares`].
pub fn vsr_batch_to_message(batch: &SubshareBatch) -> Message {
    Message::VsrSubshares {
        from: batch.from,
        shares: batch.sharing.shares.iter().map(|s| (s.x, s.y)).collect(),
        commitments: batch.sharing.commitments.clone(),
    }
}

/// Rebuilds a VSR [`SubshareBatch`] from a decoded [`Message::VsrSubshares`].
///
/// Returns `None` for any other message kind.
pub fn message_to_vsr_batch(msg: &Message) -> Option<SubshareBatch> {
    match msg {
        Message::VsrSubshares {
            from,
            shares,
            commitments,
        } => Some(SubshareBatch {
            from: *from,
            sharing: FeldmanSharing {
                shares: shares.iter().map(|&(x, y)| VShare { x, y }).collect(),
                commitments: commitments.clone(),
            },
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_elems_payload_is_eight_bytes_per_elem() {
        let msg = Message::FieldElems((0..17u64).map(FGold::new).collect());
        assert_eq!(msg.payload_len(), 17 * ELEM_BYTES);
        let frame = msg.encode_frame();
        assert_eq!(frame.len(), HEADER_BYTES + 17 * ELEM_BYTES);
        let (back, used) = Message::decode_frame(&frame).unwrap();
        assert_eq!(used, frame.len());
        assert_eq!(back, msg);
    }

    #[test]
    fn empty_field_elems_round_trip() {
        let msg = Message::FieldElems(Vec::new());
        let frame = msg.encode_frame();
        assert_eq!(frame.len(), HEADER_BYTES);
        assert_eq!(Message::decode_frame(&frame).unwrap().0, msg);
    }

    #[test]
    fn bad_magic_version_kind_rejected() {
        let mut frame = Message::Sync { round: 3 }.encode_frame();
        let mut f = frame.clone();
        f[0] ^= 0xff;
        assert!(matches!(
            Message::decode_frame(&f),
            Err(WireError::BadMagic(_))
        ));
        let mut f = frame.clone();
        f[2] = 9;
        assert!(matches!(
            Message::decode_frame(&f),
            Err(WireError::BadVersion(9))
        ));
        frame[3] = 77;
        assert!(matches!(
            Message::decode_frame(&frame),
            Err(WireError::UnknownKind(77))
        ));
    }

    #[test]
    fn truncation_detected_in_header_and_payload() {
        let frame = Message::FieldElems(vec![FGold::new(5)]).encode_frame();
        assert!(matches!(
            Message::decode_frame(&frame[..4]),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            Message::decode_frame(&frame[..frame.len() - 1]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn non_canonical_field_value_rejected() {
        let mut frame = Message::FieldElems(vec![FGold::new(0)]).encode_frame();
        frame[HEADER_BYTES..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(Message::decode_frame(&frame), Err(WireError::InvalidValue));
    }

    #[test]
    fn ragged_payload_length_rejected() {
        let msg = Message::FieldElems(vec![FGold::new(1)]);
        let mut frame = msg.encode_frame();
        frame.push(0); // one stray byte beyond the declared length is fine...
        let (back, used) = Message::decode_frame(&frame).unwrap();
        assert_eq!(back, msg);
        assert_eq!(used, frame.len() - 1); // ...and reported as unconsumed.
                                           // But a declared length not divisible by the element size is not.
        let mut bad = msg.encode_frame();
        bad[4..8].copy_from_slice(&9u32.to_le_bytes());
        bad.push(0);
        assert!(matches!(
            Message::decode_frame(&bad),
            Err(WireError::BadLength(9))
        ));
    }

    #[test]
    fn ct_chunk_round_trip() {
        let msg = Message::CtChunk {
            poly: 1,
            limb: 2,
            offset: 4096,
            coeffs: vec![0, 1, u64::MAX, 42],
        };
        let (back, _) = Message::decode_frame(&msg.encode_frame()).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn vsr_batch_round_trip_through_message() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let share = VShare {
            x: 3,
            y: Scalar::new(12345),
        };
        let batch = arboretum_vsr::redistribute_share(&share, 2, 5, &mut rng);
        let msg = vsr_batch_to_message(&batch);
        let (decoded, _) = Message::decode_frame(&msg.encode_frame()).unwrap();
        let back = message_to_vsr_batch(&decoded).unwrap();
        assert_eq!(back.from, batch.from);
        assert_eq!(back.sharing.shares, batch.sharing.shares);
        assert_eq!(back.sharing.commitments, batch.sharing.commitments);
        // Verification still passes on the decoded shares.
        for s in &back.sharing.shares {
            assert!(arboretum_vsr::feldman_verify(s, &back.sharing.commitments));
        }
    }
}
