//! Round-trip and hostile-input property tests for every wire message
//! kind.

use arboretum_crypto::group::{GroupElem, Scalar};
use arboretum_field::FGold;
use arboretum_net::wire::{Message, WireError, WireShare, HEADER_BYTES};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, plus a per-thread record of the largest single
/// request made while [`largest_alloc_during`] is measuring — how the
/// hostile-frame property sees an attacker-sized `with_capacity` that
/// overcommit would otherwise let through silently.
struct PeakAlloc;

thread_local! {
    /// `Some(largest request so far)` while this thread is measuring.
    static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note_request(size: usize) {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = PEAK.try_with(|peak| {
        if let Some(largest) = peak.get() {
            peak.set(Some(largest.max(size)));
        }
    });
}

// SAFETY: every operation is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches a
// const-initialized thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        // SAFETY: the caller's layout, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the largest single allocation
/// the calling thread requested meanwhile.
fn largest_alloc_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|peak| peak.set(Some(0)));
    let out = f();
    let largest = PEAK.with(|peak| peak.replace(None)).unwrap_or(0);
    (out, largest)
}

fn roundtrip(msg: &Message) {
    let frame = msg.encode_frame();
    assert_eq!(frame.len(), HEADER_BYTES + msg.payload_len());
    let (back, used) = Message::decode_frame(&frame).expect("decode");
    assert_eq!(used, frame.len());
    assert_eq!(&back, msg);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn field_elems_round_trip(vals in prop::collection::vec(0u64..FGold::MODULUS, 0..40)) {
        let msg = Message::FieldElems(vals.iter().map(|&v| FGold::new(v)).collect());
        prop_assert_eq!(msg.payload_len(), vals.len() * 8);
        roundtrip(&msg);
    }

    #[test]
    fn shares_round_trip(raw in prop::collection::vec(0u64..FGold::MODULUS, 0..24), x0 in 1u64..1000) {
        let msg = Message::Shares(
            raw.iter()
                .enumerate()
                .map(|(i, &v)| WireShare { x: x0 + i as u64, y: FGold::new(v) })
                .collect(),
        );
        roundtrip(&msg);
    }

    #[test]
    fn ct_chunks_round_trip(
        poly in 0u8..2,
        limb in 0u8..4,
        offset in 0u32..1_000_000,
        coeffs in prop::collection::vec(any::<u64>(), 0..32),
    ) {
        roundtrip(&Message::CtChunk { poly, limb, offset, coeffs });
    }

    #[test]
    fn commitments_round_trip(exps in prop::collection::vec(0u64..Scalar::MODULUS, 0..12)) {
        let msg = Message::Commitments(
            exps.iter().map(|&e| GroupElem::mul_base(Scalar::new(e))).collect(),
        );
        roundtrip(&msg);
    }

    #[test]
    fn vsr_subshares_round_trip(
        from in 1u64..64,
        raw in prop::collection::vec(0u64..Scalar::MODULUS, 0..10),
        exps in prop::collection::vec(0u64..Scalar::MODULUS, 0..6),
    ) {
        let msg = Message::VsrSubshares {
            from,
            shares: raw.iter().enumerate().map(|(i, &v)| (i as u64 + 1, Scalar::new(v))).collect(),
            commitments: exps.iter().map(|&e| GroupElem::mul_base(Scalar::new(e))).collect(),
        };
        roundtrip(&msg);
    }

    #[test]
    fn sync_round_trips(round in any::<u32>()) {
        roundtrip(&Message::Sync { round });
    }

    /// Frames are untrusted input. Truncating a valid frame of any
    /// kind, flipping a byte, overwriting any four bytes with
    /// `u32::MAX`, or appending junk yields a typed error or a message
    /// that re-encodes to the consumed prefix — never a panic, and never
    /// an allocation beyond a small multiple of the input length.
    #[test]
    fn corrupted_frames_never_panic(
        vals in prop::collection::vec(0u64..Scalar::MODULUS.min(FGold::MODULUS), 0..8),
        cut in any::<usize>(),
        flip_at in any::<usize>(),
        flip_to in 1u8..=255,
        junk in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        for kind in 0..6 {
            let frame = sample(kind, &vals).encode_frame();
            check(&frame[..cut % frame.len()], "truncated");
            let mut flipped = frame.clone();
            flipped[flip_at % frame.len()] ^= flip_to;
            check(&flipped, "flipped byte");
            for at in 0..=frame.len() - 4 {
                let mut maxed = frame.clone();
                maxed[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                check(&maxed, "u32::MAX field");
            }
            let mut extended = frame.clone();
            extended.extend_from_slice(&junk);
            check(&extended, "appended junk");
        }
    }
}

/// A valid message of wire kind `kind` built from `vals`.
fn sample(kind: u8, vals: &[u64]) -> Message {
    let elems = || vals.iter().map(|&e| GroupElem::mul_base(Scalar::new(e)));
    match kind {
        0 => Message::FieldElems(vals.iter().map(|&v| FGold::new(v)).collect()),
        1 => Message::Shares(
            vals.iter()
                .enumerate()
                .map(|(i, &v)| WireShare {
                    x: i as u64 + 1,
                    y: FGold::new(v),
                })
                .collect(),
        ),
        2 => Message::CtChunk {
            poly: 1,
            limb: 2,
            offset: 77,
            coeffs: vals.to_vec(),
        },
        3 => Message::Commitments(elems().collect()),
        4 => Message::VsrSubshares {
            from: 3,
            shares: vals
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as u64 + 1, Scalar::new(v)))
                .collect(),
            commitments: elems().take(3).collect(),
        },
        _ => Message::Sync {
            round: vals.len() as u32,
        },
    }
}

/// Decodes hostile bytes under the allocation watch and checks the
/// outcome is an error or a message that is exactly the consumed bytes.
fn check(bytes: &[u8], what: &str) {
    let (decoded, largest) = largest_alloc_during(|| Message::decode_frame(bytes));
    assert!(
        largest <= 4 * bytes.len() + 64,
        "{what}: a {}-byte frame made decode_frame request {largest} bytes at once",
        bytes.len(),
    );
    if let Ok((msg, used)) = decoded {
        assert_eq!(msg.encode_frame(), bytes[..used], "{what}: re-encoding");
    }
}

/// The frame from ISSUE 13: a `VsrSubshares` header over 12 payload
/// bytes that claim `u32::MAX` shares. It used to abort the process
/// inside `Vec::with_capacity`.
#[test]
fn vsr_share_count_is_bounded_by_the_payload() {
    let mut frame = Message::VsrSubshares {
        from: 1,
        shares: vec![],
        commitments: vec![],
    }
    .encode_frame();
    assert_eq!(frame.len(), 20);
    frame[16..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Message::decode_frame(&frame),
        Err(WireError::BadLength(_))
    ));
}
