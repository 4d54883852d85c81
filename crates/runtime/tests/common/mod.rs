//! Shared by the property suites of this directory: a global allocator
//! that records, for a thread that is measuring, the largest single
//! request it makes and how many allocations it makes. Each suite that
//! declares `mod common;` gets its own instance (a test binary has
//! exactly one global allocator).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, plus a per-thread record of the largest single
/// request — how a hostile-input property sees an attacker-sized
/// `with_capacity` or `resize` that overcommit would otherwise let
/// through silently — and of the number of allocations, how a
/// performance property sees churn return.
struct TrackingAlloc;

/// What a measuring thread has requested so far.
#[derive(Clone, Copy, Default)]
struct Tally {
    largest: usize,
    allocs: u64,
}

thread_local! {
    /// `Some(tally so far)` while this thread is measuring.
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

/// Notes one request of `size` bytes; `fresh` when it is a new block
/// rather than a resize of an existing one.
fn note_request(size: usize, fresh: bool) {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = TALLY.try_with(|tally| {
        if let Some(t) = tally.get() {
            tally.set(Some(Tally {
                largest: t.largest.max(size),
                allocs: t.allocs + u64::from(fresh),
            }));
        }
    });
}

// SAFETY: every operation is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches a
// const-initialized thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size(), true);
        // SAFETY: the caller's layout, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size, false);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: TrackingAlloc = TrackingAlloc;

/// Runs `f` and returns its result with what the calling thread
/// requested meanwhile.
fn tally_during<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    TALLY.with(|tally| tally.set(Some(Tally::default())));
    let out = f();
    let tally = TALLY.with(|tally| tally.replace(None)).unwrap_or_default();
    (out, tally)
}

/// Runs `f` and returns its result with the largest single allocation
/// the calling thread requested meanwhile.
pub fn largest_alloc_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let (out, tally) = tally_during(f);
    (out, tally.largest)
}

/// Runs `f` and returns its result with the number of heap allocations
/// the calling thread made meanwhile (resizes of a live block are not
/// new allocations).
#[allow(dead_code)] // Not every suite counts.
pub fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, tally) = tally_during(f);
    (out, tally.allocs)
}
