//! Shared by the property suites of this directory: a global allocator
//! that records, for a thread that is measuring, the largest single
//! request it makes, how many allocations it makes, and how many bytes
//! it holds live at most. Each suite that declares `mod common;` gets
//! its own instance (a test binary has exactly one global allocator).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, plus a per-thread record of the largest single
/// request — how a hostile-input property sees an attacker-sized
/// `with_capacity` or `resize` that overcommit would otherwise let
/// through silently — of the number of allocations, how a performance
/// property sees churn return, and of the bytes live at once, how a
/// memory property sees a working set grow.
struct TrackingAlloc;

/// What a measuring thread has requested so far.
#[derive(Clone, Copy, Default)]
struct Tally {
    largest: usize,
    allocs: u64,
    /// Bytes allocated minus bytes freed by this thread since it began
    /// measuring (negative once it frees what it held before).
    live: isize,
    /// The most `live` has been.
    peak_live: isize,
}

thread_local! {
    /// `Some(tally so far)` while this thread is measuring.
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

/// Notes one request of `size` bytes that grows the live set by
/// `growth`; `fresh` when it is a new block rather than a resize of an
/// existing one.
fn note_request(size: usize, growth: isize, fresh: bool) {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = TALLY.try_with(|tally| {
        if let Some(t) = tally.get() {
            let live = t.live + growth;
            tally.set(Some(Tally {
                largest: t.largest.max(size),
                allocs: t.allocs + u64::from(fresh),
                live,
                peak_live: t.peak_live.max(live),
            }));
        }
    });
}

/// Notes `size` bytes freed.
fn note_free(size: usize) {
    let _ = TALLY.try_with(|tally| {
        if let Some(t) = tally.get() {
            tally.set(Some(Tally {
                live: t.live - size as isize,
                ..t
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
        note_request(layout.size(), layout.size() as isize, true);
        // SAFETY: the caller's layout, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size, new_size as isize - layout.size() as isize, false);
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
#[allow(dead_code)] // Not every suite bounds a single request.
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

/// Runs `f` and returns its result with the most bytes the calling
/// thread held live at once meanwhile, counted from what it held when
/// `f` began. Only the calling thread is seen: measure on a zero-worker
/// pool, where every job runs on the caller.
#[allow(dead_code)] // Not every suite measures memory.
pub fn peak_live_bytes_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let (out, tally) = tally_during(f);
    (out, tally.peak_live.max(0) as usize)
}
