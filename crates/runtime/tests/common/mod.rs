//! Shared by the property suites of this directory: a global allocator
//! that records the largest single request a thread makes while a
//! property is measuring. Each suite that declares `mod common;` gets
//! its own instance (a test binary has exactly one global allocator).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, plus a per-thread record of the largest single
/// request made while [`largest_alloc_during`] is measuring — how a
/// hostile-input property sees an attacker-sized `with_capacity` or
/// `resize` that overcommit would otherwise let through silently.
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
pub fn largest_alloc_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|peak| peak.set(Some(0)));
    let out = f();
    let largest = PEAK.with(|peak| peak.replace(None)).unwrap_or(0);
    (out, largest)
}
