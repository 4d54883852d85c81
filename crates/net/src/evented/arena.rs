//! A pooled buffer arena for zero-copy frame reuse.
//!
//! The evented fabric encodes every frame into a buffer checked out of
//! this arena and returns the buffer once the frame is decoded, so
//! steady-state traffic recycles a small working set of allocations
//! instead of building a fresh `Vec` per message. The fresh/reused
//! counters double as an allocation-pressure proxy: `fresh` bounds the
//! peak number of frame buffers ever live at once.

/// A freelist of frame buffers with allocation counters.
#[derive(Debug, Default)]
pub struct BufferArena {
    free: Vec<Vec<u8>>,
    fresh: u64,
    reused: u64,
}

/// A snapshot of an arena's allocation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaCounters {
    /// Buffers newly allocated because the freelist was empty. This is
    /// the peak number of frame buffers simultaneously in flight — the
    /// arena's memory footprint proxy.
    pub fresh: u64,
    /// Checkouts served from the freelist (no allocation).
    pub reused: u64,
}

impl BufferArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks a cleared buffer out of the arena, allocating only when
    /// the freelist is empty.
    pub fn checkout(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                self.reused += 1;
                buf
            }
            None => {
                self.fresh += 1;
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the freelist, keeping its capacity for the
    /// next checkout.
    pub fn give_back(&mut self, buf: Vec<u8>) {
        self.free.push(buf);
    }

    /// The allocation counters so far.
    pub fn counters(&self) -> ArenaCounters {
        ArenaCounters {
            fresh: self.fresh,
            reused: self.reused,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_returned_buffers() {
        let mut arena = BufferArena::new();
        let mut a = arena.checkout();
        a.extend_from_slice(b"frame");
        let cap = a.capacity();
        arena.give_back(a);
        let b = arena.checkout();
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert_eq!(b.capacity(), cap, "capacity is retained across reuse");
        assert_eq!(
            arena.counters(),
            ArenaCounters {
                fresh: 1,
                reused: 1
            }
        );
    }

    #[test]
    fn fresh_counts_peak_live_buffers() {
        let mut arena = BufferArena::new();
        let bufs: Vec<_> = (0..4).map(|_| arena.checkout()).collect();
        for b in bufs {
            arena.give_back(b);
        }
        for _ in 0..8 {
            let b = arena.checkout();
            arena.give_back(b);
        }
        let c = arena.counters();
        assert_eq!(c.fresh, 4);
        assert_eq!(c.reused, 8);
    }
}
