//! Shard-aware execution: K worker pools pinned to disjoint,
//! index-contiguous device shards, with a deterministic shard merge.
//!
//! The paper's aggregator runs on ~1,000 cores (§7.2); a single
//! work-stealing pool over the whole device set stops scaling once
//! every worker contends on the same injector and deques. The sharded
//! layer splits the input-verification and ⊞-aggregation phases across
//! [`ShardedPool`]s — one pool per shard, each owning its own queues
//! and workers — and recombines per-shard partials with a merge whose
//! order is fixed by shard index.
//!
//! # Shard-merge determinism contract
//!
//! This extends the crate's kernel contract one level up:
//!
//! * a [`ShardPlan`] is a **pure function of `(n, K)`** — shard
//!   boundaries never depend on thread counts, queue states, or
//!   scheduling. Shards partition `0..n` exactly, in index order, as
//!   contiguous ranges whose lengths differ by at most one (the first
//!   `n mod K` shards take the remainder);
//! * within a shard, work decomposes through the same
//!   pure-function-of-length kernels one pool runs ([`crate::ops`]: a
//!   fixed combine tree for reductions, index-slotted output for maps);
//! * shard partials are combined by a **K-leaf merge tree folded in
//!   shard-index order** (lexicographic: shard 0's partial first, then
//!   shard 1's, …), regardless of which shard finishes first.
//!
//! Consequently, for a **fixed K**, every sharded kernel returns
//! bitwise-identical results at any thread count — for *any* combine
//! function, associative or not. And for **associative** combines
//! (modular BGV ⊞, integer metric sums) the result is additionally
//! bitwise identical across *all* shard counts, and to the plain
//! serial fold: `par_reduce_sharded` at K ∈ {1..8} ⊞-sums to exactly
//! the bytes the serial left fold produces. Mapping kernels
//! ([`par_map_arc_sharded`], [`par_chunks_sharded`]) are index-slotted,
//! so they are bitwise identical across both axes unconditionally.

use std::ops::Range;
use std::sync::{Arc, Mutex};

use crate::ops::{par_chunks, par_reduce};
use crate::pool::ThreadPool;

/// The assignment of `n` contiguous indices to `K` shards: a pure
/// function of `(n, K)` and nothing else.
///
/// Shard `i` covers an index-contiguous range; ranges are disjoint, in
/// index order, and cover `0..n` exactly. When `K` does not divide
/// `n`, the first `n mod K` shards hold one extra index. Shards may be
/// empty when `n < K`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    n: usize,
    ranges: Vec<Range<usize>>,
}

impl ShardPlan {
    /// Builds the plan for `n` items over `shards` shards (clamped to
    /// ≥ 1).
    pub fn new(n: usize, shards: usize) -> Self {
        let k = shards.max(1);
        let base = n / k;
        let rem = n % k;
        let mut ranges = Vec::with_capacity(k);
        let mut start = 0;
        for i in 0..k {
            let len = base + usize::from(i < rem);
            ranges.push(start..start + len);
            start += len;
        }
        debug_assert_eq!(start, n);
        Self { n, ranges }
    }

    /// Total number of items the plan covers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan covers zero items.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of shards (≥ 1; trailing shards may be empty).
    pub fn shard_count(&self) -> usize {
        self.ranges.len()
    }

    /// The index-contiguous ranges, one per shard, in shard order.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// The shard that owns index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn shard_of(&self, i: usize) -> usize {
        assert!(i < self.n, "index {i} out of range 0..{}", self.n);
        self.ranges
            .iter()
            .position(|r| r.contains(&i))
            .expect("ranges cover 0..n")
    }

    /// Splits an owned vector of exactly `len()` items into per-shard
    /// vectors, in shard order.
    ///
    /// # Panics
    ///
    /// Panics if `items.len() != self.len()`.
    pub fn split<T>(&self, items: Vec<T>) -> Vec<Vec<T>> {
        assert_eq!(items.len(), self.n, "item count does not match plan");
        let mut it = items.into_iter();
        self.ranges
            .iter()
            .map(|r| it.by_ref().take(r.len()).collect())
            .collect()
    }
}

/// K worker pools pinned to disjoint shards.
///
/// The set owns one [`ThreadPool`] per shard, dividing a total worker
/// budget among them (the first `threads mod K` shards take one extra
/// worker). Pools are *not* shared with the process-wide cache: the
/// set's owner alone drives work through them.
///
/// With a zero-thread budget every shard pool is the zero-worker
/// inline pool: the same code path runs serially, and — per the
/// shard-merge contract — produces the same bytes.
#[derive(Debug)]
pub struct ShardedPool {
    pools: Vec<Arc<ThreadPool>>,
}

impl ShardedPool {
    /// Creates `shards` pools (clamped to ≥ 1) dividing `threads`
    /// workers among them.
    pub fn new(threads: usize, shards: usize) -> Self {
        let k = shards.max(1);
        let base = threads / k;
        let rem = threads % k;
        let pools = (0..k)
            .map(|i| Arc::new(ThreadPool::new(base + usize::from(i < rem))))
            .collect();
        Self { pools }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.pools.len()
    }

    /// The pool pinned to shard `s`.
    pub fn pool(&self, s: usize) -> &Arc<ThreadPool> {
        &self.pools[s]
    }

    /// The shard plan for `n` items over this set's shards.
    pub fn plan(&self, n: usize) -> ShardPlan {
        ShardPlan::new(n, self.shards())
    }

    /// Runs `per_shard(s, pool_s)` for every shard concurrently (one
    /// driver thread per shard; a single-shard set runs inline on the
    /// caller), returning results in shard order.
    ///
    /// Shards share no queues, so one shard's load never reorders
    /// another's work; results are positioned by shard index, never by
    /// completion order.
    pub fn run<R, F>(&self, per_shard: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &ThreadPool) -> R + Sync,
    {
        if self.pools.len() == 1 {
            return vec![per_shard(0, &self.pools[0])];
        }
        let slots: Vec<Mutex<Option<R>>> = self.pools.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for (s, pool) in self.pools.iter().enumerate() {
                let slots = &slots;
                let per_shard = &per_shard;
                std::thread::Builder::new()
                    .name(format!("arboretum-shard-{s}"))
                    .spawn_scoped(scope, move || {
                        *slots[s].lock().unwrap() = Some(per_shard(s, pool));
                    })
                    .expect("spawn shard driver");
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap().expect("every shard ran"))
            .collect()
    }
}

/// Maps `f` over a shared vector with shard-pinned pools, returning
/// results in input order (`out[i] = f(i, &items[i])`, global index).
///
/// Each shard maps its contiguous range on its own pool; the outputs
/// are concatenated in shard order, which by construction *is* input
/// order. Bitwise identical to [`crate::par_map_arc`] on one pool, at
/// any thread and shard count.
pub fn par_map_arc_sharded<T, R>(
    set: &ShardedPool,
    items: &Arc<Vec<T>>,
    f: impl Fn(usize, &T) -> R + Send + Sync + 'static,
) -> Vec<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
{
    let plan = set.plan(items.len());
    let f = Arc::new(f);
    let per_shard: Vec<Vec<R>> = set.run(|s, pool| {
        let range = plan.ranges()[s].clone();
        map_range(pool, items, range, &f)
    });
    per_shard.into_iter().flatten().collect()
}

/// Maps `f` over one shard's index range on that shard's pool, using
/// the same chunking rule as [`crate::par_map_arc`] applied to the
/// range length.
fn map_range<T, R>(
    pool: &ThreadPool,
    items: &Arc<Vec<T>>,
    range: Range<usize>,
    f: &Arc<impl Fn(usize, &T) -> R + Send + Sync + 'static>,
) -> Vec<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
{
    let len = range.len();
    if pool.workers() == 0 || len <= 1 {
        return items[range.clone()]
            .iter()
            .enumerate()
            .map(|(off, x)| f(range.start + off, x))
            .collect();
    }
    let chunk = crate::ops::chunk_len(len);
    let slots: Arc<Vec<Mutex<Option<R>>>> = Arc::new((0..len).map(|_| Mutex::new(None)).collect());
    pool.scope(|s| {
        let mut start = range.start;
        while start < range.end {
            let end = (start + chunk).min(range.end);
            let items = Arc::clone(items);
            let slots = Arc::clone(&slots);
            let f = Arc::clone(f);
            let base = range.start;
            s.spawn(move || {
                for i in start..end {
                    *slots[i - base].lock().unwrap() = Some(f(i, &items[i]));
                }
            });
            start = end;
        }
    });
    let slots = Arc::try_unwrap(slots)
        .unwrap_or_else(|_| unreachable!("all tasks joined; no other Arc holders remain"));
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every slot filled"))
        .collect()
}

/// Sharded reduction: each shard folds its contiguous slice with a
/// fixed, index-determined combine tree on its own pool, then a
/// final K-leaf merge folds the shard partials **in shard-index
/// order**. Returns `None` on empty input.
///
/// For a fixed shard count the result is bitwise identical at any
/// thread count, for *any* `f` (both the per-shard trees and the merge
/// order are pure functions of `(n, K)`). When `f` is associative the
/// result is additionally bitwise identical to the serial left fold —
/// and therefore identical across shard counts too.
pub fn par_reduce_sharded<T>(
    set: &ShardedPool,
    items: Vec<T>,
    f: impl Fn(&T, &T) -> T + Send + Sync + 'static,
) -> Option<T>
where
    T: Send + Sync + 'static,
{
    let plan = set.plan(items.len());
    let f = Arc::new(f);
    let shards: Vec<Mutex<Option<Vec<T>>>> = plan
        .split(items)
        .into_iter()
        .map(|v| Mutex::new(Some(v)))
        .collect();
    let partials: Vec<Option<T>> = set.run(|s, pool| {
        let shard_items = shards[s]
            .lock()
            .unwrap()
            .take()
            .expect("each shard taken once");
        let f = Arc::clone(&f);
        par_reduce(pool, shard_items, move |a, b| f(a, b))
    });
    // K-leaf merge in shard-index order (empty shards contribute
    // nothing): partial_0 ⊕ partial_1 ⊕ … left-to-right.
    partials.into_iter().flatten().reduce(|acc, x| f(&acc, &x))
}

/// Sharded chunk map: items are grouped exactly like
/// `slice::chunks(chunk)`, the *groups* are partitioned across shards
/// by a [`ShardPlan`] over the group count, and each shard applies `f`
/// to its groups on its own pool. Results come back in chunk order —
/// bitwise identical at any thread and shard count, for any `f`.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn par_chunks_sharded<T, R>(
    set: &ShardedPool,
    items: Vec<T>,
    chunk: usize,
    f: impl Fn(usize, &[T]) -> R + Send + Sync + 'static,
) -> Vec<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
{
    assert!(
        chunk > 0,
        "par_chunks_sharded requires a non-zero chunk size"
    );
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let n_chunks = n.div_ceil(chunk);
    let plan = ShardPlan::new(n_chunks, set.shards());
    let items = Arc::new(items);
    let f = Arc::new(f);
    let per_shard: Vec<Vec<R>> = set.run(|s, pool| {
        let groups = plan.ranges()[s].clone();
        let sub: Vec<usize> = groups.collect();
        let items = Arc::clone(&items);
        let f = Arc::clone(&f);
        par_chunks(pool, sub, 1, move |_, ks| {
            let k = ks[0];
            let start = k * chunk;
            let end = (start + chunk).min(items.len());
            f(k, &items[start..end])
        })
    });
    per_shard.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_partitions_exactly() {
        for (n, k) in [(10, 3), (7, 8), (0, 4), (16, 1), (5, 5)] {
            let plan = ShardPlan::new(n, k);
            assert_eq!(plan.shard_count(), k);
            let mut covered = 0;
            for (i, r) in plan.ranges().iter().enumerate() {
                assert_eq!(r.start, covered, "shard {i} not contiguous for n={n} k={k}");
                covered = r.end;
            }
            assert_eq!(covered, n);
            // Sizes differ by at most one, larger shards first.
            let sizes: Vec<usize> = plan.ranges().iter().map(|r| r.len()).collect();
            assert!(sizes.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
        }
    }

    #[test]
    fn shard_of_agrees_with_ranges() {
        let plan = ShardPlan::new(11, 3);
        for i in 0..11 {
            let s = plan.shard_of(i);
            assert!(plan.ranges()[s].contains(&i));
        }
    }

    #[test]
    fn split_preserves_order() {
        let plan = ShardPlan::new(10, 3);
        let parts = plan.split((0..10).collect::<Vec<_>>());
        assert_eq!(parts.len(), 3);
        let glued: Vec<i32> = parts.into_iter().flatten().collect();
        assert_eq!(glued, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sharded_map_matches_unsharded() {
        let items = Arc::new((0u64..103).collect::<Vec<_>>());
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 2 + i as u64)
            .collect();
        for shards in [1usize, 2, 3, 8] {
            for threads in [0usize, 1, 2, 8] {
                let set = ShardedPool::new(threads, shards);
                let got = par_map_arc_sharded(&set, &items, |i, x| x * 2 + i as u64);
                assert_eq!(got, expected, "shards={shards} threads={threads}");
            }
        }
    }

    #[test]
    fn sharded_reduce_matches_serial_for_associative_op() {
        let items: Vec<u64> = (1..=999).collect();
        let serial = items.iter().copied().reduce(|a, b| a.wrapping_add(b));
        for shards in [1usize, 2, 3, 8] {
            for threads in [0usize, 2, 8] {
                let set = ShardedPool::new(threads, shards);
                let got = par_reduce_sharded(&set, items.clone(), |a, b| a.wrapping_add(*b));
                assert_eq!(got, serial, "shards={shards} threads={threads}");
            }
        }
    }

    #[test]
    fn sharded_reduce_fixed_shards_identical_across_threads_even_nonassociative() {
        // f32 addition is not associative: at a fixed K the result must
        // still be bitwise identical for 0, 1, 2, 8 workers.
        let items: Vec<f32> = (0..2000).map(|i| 1.0 / (i as f32 + 1.0)).collect();
        for shards in [1usize, 3, 8] {
            let mut results = Vec::new();
            for threads in [0usize, 1, 2, 8] {
                let set = ShardedPool::new(threads, shards);
                let r = par_reduce_sharded(&set, items.clone(), |a, b| a + b).unwrap();
                results.push(r.to_bits());
            }
            assert!(
                results.windows(2).all(|w| w[0] == w[1]),
                "K={shards}: {results:?}"
            );
        }
    }

    #[test]
    fn sharded_chunks_matches_slice_chunks() {
        let items: Vec<u32> = (0..103).collect();
        let expected: Vec<Vec<u32>> = items.chunks(10).map(|c| c.to_vec()).collect();
        for shards in [1usize, 2, 3, 8] {
            let set = ShardedPool::new(2, shards);
            let got = par_chunks_sharded(&set, items.clone(), 10, |_, c| c.to_vec());
            assert_eq!(got, expected, "shards={shards}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let set = ShardedPool::new(2, 4);
        assert_eq!(
            par_reduce_sharded(&set, Vec::<u32>::new(), |a, b| a + b),
            None
        );
        assert_eq!(par_reduce_sharded(&set, vec![9u32], |a, b| a + b), Some(9));
        assert!(par_chunks_sharded(&set, Vec::<u32>::new(), 3, |_, c| c.len()).is_empty());
        let one = Arc::new(vec![5u64]);
        assert_eq!(
            par_map_arc_sharded(&set, &one, |i, x| x + i as u64),
            vec![5]
        );
    }

    #[test]
    fn merge_order_is_shard_index_lexicographic() {
        // A combine that records its application order: the merge must
        // fold shard partials 0, 1, 2, … left-to-right.
        let items: Vec<String> = (0..10).map(|i| i.to_string()).collect();
        let serial = items
            .clone()
            .into_iter()
            .reduce(|a, b| format!("({a} {b})"))
            .unwrap();
        // K = 1 reproduces the serial fold exactly even though the op is
        // non-associative (single shard, fold below the serial cutoff).
        let set = ShardedPool::new(4, 1);
        let got = par_reduce_sharded(&set, items.clone(), |a, b| format!("({a} {b})")).unwrap();
        assert_eq!(got, serial);
        // K = 3: shards [0..4), [4..7), [7..10) fold locally, then merge
        // in shard order.
        let set = ShardedPool::new(4, 3);
        let got = par_reduce_sharded(&set, items, |a, b| format!("({a} {b})")).unwrap();
        let p0 = "(((0 1) 2) 3)";
        let p1 = "((4 5) 6)";
        let p2 = "((7 8) 9)";
        assert_eq!(got, format!("(({p0} {p1}) {p2})"));
    }
}
