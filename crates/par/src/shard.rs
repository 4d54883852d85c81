//! Partition invariance of the single-pool kernels.
//!
//! Nothing in the workspace splits a device set across pools any more,
//! but a caller may still cut its input into contiguous shards, run
//! each shard through [`par_map_arc`], [`par_chunks`] or [`par_reduce`]
//! on one pool, and merge the partials in shard-index order — the
//! streaming executor does exactly that with its arrival windows. These
//! tests pin that such a split changes no result: maps and chunk maps
//! concatenate to the unsplit output, an associative reduce equals the
//! serial fold at every shard count, and a non-associative reduce is
//! still bitwise identical across thread counts at a fixed split.

mod tests {
    use std::ops::Range;
    use std::sync::Arc;

    use crate::{par_chunks, par_map_arc, par_reduce, ThreadPool};

    /// `0..n` cut into `k` contiguous shards whose sizes differ by at
    /// most one, larger shards first.
    fn shards(n: usize, k: usize) -> Vec<Range<usize>> {
        let mut start = 0;
        (0..k)
            .map(|s| {
                let len = n / k + usize::from(s < n % k);
                start += len;
                start - len..start
            })
            .collect()
    }

    /// Reduces each of `k` shards with [`par_reduce`] on `pool`, then
    /// left-folds the non-empty shard partials in shard-index order.
    fn reduce_by_shards<T>(
        pool: &ThreadPool,
        items: &[T],
        k: usize,
        f: impl Fn(&T, &T) -> T + Copy + Send + Sync + 'static,
    ) -> Option<T>
    where
        T: Clone + Send + Sync + 'static,
    {
        shards(items.len(), k)
            .into_iter()
            .filter_map(|r| par_reduce(pool, items[r].to_vec(), f))
            .reduce(|a, b| f(&a, &b))
    }

    #[test]
    fn sharded_map_matches_unsharded() {
        let items = Arc::new((0u64..103).collect::<Vec<_>>());
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 2 + i as u64)
            .collect();
        for k in [1usize, 2, 3, 8] {
            for threads in [0usize, 1, 2, 8] {
                let pool = ThreadPool::new(threads);
                let got: Vec<u64> = shards(items.len(), k)
                    .into_iter()
                    .flat_map(|r| {
                        let offset = r.start;
                        let part = Arc::new(items[r].to_vec());
                        par_map_arc(&pool, &part, move |i, x| x * 2 + (offset + i) as u64)
                    })
                    .collect();
                assert_eq!(got, expected, "shards={k} threads={threads}");
            }
        }
    }

    #[test]
    fn sharded_reduce_matches_serial_for_associative_op() {
        let items: Vec<u64> = (1..=999).collect();
        let serial = items.iter().copied().reduce(|a, b| a.wrapping_add(b));
        for k in [1usize, 2, 3, 8] {
            for threads in [0usize, 2, 8] {
                let pool = ThreadPool::new(threads);
                let got = reduce_by_shards(&pool, &items, k, |a, b| a.wrapping_add(*b));
                assert_eq!(got, serial, "shards={k} threads={threads}");
            }
        }
    }

    #[test]
    fn sharded_reduce_fixed_shards_identical_across_threads_even_nonassociative() {
        // f32 addition is not associative: at a fixed split the result
        // must still be bitwise identical for 0, 1, 2, 8 workers.
        let items: Vec<f32> = (0..2000).map(|i| 1.0 / (i as f32 + 1.0)).collect();
        for k in [1usize, 3, 8] {
            let mut results = Vec::new();
            for threads in [0usize, 1, 2, 8] {
                let pool = ThreadPool::new(threads);
                let r = reduce_by_shards(&pool, &items, k, |a, b| a + b).unwrap();
                results.push(r.to_bits());
            }
            assert!(
                results.windows(2).all(|w| w[0] == w[1]),
                "K={k}: {results:?}"
            );
        }
    }

    #[test]
    fn sharded_chunks_matches_slice_chunks() {
        // Shards cut at chunk boundaries, so each shard's chunks are
        // exactly the unsplit input's chunks.
        let items: Vec<u32> = (0..103).collect();
        let expected: Vec<Vec<u32>> = items.chunks(10).map(|c| c.to_vec()).collect();
        let pool = ThreadPool::new(2);
        for k in [1usize, 2, 3, 8] {
            let got: Vec<Vec<u32>> = shards(expected.len(), k)
                .into_iter()
                .flat_map(|r| {
                    let part = items[r.start * 10..(r.end * 10).min(items.len())].to_vec();
                    par_chunks(&pool, part, 10, |_, c| c.to_vec())
                })
                .collect();
            assert_eq!(got, expected, "shards={k}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        // Four shards of at most one item: the empty shards contribute
        // nothing.
        let pool = ThreadPool::new(2);
        assert_eq!(
            reduce_by_shards(&pool, &[] as &[u32], 4, |a, b| a + b),
            None
        );
        assert_eq!(reduce_by_shards(&pool, &[9u32], 4, |a, b| a + b), Some(9));
        assert!(par_chunks(&pool, Vec::<u32>::new(), 3, |_, c| c.len()).is_empty());
        let one = Arc::new(vec![5u64]);
        assert_eq!(par_map_arc(&pool, &one, |i, x| x + i as u64), vec![5]);
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
        let pool = ThreadPool::new(4);
        // K = 1 reproduces the serial fold exactly even though the op is
        // non-associative (one shard, below the serial cutoff).
        let got = reduce_by_shards(&pool, &items, 1, |a, b| format!("({a} {b})")).unwrap();
        assert_eq!(got, serial);
        // K = 3: shards [0..4), [4..7), [7..10) fold locally, then merge
        // in shard order.
        let got = reduce_by_shards(&pool, &items, 3, |a, b| format!("({a} {b})")).unwrap();
        let p0 = "(((0 1) 2) 3)";
        let p1 = "((4 5) 6)";
        let p2 = "((7 8) 9)";
        assert_eq!(got, format!("(({p0} {p1}) {p2})"));
    }
}
