//! Deterministic data-parallel kernels.
//!
//! Every kernel here decomposes work as a pure function of the input
//! *length* — never of the thread count or scheduler state — and fixes
//! its combine/output order by index. See the crate docs for the full
//! determinism contract.

use std::sync::{Arc, Mutex};

use crate::pool::ThreadPool;

/// How many tasks a kernel aims to split an input into. Large enough
/// that stealing balances load, small enough that per-task overhead
/// stays negligible next to a BGV ⊞ or a sigma verification.
const TARGET_TASKS: usize = 256;

/// The chunk length used to split `n` items into about
/// [`TARGET_TASKS`] index-contiguous tasks. Pure function of `n`.
pub(crate) fn chunk_len(n: usize) -> usize {
    n.div_ceil(TARGET_TASKS).max(1)
}

/// Maps `f` over the items of a shared vector, returning results in
/// input order (`out[i] = f(i, &items[i])`). The caller keeps the
/// vector; `f` sees each item by reference through the [`Arc`].
pub fn par_map_arc<T, R>(
    pool: &ThreadPool,
    items: &Arc<Vec<T>>,
    f: impl Fn(usize, &T) -> R + Send + Sync + 'static,
) -> Vec<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
{
    let n = items.len();
    if pool.workers() == 0 || n <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let f = Arc::new(f);
    let slots: Arc<Vec<Mutex<Option<R>>>> = Arc::new((0..n).map(|_| Mutex::new(None)).collect());
    let chunk = chunk_len(n);
    pool.scope(|s| {
        let mut start = 0;
        while start < n {
            let end = (start + chunk).min(n);
            let items = Arc::clone(items);
            let slots = Arc::clone(&slots);
            let f = Arc::clone(&f);
            s.spawn(move || {
                for i in start..end {
                    *slots[i].lock().unwrap() = Some(f(i, &items[i]));
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

/// Applies `f` to index-contiguous chunks of `chunk` items — exactly
/// the groups `slice::chunks(chunk)` would yield — returning one
/// result per chunk, in chunk order.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub(crate) fn par_chunks<T, R>(
    pool: &ThreadPool,
    items: Vec<T>,
    chunk: usize,
    f: impl Fn(usize, &[T]) -> R + Send + Sync + 'static,
) -> Vec<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
{
    assert!(chunk > 0, "par_chunks requires a non-zero chunk size");
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let n_chunks = n.div_ceil(chunk);
    if pool.workers() == 0 || n_chunks <= 1 {
        return items
            .chunks(chunk)
            .enumerate()
            .map(|(k, c)| f(k, c))
            .collect();
    }
    let items = Arc::new(items);
    let f = Arc::new(f);
    let slots: Arc<Vec<Mutex<Option<R>>>> =
        Arc::new((0..n_chunks).map(|_| Mutex::new(None)).collect());
    pool.scope(|s| {
        for k in 0..n_chunks {
            let items = Arc::clone(&items);
            let slots = Arc::clone(&slots);
            let f = Arc::clone(&f);
            s.spawn(move || {
                let start = k * chunk;
                let end = (start + chunk).min(items.len());
                *slots[k].lock().unwrap() = Some(f(k, &items[start..end]));
            });
        }
    });
    let slots = Arc::try_unwrap(slots)
        .unwrap_or_else(|_| unreachable!("all tasks joined; no other Arc holders remain"));
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every slot filled"))
        .collect()
}

/// Items below this count are folded serially — task overhead would
/// dominate.
const SERIAL_REDUCE_CUTOFF: usize = 32;

/// Reduces a vector with a **fixed, index-determined** combine tree:
/// the input is split into index-contiguous chunks (a pure function of
/// its length), each chunk is folded left-to-right, and the partials
/// are reduced the same way recursively. Returns `None` on empty
/// input.
///
/// The combine tree never depends on the thread count, so the result
/// is bitwise identical across pools (including the zero-worker one)
/// for *any* `f`, and identical to `items.into_iter().reduce(f)` when
/// `f` is associative (modular BGV ⊞, integer metric sums, …).
pub(crate) fn par_reduce<T>(
    pool: &ThreadPool,
    items: Vec<T>,
    f: impl Fn(&T, &T) -> T + Send + Sync + 'static,
) -> Option<T>
where
    T: Send + Sync + 'static,
{
    fn serial_fold<T>(items: Vec<T>, f: &impl Fn(&T, &T) -> T) -> Option<T> {
        let mut it = items.into_iter();
        let first = it.next()?;
        Some(it.fold(first, |acc, x| f(&acc, &x)))
    }

    let f = Arc::new(f);
    let mut level = items;
    loop {
        let n = level.len();
        // The cutoff (like the chunking below) depends only on n, so
        // the combine tree is identical for every pool — a zero-worker
        // pool walks the same tree with inline spawns.
        if n <= SERIAL_REDUCE_CUTOFF {
            return serial_fold(level, f.as_ref());
        }
        // Chunk size depends only on n; at least 2 so every round
        // strictly shrinks the level.
        let chunk = chunk_len(n).max(2);
        let n_chunks = n.div_ceil(chunk);
        let cells: Arc<Vec<Mutex<Option<T>>>> =
            Arc::new(level.into_iter().map(|x| Mutex::new(Some(x))).collect());
        let slots: Arc<Vec<Mutex<Option<T>>>> =
            Arc::new((0..n_chunks).map(|_| Mutex::new(None)).collect());
        pool.scope(|s| {
            for k in 0..n_chunks {
                let cells = Arc::clone(&cells);
                let slots = Arc::clone(&slots);
                let f = Arc::clone(&f);
                s.spawn(move || {
                    let start = k * chunk;
                    let end = (start + chunk).min(cells.len());
                    let mut acc = cells[start].lock().unwrap().take().unwrap();
                    for cell in &cells[start + 1..end] {
                        let x = cell.lock().unwrap().take().unwrap();
                        acc = f(&acc, &x);
                    }
                    *slots[k].lock().unwrap() = Some(acc);
                });
            }
        });
        drop(cells);
        let slots = Arc::try_unwrap(slots)
            .unwrap_or_else(|_| unreachable!("all tasks joined; no other Arc holders remain"));
        level = slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap().expect("every slot filled"))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let pool = ThreadPool::new(4);
        let items = Arc::new((0u64..1000).collect());
        let out = par_map_arc(&pool, &items, |i, x| x * 2 + i as u64);
        let expected: Vec<u64> = (0..1000).map(|x| x * 3).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_chunks_matches_slice_chunks() {
        let pool = ThreadPool::new(3);
        let items: Vec<u32> = (0..103).collect();
        let expected: Vec<Vec<u32>> = items.chunks(10).map(|c| c.to_vec()).collect();
        let got = par_chunks(&pool, items, 10, |_, c| c.to_vec());
        assert_eq!(got, expected);
    }

    #[test]
    fn par_reduce_matches_serial_for_associative_op() {
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (1..=10_000).collect();
        let got = par_reduce(&pool, items.clone(), |a, b| a.wrapping_add(*b));
        assert_eq!(got, items.into_iter().reduce(|a, b| a.wrapping_add(b)));
    }

    #[test]
    fn par_reduce_identical_across_thread_counts_even_nonassociative() {
        // f32 addition is not associative; the fixed combine tree must
        // still give bitwise-identical results for 0, 1, 2, 8 workers.
        let items: Vec<f32> = (0..5000).map(|i| 1.0 / (i as f32 + 1.0)).collect();
        let mut results = Vec::new();
        for threads in [0usize, 1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let r = par_reduce(&pool, items.clone(), |a, b| a + b).unwrap();
            results.push(r.to_bits());
        }
        assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = ThreadPool::new(2);
        assert_eq!(par_reduce(&pool, Vec::<u32>::new(), |a, b| a + b), None);
        assert_eq!(par_reduce(&pool, vec![7u32], |a, b| a + b), Some(7));
        assert!(par_chunks(&pool, Vec::<u32>::new(), 4, |_, c| c.len()).is_empty());
        assert!(par_map_arc(&pool, &Arc::new(Vec::<u32>::new()), |_, x| *x).is_empty());
    }
}
