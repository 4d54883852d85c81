//! Property-based tests for the reduction's determinism contract on one
//! pool: `par_reduce` walks a combine tree fixed by the input length
//! alone — so its association order is a pure function of `n`, its
//! result is bitwise identical at every thread count even for a
//! deliberately non-associative op (floating-point addition), and it
//! equals the serial left fold whenever the op is associative.

use arboretum_par::{par_reduce, ThreadPool};
use proptest::prelude::*;

/// A left fold with a combine that records its association order.
fn left_fold(items: Vec<String>) -> String {
    items
        .into_iter()
        .reduce(|a, b| format!("({a} {b})"))
        .unwrap()
}

/// The documented combine tree, written out serially: fold levels of at
/// most 32 items left to right; above that, fold index-contiguous chunks
/// of `max(⌈n / 256⌉, 2)` items and reduce the partials the same way.
fn tree_fold(level: Vec<String>) -> String {
    if level.len() <= 32 {
        return left_fold(level);
    }
    let chunk = level.len().div_ceil(256).max(2);
    tree_fold(level.chunks(chunk).map(|c| left_fold(c.to_vec())).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reduce_association_order_is_the_length_determined_tree(n in 1usize..700) {
        // A string-recording combine exposes the exact association order.
        let pool = ThreadPool::new(3);
        let items: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        let got = par_reduce(&pool, items.clone(), |a, b| format!("({a} {b})")).unwrap();
        prop_assert_eq!(got, tree_fold(items));
    }

    #[test]
    fn associative_reduce_equals_serial_fold(n in 1usize..2000, seed in 0u64..1000) {
        // Wrapping u64 addition is associative: the tree reduction must
        // equal the plain serial left fold bitwise.
        let items: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9).wrapping_add(seed))
            .collect();
        let serial = items.iter().copied().reduce(u64::wrapping_add).unwrap();
        let pool = ThreadPool::new(2);
        let got = par_reduce(&pool, items, |a, b| a.wrapping_add(*b)).unwrap();
        prop_assert_eq!(got, serial);
    }

    #[test]
    fn nonassociative_reduce_is_thread_invariant(n in 1usize..2000, seed in 0u64..1000) {
        // f32 addition is non-associative, so the tree result need not
        // equal the serial fold — but the tree depends only on n, so the
        // bit pattern must be identical at every thread count, inline
        // included.
        let items: Vec<f32> = (0..n)
            .map(|i| ((i as u64 * 2_654_435_761 + seed) % 1000) as f32 / 7.0)
            .collect();
        let mut bits: Option<u32> = None;
        for threads in [0usize, 1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let got = par_reduce(&pool, items.clone(), |a, b| *a + *b).unwrap();
            match bits {
                None => bits = Some(got.to_bits()),
                Some(b) => prop_assert_eq!(got.to_bits(), b, "threads={}", threads),
            }
        }
    }
}
