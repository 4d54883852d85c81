//! Batched homomorphic aggregation over many ciphertexts.
//!
//! The aggregator's dominant workload is ⊞-summing one ciphertext per
//! accepted participant (§4.3). These helpers provide the serial
//! reference fold plus parallel equivalents built on
//! [`arboretum_par`]'s deterministic kernels. Because BGV ⊞ is
//! row-wise modular addition — associative and commutative — the
//! parallel tree reduction is **bitwise identical** to the serial left
//! fold, and identical across thread counts; noise growth is additive
//! in the number of operands either way, so the noise budget does not
//! depend on scheduling.

use std::sync::Arc;

use arboretum_par::{par_chunks, ThreadPool};

use crate::poly::BgvContext;
use crate::scheme::{add_assign, Ciphertext};

/// Serial reference: left fold of ⊞ over the ciphertexts. Returns
/// `None` on empty input. The fold accumulates in place, so summing
/// `k` ciphertexts allocates exactly one (the cloned first element).
pub fn sum(ctx: &BgvContext, cts: &[Ciphertext]) -> Option<Ciphertext> {
    let mut it = cts.iter();
    let mut acc = it.next()?.clone();
    for ct in it {
        add_assign(ctx, &mut acc, ct);
    }
    Some(acc)
}

/// One round of a fanout-`k` sum tree: groups are exactly
/// `slice::chunks(k)`'s groups, each folded left-to-right in place,
/// and results come back in group order. Because ⊞ is associative
/// row-wise modular addition, repeating rounds down to one ciphertext
/// is **bitwise identical** to [`sum`] at every thread count,
/// including zero-worker pools.
///
/// # Panics
///
/// Panics if `fanout == 0`.
pub fn par_sum_chunks(
    pool: &ThreadPool,
    ctx: &Arc<BgvContext>,
    cts: Vec<Ciphertext>,
    fanout: usize,
) -> Vec<Ciphertext> {
    let ctx = Arc::clone(ctx);
    par_chunks(pool, cts, fanout, move |_, chunk| {
        let mut acc = chunk[0].clone();
        for ct in &chunk[1..] {
            add_assign(&ctx, &mut acc, ct);
        }
        acc
    })
}

/// Forwards to [`sum`]'s in-place fold. 1b deletes this.
pub fn par_sum_sharded(
    _pool: &ThreadPool,
    ctx: &Arc<BgvContext>,
    cts: Vec<Ciphertext>,
) -> Option<Ciphertext> {
    sum(ctx, &cts)
}

/// Forwards to [`par_sum_chunks`]. 1b deletes this.
pub fn par_sum_chunks_sharded(
    pool: &ThreadPool,
    ctx: &Arc<BgvContext>,
    cts: Vec<Ciphertext>,
    fanout: usize,
) -> Vec<Ciphertext> {
    par_sum_chunks(pool, ctx, cts, fanout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_coeffs;
    use crate::params::BgvParams;
    use crate::scheme::{decrypt, encrypt, keygen};
    use arboretum_field::primes::{BGV_Q1, BGV_Q2, BGV_Q_ROOTS};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n_cts: usize) -> (Arc<BgvContext>, Vec<Ciphertext>, crate::scheme::SecretKey) {
        let params = BgvParams::new(
            64,
            vec![BGV_Q1, BGV_Q2],
            BGV_Q_ROOTS[..2].to_vec(),
            1 << 30,
            None,
        )
        .unwrap();
        let ctx = Arc::new(BgvContext::new(params));
        let mut rng = StdRng::seed_from_u64(42);
        let (sk, pk) = keygen(&ctx, &mut rng);
        let cts = (0..n_cts)
            .map(|i| {
                let pt = encode_coeffs(&ctx, &[(i % 7) as u64 + 1]).unwrap();
                encrypt(&ctx, &pk, &pt, &mut rng)
            })
            .collect();
        (ctx, cts, sk)
    }

    #[test]
    fn par_sum_bitwise_identical_to_serial() {
        let (ctx, cts, sk) = setup(100);
        let serial = sum(&ctx, &cts).unwrap();
        for threads in [0usize, 1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let par = par_sum_sharded(&pool, &ctx, cts.clone()).unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
        let expected: u64 = (0..100).map(|i| (i % 7) as u64 + 1).sum();
        let decoded = crate::encode::decode_coeffs(&decrypt(&ctx, &sk, &serial), 1);
        assert_eq!(decoded[0], expected);
    }

    #[test]
    fn par_sum_chunks_matches_serial_chunk_folds() {
        let (ctx, cts, _) = setup(50);
        let fanout = 8;
        let serial: Vec<Ciphertext> = cts
            .chunks(fanout)
            .map(|chunk| sum(&ctx, chunk).unwrap())
            .collect();
        for threads in [0usize, 2, 4] {
            let pool = ThreadPool::new(threads);
            let par = par_sum_chunks(&pool, &ctx, cts.clone(), fanout);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn sharded_sum_bitwise_identical_across_shard_counts() {
        // The device set cut into K contiguous shards, each ⊞-summed on
        // its own, the partials summed in shard order: ⊞ is associative,
        // so every K gives the serial sum bit for bit.
        let (ctx, cts, _) = setup(67);
        let serial = sum(&ctx, &cts).unwrap();
        for shards in [1usize, 2, 3, 8] {
            for threads in [0usize, 2] {
                let pool = ThreadPool::new(threads);
                let partials: Vec<Ciphertext> = cts
                    .chunks(cts.len().div_ceil(shards))
                    .map(|part| par_sum_sharded(&pool, &ctx, part.to_vec()).unwrap())
                    .collect();
                let got = par_sum_sharded(&pool, &ctx, partials).unwrap();
                assert_eq!(got, serial, "shards={shards} threads={threads}");
            }
        }
    }

    #[test]
    fn sharded_sum_chunks_matches_unsharded() {
        // Shards cut at fan-in boundaries: each shard's chunk sums are
        // exactly the unsplit input's.
        let (ctx, cts, _) = setup(41);
        let fanout = 4;
        let pool = ThreadPool::new(2);
        let unsharded = par_sum_chunks(&pool, &ctx, cts.clone(), fanout);
        let groups = cts.len().div_ceil(fanout);
        for shards in [1usize, 3, 8] {
            let got: Vec<Ciphertext> = cts
                .chunks(groups.div_ceil(shards) * fanout)
                .flat_map(|part| par_sum_chunks_sharded(&pool, &ctx, part.to_vec(), fanout))
                .collect();
            assert_eq!(got, unsharded, "shards={shards}");
        }
    }
}
