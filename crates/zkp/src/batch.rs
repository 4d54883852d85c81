//! Fan-out of input-validation proofs over a thread pool.
//!
//! At input-collection time the aggregator verifies one proof per
//! participant (§5.3) — embarrassingly parallel, since
//! [`verify_one_hot_detailed`] and [`verify_range_detailed`] are pure
//! functions of the proof and the public parameters. These helpers
//! spread a list of proofs over an [`arboretum_par`] pool; verdicts
//! come back in input order, so accept/reject decisions are identical
//! to a serial loop at any thread count.
//!
//! "Batch" here means many proofs, each still verified on its own. It
//! is unrelated to the fold *inside* one proof (`sigma`'s module docs),
//! which combines that proof's equations into one multi-exponentiation;
//! nothing combines equations across proofs.

use std::sync::Arc;

use arboretum_crypto::pedersen::PedersenParams;
use arboretum_par::{par_map, ThreadPool};

use crate::onehot::{verify_one_hot_detailed, OneHotProof, OneHotVerifyError};
use crate::range::{verify_range_detailed, RangeProof, RangeVerifyError};

/// Verifies a batch of one-hot proofs in parallel, returning a typed
/// verdict per proof in input order. A bad proof is isolated to its own
/// slot — the surrounding proofs still verify independently.
pub fn par_verify_one_hot_detailed(
    pool: &ThreadPool,
    pp: &PedersenParams,
    proofs: Vec<OneHotProof>,
) -> Vec<Result<(), OneHotVerifyError>> {
    let pp = Arc::new(*pp);
    par_map(pool, proofs, move |_, proof| {
        verify_one_hot_detailed(&pp, proof)
    })
}

/// Verifies a batch of range proofs in parallel, returning a typed
/// verdict per proof in input order. A bad proof is isolated to its own
/// slot — the surrounding proofs still verify independently.
pub fn par_verify_ranges_detailed(
    pool: &ThreadPool,
    pp: &PedersenParams,
    proofs: Vec<RangeProof>,
    bits: u32,
) -> Vec<Result<(), RangeVerifyError>> {
    let pp = Arc::new(*pp);
    par_map(pool, proofs, move |_, proof| {
        verify_range_detailed(&pp, proof, bits)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onehot::prove_one_hot;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn batch_one_hot_matches_serial() {
        let pp = PedersenParams::standard();
        let mut rng = StdRng::seed_from_u64(7);
        let proofs: Vec<OneHotProof> = (0..24)
            .map(|i| {
                let mut bits = vec![0u64; 5];
                bits[i % 5] = 1;
                prove_one_hot(&pp, &bits, &mut rng).unwrap()
            })
            .collect();
        let serial: Vec<_> = proofs
            .iter()
            .map(|p| verify_one_hot_detailed(&pp, p))
            .collect();
        for threads in [0usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            let par = par_verify_one_hot_detailed(&pool, &pp, proofs.clone());
            assert_eq!(par, serial, "threads={threads}");
        }
        assert!(serial.iter().all(|v| v.is_ok()));
    }
}
