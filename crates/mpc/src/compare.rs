//! Secure comparison and argmax protocols.
//!
//! Comparison is the operation that makes the exponential mechanism
//! expensive in MPC (§3.3): it cannot be done with linear share algebra.
//! We implement the standard mask-open-and-borrow-chain protocol with
//! dealer-supplied random bits:
//!
//! 1. `z = x − y + 2^L` (so `z`'s bit `L` is the sign of `x − y`);
//! 2. open `c = z + R`, with `R` a 62-bit random value held as shared
//!    bits (statistically hides `z`);
//! 3. compute `z = c − R mod 2^{L+1}` bit-by-bit with a borrow chain —
//!    one secure AND per bit — and return bit `L`.
//!
//! Costs are the real protocol's: `L + 1` multiplications over `L + 2`
//! sequential openings per comparison, which is why the paper's planner
//! prefers to keep comparisons in small committees and batch them. There
//! is one borrow-chain body, [`less_than_batch`]: the chains of a batch
//! advance in lockstep, so the openings are `L + 2` however many pairs
//! ride along, and [`less_than`] is its one-pair call. A log-depth prefix
//! circuit was measured and declined — it needs ~72 multiplications per
//! 40-bit comparison where the chain needs 41, and on this fabric a
//! multiplication costs more than the frames it saves (EXPERIMENTS.md).

use arboretum_field::FGold;

use crate::engine::{MpcEngine, MpcError, Shared};

/// Number of mask bits (statistical hiding of values up to `2^42`).
const MASK_BITS: usize = 62;

/// Maximum comparison width: masked sums must stay below the field
/// modulus, and the 62-bit mask must still statistically hide the
/// operand (hiding is `2^(bits+1-62)`, i.e. at least `2^-16` here).
pub const MAX_COMPARE_BITS: usize = 45;

/// Returns a shared bit: `1` if `x < y`, else `0`.
///
/// Operands are interpreted as integers in `[0, 2^bits)`.
///
/// # Errors
///
/// Propagates opening failures.
///
/// # Panics
///
/// Panics if `bits` exceeds [`MAX_COMPARE_BITS`].
pub fn less_than(
    e: &mut MpcEngine,
    x: &Shared,
    y: &Shared,
    bits: usize,
) -> Result<Shared, MpcError> {
    Ok(less_than_batch(e, &[(x, y)], bits)?.remove(0))
}

/// Batched strict comparison: for every pair `(x, y)` returns a shared
/// bit `x < y`, sharing communication rounds across the whole batch.
///
/// The masked openings of all pairs travel in one batched round trip,
/// and each level of the borrow chain runs one `mul_batch` across all
/// pairs — so the round count is `O(bits)` regardless of batch size
/// (versus `O(bits · pairs)` for sequential comparisons). This is the
/// round-parallelism real MPC frameworks exploit, and what makes the
/// tournament [`argmax_tournament`] log-depth.
///
/// # Errors
///
/// Propagates opening failures.
///
/// # Panics
///
/// Panics if `bits` exceeds [`MAX_COMPARE_BITS`].
pub fn less_than_batch(
    e: &mut MpcEngine,
    pairs: &[(&Shared, &Shared)],
    bits: usize,
) -> Result<Vec<Shared>, MpcError> {
    assert!(
        bits <= MAX_COMPARE_BITS,
        "comparison width {bits} too large"
    );
    let k = pairs.len();
    if k == 0 {
        return Ok(Vec::new());
    }
    // z = x - y + 2^bits, in (0, 2^{bits+1}).
    let offset = FGold::new(1u64 << bits);
    // Per pair: dealer random bits forming the mask R, and c = z + R,
    // summed in place.
    let mut all_r_shares: Vec<Vec<Shared>> = Vec::with_capacity(k);
    let mut masked: Vec<Shared> = Vec::with_capacity(k);
    for (x, y) in pairs {
        let mut c = e.add_const(x, offset);
        e.add_scaled(&mut c, -FGold::ONE, y);
        let (r_shares, _) = e.random_bits(MASK_BITS);
        for (i, rb) in r_shares.iter().enumerate() {
            e.add_scaled(&mut c, FGold::new(1u64 << i), rb);
        }
        masked.push(c);
        all_r_shares.push(r_shares);
    }
    let refs: Vec<&Shared> = masked.iter().collect();
    let cs: Vec<u64> = e
        .open_batch(&refs)?
        .into_iter()
        .map(|v| v.value())
        .collect();
    // Borrow-chain subtraction of R from c over the low `bits` bits:
    // borrow_{i+1} = c_i == 0 ? (r_i OR b_i) : (r_i AND b_i). The chains
    // advance in lockstep, one batched multiplication per bit level.
    let mut borrows: Vec<Shared> = vec![e.zero(); k];
    #[allow(clippy::needless_range_loop)] // The bit index drives all pairs' chains.
    for i in 0..bits {
        let mul_pairs: Vec<(&Shared, &Shared)> =
            (0..k).map(|p| (&all_r_shares[p][i], &borrows[p])).collect();
        let rbs = e.mul_batch(&mul_pairs)?;
        for (p, rb) in rbs.into_iter().enumerate() {
            if (cs[p] >> i) & 1 == 0 {
                // r OR b = r + b − rb, in place.
                e.add_scaled(&mut borrows[p], FGold::ONE, &all_r_shares[p][i]);
                e.add_scaled(&mut borrows[p], -FGold::ONE, &rb);
            } else {
                borrows[p] = rb;
            }
        }
    }
    // z_bit = c_bit XOR r_bit XOR borrow, batched: r XOR b = r + b - 2rb
    // and 1 XOR v = 1 - v. z's bit `bits` set means x >= y; we want
    // x < y = 1 XOR z_bit: r XOR b when c_bit is set, else 1 − (r XOR b).
    let xor_pairs: Vec<(&Shared, &Shared)> = (0..k)
        .map(|p| (&all_r_shares[p][bits], &borrows[p]))
        .collect();
    let prods = e.mul_batch(&xor_pairs)?;
    let mut out = Vec::with_capacity(k);
    for (p, rb) in prods.iter().enumerate() {
        let (lead, sign) = if (cs[p] >> bits) & 1 == 1 {
            (FGold::ZERO, FGold::ONE)
        } else {
            (FGold::ONE, -FGold::ONE)
        };
        let mut lt = e.constant(lead);
        e.add_scaled(&mut lt, sign, &all_r_shares[p][bits]);
        e.add_scaled(&mut lt, sign, &borrows[p]);
        e.add_scaled(&mut lt, -(sign + sign), rb);
        out.push(lt);
    }
    Ok(out)
}

/// Log-depth argmax tournament over shared values in `[0, 2^bits)`.
///
/// Pairs values level by level, batching every level's comparisons and
/// selections: `⌈log2 n⌉` levels of one [`less_than_batch`] plus one
/// `mul_batch`, with `n − 1` comparisons and `2(n − 1)` selections in
/// all. Ties keep the lower index.
///
/// Returns shared `(max, argmax)`.
///
/// # Errors
///
/// Propagates opening failures.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn argmax_tournament(
    e: &mut MpcEngine,
    xs: &[Shared],
    bits: usize,
) -> Result<(Shared, Shared), MpcError> {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut vals: Vec<Shared> = xs.to_vec();
    let mut idxs: Vec<Shared> = (0..xs.len())
        .map(|i| e.constant(FGold::new(i as u64)))
        .collect();
    while vals.len() > 1 {
        let pairs_n = vals.len() / 2;
        // Compare (left, right) of each pair in one batch.
        let cmp_pairs: Vec<(&Shared, &Shared)> = (0..pairs_n)
            .map(|p| (&vals[2 * p], &vals[2 * p + 1]))
            .collect();
        let right_wins = less_than_batch(e, &cmp_pairs, bits)?;
        // Select winners (value and index) in one batched multiplication:
        // winner = left + bit · (right − left).
        let val_diffs: Vec<Shared> = (0..pairs_n)
            .map(|p| e.sub(&vals[2 * p + 1], &vals[2 * p]))
            .collect();
        let idx_diffs: Vec<Shared> = (0..pairs_n)
            .map(|p| e.sub(&idxs[2 * p + 1], &idxs[2 * p]))
            .collect();
        let mut sel_pairs: Vec<(&Shared, &Shared)> = Vec::with_capacity(2 * pairs_n);
        for p in 0..pairs_n {
            sel_pairs.push((&right_wins[p], &val_diffs[p]));
            sel_pairs.push((&right_wins[p], &idx_diffs[p]));
        }
        let sel = e.mul_batch(&sel_pairs)?;
        // Each winner lands in its pair's left slot; an odd last value
        // sits in an even slot and rides along to the next level.
        for p in 0..pairs_n {
            e.add_scaled(&mut vals[2 * p], FGold::ONE, &sel[2 * p]);
            e.add_scaled(&mut idxs[2 * p], FGold::ONE, &sel[2 * p + 1]);
        }
        vals = vals.into_iter().step_by(2).collect();
        idxs = idxs.into_iter().step_by(2).collect();
    }
    Ok((vals.remove(0), idxs.remove(0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> MpcEngine {
        MpcEngine::new(5, 2, false, 17)
    }

    #[test]
    fn less_than_basic_cases() {
        let mut e = engine();
        for (x, y, want) in [
            (0u64, 1u64, 1u64),
            (1, 0, 0),
            (5, 5, 0),
            (100, 1000, 1),
            (1000, 100, 0),
            (0, 0, 0),
            ((1 << 20) - 1, 1 << 20, 1),
        ] {
            let sx = e.input(0, FGold::new(x)).unwrap();
            let sy = e.input(1, FGold::new(y)).unwrap();
            let lt = less_than(&mut e, &sx, &sy, 21).unwrap();
            assert_eq!(e.open(&lt).unwrap(), FGold::new(want), "{x} < {y}");
        }
    }

    #[test]
    fn less_than_exhaustive_small() {
        let mut e = engine();
        for x in 0u64..8 {
            for y in 0u64..8 {
                let sx = e.input(0, FGold::new(x)).unwrap();
                let sy = e.input(1, FGold::new(y)).unwrap();
                let lt = less_than(&mut e, &sx, &sy, 3).unwrap();
                let want = u64::from(x < y);
                assert_eq!(e.open(&lt).unwrap(), FGold::new(want), "{x} < {y}");
            }
        }
    }

    #[test]
    fn comparison_cost_scales_with_bits() {
        let mut e8 = engine();
        let mut e32 = engine();
        let (a8, b8) = (
            e8.input(0, FGold::new(1)).unwrap(),
            e8.input(0, FGold::new(2)).unwrap(),
        );
        let (a32, b32) = (
            e32.input(0, FGold::new(1)).unwrap(),
            e32.input(0, FGold::new(2)).unwrap(),
        );
        less_than(&mut e8, &a8, &b8, 8).unwrap();
        less_than(&mut e32, &a32, &b32, 32).unwrap();
        assert!(
            e32.net.metrics.rounds > e8.net.metrics.rounds + 20,
            "borrow chain must cost one round per bit: {} vs {}",
            e32.net.metrics.rounds,
            e8.net.metrics.rounds
        );
    }

    #[test]
    fn argmax_finds_maximum() {
        let mut e = engine();
        let vals = [37u64, 12, 99, 99, 4, 55];
        let shares: Vec<Shared> = vals
            .iter()
            .map(|&v| e.input(0, FGold::new(v)).unwrap())
            .collect();
        let (mx, idx) = argmax_tournament(&mut e, &shares, 8).unwrap();
        assert_eq!(e.open(&mx).unwrap(), FGold::new(99));
        // Ties keep the first occurrence (strict less-than).
        assert_eq!(e.open(&idx).unwrap(), FGold::new(2));
    }

    #[test]
    fn argmax_single_element() {
        let mut e = engine();
        let shares = vec![e.input(0, FGold::new(7)).unwrap()];
        let (mx, idx) = argmax_tournament(&mut e, &shares, 8).unwrap();
        assert_eq!(e.open(&mx).unwrap(), FGold::new(7));
        assert_eq!(e.open(&idx).unwrap(), FGold::ZERO);
    }

    #[test]
    fn batch_comparison_matches_sequential() {
        let mut e = engine();
        let data = [(3u64, 9u64), (9, 3), (5, 5), (0, 1), (1000, 999)];
        let shares: Vec<(Shared, Shared)> = data
            .iter()
            .map(|&(x, y)| {
                (
                    e.input(0, FGold::new(x)).unwrap(),
                    e.input(1, FGold::new(y)).unwrap(),
                )
            })
            .collect();
        let pairs: Vec<(&Shared, &Shared)> = shares.iter().map(|(a, b)| (a, b)).collect();
        let bits_out = less_than_batch(&mut e, &pairs, 12).unwrap();
        for (i, &(x, y)) in data.iter().enumerate() {
            assert_eq!(
                e.open(&bits_out[i]).unwrap(),
                FGold::new(u64::from(x < y)),
                "{x} < {y}"
            );
        }
    }

    #[test]
    fn batch_comparison_shares_rounds() {
        // 8 batched comparisons must cost far fewer rounds than 8
        // sequential ones.
        let mut seq = engine();
        let mut bat = engine();
        let mk = |e: &mut MpcEngine| -> Vec<(Shared, Shared)> {
            (0..8u64)
                .map(|i| {
                    (
                        e.input(0, FGold::new(i)).unwrap(),
                        e.input(1, FGold::new(7 - i)).unwrap(),
                    )
                })
                .collect()
        };
        let s_pairs = mk(&mut seq);
        let b_pairs = mk(&mut bat);
        let r0 = seq.net.metrics.rounds;
        for (x, y) in &s_pairs {
            less_than(&mut seq, x, y, 16).unwrap();
        }
        let seq_rounds = seq.net.metrics.rounds - r0;
        let r0 = bat.net.metrics.rounds;
        let refs: Vec<(&Shared, &Shared)> = b_pairs.iter().map(|(a, b)| (a, b)).collect();
        less_than_batch(&mut bat, &refs, 16).unwrap();
        let bat_rounds = bat.net.metrics.rounds - r0;
        assert!(
            bat_rounds * 4 < seq_rounds,
            "batched {bat_rounds} vs sequential {seq_rounds}"
        );
    }

    #[test]
    fn tournament_matches_sequential_argmax() {
        let mut e = engine();
        for vals in [
            vec![7u64],
            vec![3, 9],
            vec![5, 1, 8, 2],
            vec![10, 20, 30, 25, 5, 30, 1],
        ] {
            let shares: Vec<Shared> = vals
                .iter()
                .map(|&v| e.input(0, FGold::new(v)).unwrap())
                .collect();
            let (mx, idx) = argmax_tournament(&mut e, &shares, 8).unwrap();
            let want_max = *vals.iter().max().unwrap();
            assert_eq!(e.open(&mx).unwrap(), FGold::new(want_max), "{vals:?}");
            let got_idx = e.open(&idx).unwrap().value() as usize;
            assert_eq!(vals[got_idx], want_max, "{vals:?} -> idx {got_idx}");
        }
    }

    #[test]
    fn tournament_is_log_depth() {
        // 16 values, 8 bits: ⌈log2 16⌉ = 4 levels, each one comparison
        // batch (bits + 2 openings) plus one batched selection, two
        // rounds per semi-honest opening — whatever the level's width.
        let mut e = engine();
        let xs: Vec<Shared> = (0..16u64)
            .map(|v| e.input(0, FGold::new(v * 3 + 1)).unwrap())
            .collect();
        let r0 = e.net.metrics.rounds;
        argmax_tournament(&mut e, &xs, 8).unwrap();
        assert_eq!(e.net.metrics.rounds - r0, 4 * (8 + 2 + 1) * 2);
    }

    #[test]
    fn max_of_increasing_sequence() {
        let mut e = engine();
        let shares: Vec<Shared> = (0..10u64)
            .map(|v| e.input(0, FGold::new(v)).unwrap())
            .collect();
        let (mx, _) = argmax_tournament(&mut e, &shares, 8).unwrap();
        assert_eq!(e.open(&mx).unwrap(), FGold::new(9));
    }
}
