//! Fixed-base and multi-base exponentiation fast paths.
//!
//! Sortition signs (and the aggregator verifies) one Schnorr ticket per
//! registered device per round, so at 10^5–10^6 devices every group
//! exponentiation is on the hot path. Three algorithmic replacements for
//! the naive square-and-multiply in [`crate::group::GroupElem::pow`]:
//!
//! * [`FixedBaseTable`] — a 2^8-window table for a *fixed* base
//!   (`table[j][d] = base^(d·2^(8j))`): one exponentiation becomes
//!   seven group multiplications, three deep (the eight window entries
//!   multiplied as a balanced tree), and zero squarings; an exponent
//!   below 2^8 is a lookup. The generator's
//!   table is built lazily once per process ([`base_table`]) and backs
//!   [`crate::group::GroupElem::mul_base`]; Pedersen's standard `h`
//!   has one next to it ([`crate::pedersen::PedersenParams::h_pow`]),
//!   so committing and sigma-proving never run a ladder; per-key tables
//!   ([`crate::schnorr::PreparedPublicKey`]) pay off whenever one public
//!   key verifies more than a handful of signatures.
//! * [`straus_base_mul`] — Straus/Shamir interleaved double
//!   exponentiation `g^a · y^b` sharing one squaring chain between both
//!   exponents (4-bit windows): the single-signature Schnorr verify
//!   `g^s · y^{-e} == R` costs ~60 squarings + ~30 multiplications
//!   instead of two independent ~90-operation ladders.
//! * [`multi_exp`] — multi-exponentiation `Π bases[i]^exps[i]`, the
//!   workhorse of batch Schnorr verification
//!   ([`crate::schnorr::verify_batch`]) and of the folded sigma
//!   verification in `arboretum-zkp`. Small inputs use Straus (one
//!   squaring chain shared by all the bases); from
//!   [`PIPPENGER_CUTOFF`] pairs up it switches to the Pippenger bucket
//!   method, whose per-pair cost *falls* with batch size (~6–9
//!   multiplications per pair at 10^3–10^5 pairs versus ~30 for Straus).
//!
//! Every function here computes the *same group element* as the naive
//! ladder — group multiplication is exact arithmetic mod `p` and the
//! window decompositions are exact re-associations of the product — so
//! results are bitwise equal to `pow` by construction. The proptests in
//! `tests/proptests.rs` pin that equality across random and edge
//! exponents (0, 1, q−1).

use std::sync::OnceLock;

use crate::group::{GroupElem, Scalar};

/// Window width (bits) of a [`FixedBaseTable`].
const FIXED_WINDOW_BITS: usize = 8;

/// Digits per fixed-base window (`2^FIXED_WINDOW_BITS`).
const FIXED_WINDOW_SIZE: usize = 1 << FIXED_WINDOW_BITS;

/// Number of 8-bit windows covering a 64-bit exponent.
const FIXED_WINDOWS: usize = 64 / FIXED_WINDOW_BITS;

/// Window width (bits) used by the Straus interleavings.
const STRAUS_WINDOW_BITS: usize = 4;

/// Digits per Straus window.
const STRAUS_WINDOW_SIZE: usize = 1 << STRAUS_WINDOW_BITS;

/// Number of 4-bit windows covering a 64-bit exponent.
const STRAUS_WINDOWS: usize = 64 / STRAUS_WINDOW_BITS;

/// A precomputed 2^8-window exponentiation table for one fixed base.
///
/// `table[j][d] = base^(d · 2^(8j))`, so for an exponent with byte
/// digits `d_0..d_7` (little-endian), `base^e = Π_j table[j][d_j]` —
/// seven group multiplications, no squarings. Building the table
/// costs `8 · 255` multiplications, amortized after ~25 exponentiations.
#[derive(Clone, Debug)]
pub struct FixedBaseTable {
    table: Box<[[GroupElem; FIXED_WINDOW_SIZE]; FIXED_WINDOWS]>,
}

impl FixedBaseTable {
    /// Builds the window table for `base`.
    pub fn new(base: GroupElem) -> Self {
        let mut table = Box::new([[GroupElem::IDENTITY; FIXED_WINDOW_SIZE]; FIXED_WINDOWS]);
        // window_base = base^(2^(8j)) for the current window j.
        let mut window_base = base;
        for row in table.iter_mut() {
            for d in 1..FIXED_WINDOW_SIZE {
                row[d] = row[d - 1] + window_base;
            }
            // base^(2^(8(j+1))) = (window_base)^256 = row[255] · window_base.
            window_base = row[FIXED_WINDOW_SIZE - 1] + window_base;
        }
        Self { table }
    }

    /// The base this table exponentiates (`table[0][1] = base^1`).
    pub fn base(&self) -> GroupElem {
        self.table[0][1]
    }

    /// Computes `base^e` — bitwise equal to `base.pow(e)`.
    ///
    /// The eight window entries are multiplied as a balanced tree, three
    /// multiplications deep, where a running product would be a chain of
    /// eight; multiplication mod `p` is exact and commutative, so the
    /// element is the same. An exponent of one digit (a commitment's
    /// `g^b` for a bit or a small count) is `table[0][e]` itself.
    pub fn pow(&self, e: Scalar) -> GroupElem {
        let e = e.value();
        if e < FIXED_WINDOW_SIZE as u64 {
            return self.table[0][e as usize];
        }
        let t =
            |j: usize| self.table[j][(e >> (FIXED_WINDOW_BITS * j)) as usize % FIXED_WINDOW_SIZE];
        ((t(0) + t(1)) + (t(2) + t(3))) + ((t(4) + t(5)) + (t(6) + t(7)))
    }
}

static GENERATOR_TABLE: OnceLock<FixedBaseTable> = OnceLock::new();
static GENERATOR_SMALL: OnceLock<[GroupElem; STRAUS_WINDOW_SIZE]> = OnceLock::new();

/// The process-wide fixed-base table for the group generator, built
/// lazily on first use. Backs [`GroupElem::mul_base`].
pub fn base_table() -> &'static FixedBaseTable {
    GENERATOR_TABLE.get_or_init(|| FixedBaseTable::new(GroupElem::generator()))
}

/// `[g^0, g^1, …, g^15]`: the generator's Straus window table.
fn generator_small_table() -> &'static [GroupElem; STRAUS_WINDOW_SIZE] {
    GENERATOR_SMALL.get_or_init(|| small_table(GroupElem::generator()))
}

/// `[b^0, b^1, …, b^15]` for one base.
fn small_table(base: GroupElem) -> [GroupElem; STRAUS_WINDOW_SIZE] {
    let mut t = [GroupElem::IDENTITY; STRAUS_WINDOW_SIZE];
    for d in 1..STRAUS_WINDOW_SIZE {
        t[d] = t[d - 1] + base;
    }
    t
}

/// `acc^16` by four doublings (group squarings).
#[inline]
fn square4(mut acc: GroupElem) -> GroupElem {
    for _ in 0..STRAUS_WINDOW_BITS {
        acc = acc + acc;
    }
    acc
}

/// Straus/Shamir interleaved double exponentiation `g^a · y^b`, with
/// `g` the group generator. One shared squaring chain serves both
/// exponents; bitwise equal to `GroupElem::mul_base(a) + y.pow(b)`.
pub fn straus_base_mul(a: Scalar, y: GroupElem, b: Scalar) -> GroupElem {
    let tg = generator_small_table();
    let ty = small_table(y);
    let (a, b) = (a.value(), b.value());
    let mut acc = GroupElem::IDENTITY;
    // Highest window holding a nonzero digit of either exponent; all-zero
    // exponents fall through to the identity.
    let top = match (a | b).checked_ilog2() {
        Some(bit) => bit as usize / STRAUS_WINDOW_BITS,
        None => return GroupElem::IDENTITY,
    };
    for j in (0..=top.min(STRAUS_WINDOWS - 1)).rev() {
        if j != top {
            acc = square4(acc);
        }
        let da = ((a >> (STRAUS_WINDOW_BITS * j)) & 0xf) as usize;
        if da != 0 {
            acc = acc + tg[da];
        }
        let db = ((b >> (STRAUS_WINDOW_BITS * j)) & 0xf) as usize;
        if db != 0 {
            acc = acc + ty[db];
        }
    }
    acc
}

/// Pair count from which [`multi_exp`] switches from Straus to the
/// Pippenger bucket method. Straus does fewer multiplications up to
/// ~37 pairs (`29n + 60` against `16n + 544`), but its window adds are
/// one dependent chain and the bucket sums are not: measured, the two
/// tie at 14–16 pairs (3.3 against 3.1 µs at 16) and Pippenger is ahead
/// from there — 3.3 against 4.0 µs at 20 pairs, 4.5 against 9.0 at 49
/// (a 16-wide one-hot proof), 5.1 against 11.5 at 63.
pub const PIPPENGER_CUTOFF: usize = 17;

/// Exponent bits covered by the multi-exponentiation windows (scalars
/// live mod the 62-bit group order).
const SCALAR_BITS: usize = 62;

/// Multi-exponentiation `Π bases[i]^exps[i]`.
///
/// Dispatches on size: fewer than [`PIPPENGER_CUTOFF`] pairs run Straus
/// (per-base 4-bit tables, one shared squaring chain); larger batches
/// run the Pippenger bucket method. Both compute the exact product in the group — multiplication mod `p`
/// is exact and commutative, so every evaluation order yields the same
/// element — making the result bitwise equal to the naive
/// `Π pairs[i].0.pow(pairs[i].1)` fold at any size.
pub fn multi_exp(pairs: &[(GroupElem, Scalar)]) -> GroupElem {
    if pairs.len() >= PIPPENGER_CUTOFF {
        return pippenger(pairs);
    }
    let tables: Vec<[GroupElem; STRAUS_WINDOW_SIZE]> =
        pairs.iter().map(|(base, _)| small_table(*base)).collect();
    let mut acc = GroupElem::IDENTITY;
    for j in (0..STRAUS_WINDOWS).rev() {
        if j != STRAUS_WINDOWS - 1 {
            acc = square4(acc);
        }
        for (t, (_, e)) in tables.iter().zip(pairs) {
            let d = ((e.value() >> (STRAUS_WINDOW_BITS * j)) & 0xf) as usize;
            if d != 0 {
                acc = acc + t[d];
            }
        }
    }
    acc
}

/// Pippenger bucket multi-exponentiation.
///
/// For each `c`-bit window (most significant first): bases are added
/// into the bucket of their window digit (one multiplication per pair),
/// then the buckets are folded with running suffix sums so bucket `d`
/// contributes `d·buckets[d]` at `2·2^c` multiplications total, and the
/// accumulator is shifted by `c` squarings. Window width grows with the
/// batch (`c ≈ log2 n − 2`), so per-pair cost *decreases* as batches
/// grow: `⌈62/c⌉ · (1 + 2^(c+1)/n)` multiplications plus 62 shared
/// squarings.
fn pippenger(pairs: &[(GroupElem, Scalar)]) -> GroupElem {
    let n = pairs.len();
    let c = (n.ilog2() as usize).saturating_sub(2).clamp(4, 11);
    let windows = SCALAR_BITS.div_ceil(c);
    let mask = (1u64 << c) - 1;
    let mut buckets = vec![GroupElem::IDENTITY; 1 << c];
    let mut result = GroupElem::IDENTITY;
    for w in (0..windows).rev() {
        if w != windows - 1 {
            for _ in 0..c {
                result = result + result;
            }
        }
        buckets.fill(GroupElem::IDENTITY);
        let shift = w * c;
        for (base, e) in pairs {
            let d = (e.value() >> shift) & mask;
            if d != 0 {
                buckets[d as usize] = buckets[d as usize] + *base;
            }
        }
        // Σ_d d·buckets[d] via suffix sums: acc = Σ_{k≥d} buckets[k]
        // after step d, and Σ_d acc(d) telescopes to the weighted sum.
        let mut acc = GroupElem::IDENTITY;
        let mut sum = GroupElem::IDENTITY;
        for d in (1..buckets.len()).rev() {
            acc = acc + buckets[d];
            sum = sum + acc;
        }
        result = result + sum;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{GroupElem, Scalar, GROUP_Q};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn edge_scalars() -> Vec<Scalar> {
        vec![
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::new(2),
            Scalar::new(GROUP_Q - 1),
            Scalar::new(0x0123_4567_89ab_cdef),
            Scalar::new((1 << 60) + 12345),
        ]
    }

    #[test]
    fn fixed_base_matches_pow() {
        // Against the square-and-multiply ladder, which shares nothing
        // with the table: every exponent across the lookup boundary at
        // 255/256, the edge set, and 10^4 random scalars — for the
        // generator, Pedersen's standard `h` and one more hashed base.
        let mut rng = StdRng::seed_from_u64(0xf1bed);
        let random: Vec<Scalar> = (0..10_000).map(|_| Scalar::new(rng.gen())).collect();
        for base in [
            GroupElem::generator(),
            crate::pedersen::PedersenParams::standard().h,
            GroupElem::hash_to_group(b"fixed-base-test"),
        ] {
            let t = FixedBaseTable::new(base);
            assert_eq!(t.base(), base);
            let exponents = (0..=600).map(Scalar::new);
            for e in exponents
                .chain(edge_scalars())
                .chain(random.iter().copied())
            {
                assert_eq!(t.pow(e), base.pow(e), "e = {}", e.value());
            }
        }
    }

    #[test]
    fn global_table_matches_mul_base() {
        for e in edge_scalars() {
            assert_eq!(base_table().pow(e), GroupElem::generator().pow(e));
        }
    }

    #[test]
    fn straus_matches_separate_exponentiations() {
        let g = GroupElem::generator();
        let y = GroupElem::hash_to_group(b"straus-test");
        for a in edge_scalars() {
            for b in edge_scalars() {
                assert_eq!(
                    straus_base_mul(a, y, b),
                    g.pow(a) + y.pow(b),
                    "a = {}, b = {}",
                    a.value(),
                    b.value()
                );
            }
        }
    }

    #[test]
    fn multi_exp_matches_naive_fold() {
        let bases: Vec<GroupElem> = (0..600u64)
            .map(|i| GroupElem::mul_base(Scalar::new(i * i + 3)))
            .collect();
        let pairs: Vec<(GroupElem, Scalar)> = bases
            .iter()
            .enumerate()
            .map(|(i, &b)| (b, Scalar::new((i as u64) * 7_919 + 1)))
            .collect();
        let naive = pairs
            .iter()
            .fold(GroupElem::IDENTITY, |acc, (b, e)| acc + b.pow(*e));
        // 600 pairs runs the Pippenger path.
        assert_eq!(multi_exp(&pairs), naive);
        assert_eq!(multi_exp(&[]), GroupElem::IDENTITY);
    }

    #[test]
    fn straus_and_pippenger_agree_at_the_cutoff() {
        // Batch sizes straddling PIPPENGER_CUTOFF (and both window
        // regimes inside pippenger) must all equal the naive fold.
        for n in [
            PIPPENGER_CUTOFF - 1,
            PIPPENGER_CUTOFF,
            PIPPENGER_CUTOFF + 1,
            300,
            1100,
        ] {
            let pairs: Vec<(GroupElem, Scalar)> = (0..n as u64)
                .map(|i| {
                    (
                        GroupElem::mul_base(Scalar::new(i * 31 + 5)),
                        Scalar::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % crate::group::GROUP_Q),
                    )
                })
                .collect();
            let naive = pairs
                .iter()
                .fold(GroupElem::IDENTITY, |acc, (b, e)| acc + b.pow(*e));
            assert_eq!(multi_exp(&pairs), naive, "n = {n}");
            assert_eq!(pippenger(&pairs), naive, "pippenger at n = {n}");
        }
    }
}
