//! Secret-shared fixed-point arithmetic (`sfix`-style) and metered ideal
//! functionalities.
//!
//! Shared fixed-point values carry the same Q30.16 scaling as
//! [`arboretum_field::Fix`], embedded into the field with sign (negative
//! values are residues near the modulus). Multiplication requires a
//! truncation protocol; we implement the standard probabilistic
//! truncation with dealer randomness (off-by-one in the last fractional
//! bit, as in MP-SPDZ).
//!
//! Noise sampling (Gumbel, Laplace) inside an MPC is hundreds of
//! multiplications in the real protocol. Following the paper's own
//! benchmark-and-extrapolate methodology, those vignettes execute here as
//! *metered ideal functionalities*: [`inject_with_cost`] secret-shares a
//! value computed in the clear by the simulation while charging the
//! calibrated protocol cost to the meter. The calibrated constants live
//! in [`FunctionalityCost`] and are validated against the concrete
//! protocols in this crate (see `benches`).

use arboretum_field::fixed::{Fix, FRAC_BITS};
use arboretum_field::FGold;

use crate::engine::{MpcEngine, MpcError, Shared};
use crate::network::FIELD_BYTES;

/// Magnitude bound (in scaled units) assumed by the truncation protocol.
const TRUNC_RANGE_BITS: usize = 45;

/// A secret-shared fixed-point value.
#[derive(Clone, Debug)]
pub struct SharedFix {
    /// The underlying field sharing of `value · 2^16`, sign-embedded.
    pub inner: Shared,
}

/// Converts a clear fixed-point value to its field embedding.
pub fn fix_to_field(v: Fix) -> FGold {
    FGold::from_i64(v.raw())
}

/// Converts an opened field element back to fixed point.
///
/// # Errors
///
/// Returns [`MpcError::OpenFailed`] if the value exceeds the fixed-point
/// range (indicating an overflow inside the MPC).
pub fn field_to_fix(v: FGold) -> Result<Fix, MpcError> {
    Fix::from_raw(v.signed_value())
        .map_err(|_| MpcError::OpenFailed("fixed-point overflow in MPC".into()))
}

/// Declared cost of an ideal functionality, charged to the meter.
#[derive(Clone, Copy, Debug)]
pub struct FunctionalityCost {
    /// Secure multiplications the real protocol would perform.
    pub mults: u64,
    /// Sequential communication rounds.
    pub rounds: u64,
}

impl FunctionalityCost {
    /// Calibrated cost of sampling one Gumbel noise value in MPC (two
    /// full-precision logarithms with SPDZ-wise verification). The round
    /// count is calibrated from the paper's §7.5 WAN experiment: the
    /// Gumbel MPC went from 73.8 s on LAN to 521.2 s across four
    /// continents, implying roughly `(521 − 74) / 0.14 s ≈ 3,000`
    /// latency-bound rounds.
    pub fn gumbel() -> Self {
        Self {
            mults: 1800,
            rounds: 2800,
        }
    }

    /// Calibrated cost of one Laplace sample (one logarithm).
    pub fn laplace() -> Self {
        Self {
            mults: 950,
            rounds: 1450,
        }
    }

    /// Calibrated cost of one exponential `2^x` evaluation.
    pub fn exp2() -> Self {
        Self {
            mults: 700,
            rounds: 1100,
        }
    }
}

#[allow(clippy::should_implement_trait)] // Share ops named add/sub/mul by convention.
impl SharedFix {
    /// Inputs a clear fixed-point value from `party`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn input(e: &mut MpcEngine, party: usize, v: Fix) -> Result<Self, MpcError> {
        Ok(Self {
            inner: e.input(party, fix_to_field(v))?,
        })
    }

    /// Opens to a clear fixed-point value.
    ///
    /// # Errors
    ///
    /// Propagates opening failures and overflow.
    pub fn open(&self, e: &mut MpcEngine) -> Result<Fix, MpcError> {
        field_to_fix(e.open(&self.inner)?)
    }

    /// Local addition.
    pub fn add(&self, e: &MpcEngine, other: &Self) -> Self {
        Self {
            inner: e.add(&self.inner, &other.inner),
        }
    }

    /// Local subtraction.
    pub fn sub(&self, e: &MpcEngine, other: &Self) -> Self {
        Self {
            inner: e.sub(&self.inner, &other.inner),
        }
    }

    /// Adds a public fixed-point constant.
    pub fn add_const(&self, e: &MpcEngine, c: Fix) -> Self {
        Self {
            inner: e.add_const(&self.inner, fix_to_field(c)),
        }
    }

    /// Multiplies by a public fixed-point constant (with truncation).
    ///
    /// # Errors
    ///
    /// Propagates opening failures.
    pub fn mul_const(&self, e: &mut MpcEngine, c: Fix) -> Result<Self, MpcError> {
        let wide = e.mul_const(&self.inner, FGold::from_i64(c.raw()));
        truncate(e, &wide)
    }

    /// Secure multiplication with probabilistic truncation.
    ///
    /// # Errors
    ///
    /// Propagates opening failures.
    pub fn mul(&self, e: &mut MpcEngine, other: &Self) -> Result<Self, MpcError> {
        let wide = e.mul(&self.inner, &other.inner)?;
        truncate(e, &wide)
    }
}

/// Probabilistic truncation by `2^16` of a (sign-embedded) shared value
/// known to have magnitude below `2^45`: [`shift_right`] by
/// [`FRAC_BITS`].
///
/// # Errors
///
/// Propagates opening failures.
fn truncate(e: &mut MpcEngine, wide: &Shared) -> Result<SharedFix, MpcError> {
    Ok(SharedFix {
        inner: shift_right(e, wide, FRAC_BITS)?,
    })
}

/// Probabilistic right-shift of a (sign-embedded) shared integer by `f`
/// bits, for values of magnitude below `2^45`.
///
/// Protocol: shift positive by adding `2^45`, mask with 62-bit dealer
/// randomness `R` (held with its high part `⌊R/2^f⌋`), open `c`, and
/// compute `⌊c/2^f⌋ − ⌊R/2^f⌋ − 2^45/2^f`. The result can be off by one
/// in the lowest retained bit (standard probabilistic truncation).
///
/// # Errors
///
/// Propagates opening failures.
///
/// # Panics
///
/// Panics if `f` is zero or at least 45.
pub fn shift_right(e: &mut MpcEngine, x: &Shared, f: u32) -> Result<Shared, MpcError> {
    assert!(
        f > 0 && (f as usize) < TRUNC_RANGE_BITS,
        "shift {f} out of range"
    );
    let f = f as usize;
    let offset = 1u64 << TRUNC_RANGE_BITS;
    // masked = x + 2^45 + R and r_top = ⌊R/2^f⌋, summed in place over
    // R's dealer bits.
    let mut masked = e.add_const(x, FGold::new(offset));
    let mut r_top = e.zero();
    let (r_shares, _) = e.random_bits(62);
    for (i, rb) in r_shares.iter().enumerate() {
        e.add_scaled(&mut masked, FGold::new(1u64 << i), rb);
        if i >= f {
            e.add_scaled(&mut r_top, FGold::new(1u64 << (i - f)), rb);
        }
    }
    let c = e.open(&masked)?.value();
    let mut out = e.constant(FGold::new(c >> f) - FGold::new(offset >> f));
    e.add_scaled(&mut out, -FGold::ONE, &r_top);
    Ok(out)
}

/// Secret-shares a value computed in the clear by the simulation while
/// charging the declared protocol cost to the meter (metered ideal
/// functionality; see the module docs).
pub fn inject_with_cost(e: &mut MpcEngine, v: Fix, cost: FunctionalityCost) -> SharedFix {
    let m = e.m as u64;
    e.net.compute(cost.mults * m);
    e.net.consume_triples(cost.mults);
    for _ in 0..cost.rounds {
        // Each protocol round moves roughly one field element per party.
        e.net.send_all(FIELD_BYTES as u64);
        e.net.round();
    }
    SharedFix {
        inner: e.dealer_share(fix_to_field(v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> MpcEngine {
        MpcEngine::new(5, 2, false, 23)
    }

    fn fx(v: f64) -> Fix {
        Fix::from_f64(v).unwrap()
    }

    #[test]
    fn field_fix_roundtrip() {
        for v in [-1234.5, 0.0, 0.25, 99_999.75] {
            let f = fx(v);
            assert_eq!(field_to_fix(fix_to_field(f)).unwrap(), f);
        }
    }

    #[test]
    fn add_sub_shared_fix() {
        let mut e = engine();
        let a = SharedFix::input(&mut e, 0, fx(1.5)).unwrap();
        let b = SharedFix::input(&mut e, 1, fx(-0.25)).unwrap();
        assert_eq!(a.add(&e, &b).open(&mut e).unwrap(), fx(1.25));
        assert_eq!(a.sub(&e, &b).open(&mut e).unwrap(), fx(1.75));
        assert_eq!(a.add_const(&e, fx(10.0)).open(&mut e).unwrap(), fx(11.5));
    }

    #[test]
    fn multiplication_truncates_correctly() {
        let mut e = engine();
        for (x, y) in [
            (1.5, 2.0),
            (-3.25, 4.0),
            (0.5, 0.5),
            (-2.0, -8.0),
            (100.0, 0.125),
        ] {
            let a = SharedFix::input(&mut e, 0, fx(x)).unwrap();
            let b = SharedFix::input(&mut e, 1, fx(y)).unwrap();
            let got = a.mul(&mut e, &b).unwrap().open(&mut e).unwrap();
            let want = fx(x * y);
            let err = (got.raw() - want.raw()).abs();
            assert!(err <= 1, "{x} * {y}: got {got}, want {want} (err {err})");
        }
    }

    #[test]
    fn mul_const_matches_clear() {
        let mut e = engine();
        let a = SharedFix::input(&mut e, 0, fx(7.5)).unwrap();
        let got = a.mul_const(&mut e, fx(-2.5)).unwrap().open(&mut e).unwrap();
        assert!((got.raw() - fx(-18.75).raw()).abs() <= 1);
    }

    #[test]
    fn injected_functionality_value_and_cost() {
        let mut e = engine();
        let before = e.net.metrics.clone();
        let v = inject_with_cost(&mut e, fx(3.75), FunctionalityCost::gumbel());
        let after = e.net.metrics.clone();
        assert_eq!(v.open(&mut e).unwrap(), fx(3.75));
        assert_eq!(after.rounds - before.rounds, 2800);
        assert_eq!(after.triples - before.triples, 1800);
        assert!(after.bytes_sent_total > before.bytes_sent_total);
    }

    #[test]
    fn shift_right_divides() {
        let mut e = engine();
        for (v, f, want) in [
            (1000i64, 1u32, 500i64),
            (999, 1, 499),
            (-1000, 2, -250),
            (12_345, 4, 771),
        ] {
            let s = e.input(0, FGold::from_i64(v)).unwrap();
            let r = shift_right(&mut e, &s, f).unwrap();
            let got = e.open(&r).unwrap().signed_value();
            assert!(
                (got - want).abs() <= 1,
                "{v} >> {f}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn functionality_costs_ordered() {
        // Gumbel (two logs) must cost more than Laplace (one log), which
        // costs more than a single exp — the ordering the planner relies
        // on when choosing em instantiations.
        let g = FunctionalityCost::gumbel();
        let l = FunctionalityCost::laplace();
        let x = FunctionalityCost::exp2();
        assert!(g.mults > l.mults && l.mults > x.mults);
        assert!(g.rounds > l.rounds && l.rounds > x.rounds);
    }
}
