//! Noise samplers: Laplace and Gumbel in fixed point.
//!
//! The samplers follow the paper's precision discipline (§6):
//! inverse-CDF transforms evaluated in Q30.16 via the deterministic
//! `exp2`/`log2` from `arboretum-field`, so no floating-point rounding
//! enters a draw. That alone does not avoid Mironov's attack [CCS'12]:
//! a draw comes from a 16-bit uniform and a sign, so it takes at most
//! 131,070 values, spread far more thinly than the Q30.16 grid. At full
//! resolution the draws added to neighbouring counts barely overlap
//! (for sensitivity 1 at ε = 1, `δ` ≈ 0.65), so a release that shows the
//! noise's fractional bits is not differentially private. Mechanisms
//! therefore [`snap`] what they release onto the integer grid, where
//! what is left is the clipped tails of the finite sampler (`δ` ≈ 7.2e-5
//! at ε = 1). [`laplace_delta`] computes that `δ` exactly by enumerating
//! the draws. Certificates do not charge it yet: each still says δ = 0.

use std::collections::HashMap;

use arboretum_field::fixed::{Fix, SCALE};
use rand::Rng;

/// Samples a uniform fixed-point value in `(0, 1)` (never exactly 0 or 1,
/// so logarithms are defined).
pub fn uniform_open_fix<R: Rng + ?Sized>(rng: &mut R) -> Fix {
    let raw = rng.gen_range(1..SCALE);
    Fix::from_raw(raw).expect("raw < 2^16 is in range")
}

/// Samples `Laplace(0, scale)` in fixed point via the inverse CDF.
///
/// Tails beyond the Q30.16 range are clipped (the standard finite-range
/// `δ` caveat). A draw is one of 131,070 equally likely values; see
/// [`laplace_delta`] for what releasing it costs.
pub fn laplace_fix<R: Rng + ?Sized>(rng: &mut R, scale: Fix) -> Fix {
    let u = uniform_open_fix(rng);
    laplace_at(u, rng.gen::<bool>(), scale)
}

/// The Laplace draw for one outcome of the sampler's two choices: the
/// uniform `u` in `(0, 1)` and the sign. Exponential via inverse CDF,
/// then the sign.
fn laplace_at(u: Fix, positive: bool, scale: Fix) -> Fix {
    let ln_u = u.ln().expect("u > 0");
    let mag = scale.checked_mul(ln_u).unwrap_or(Fix::MIN); // ln u < 0.
    let e = -mag; // Positive exponential sample, clipped on overflow.
    if positive {
        e
    } else {
        -e
    }
}

/// A mechanism's release snapped down to the integer grid. A mechanism
/// applies it to what it releases, so public post-processing (say,
/// `r[0] * 65536.0`) cannot read the fractional bits of the noise; the
/// release format floors anyway, so a direct release is unchanged. The
/// one value the grid cannot hold, −2^30, stays at [`Fix::MIN`], whose
/// floor it is.
pub fn snap(x: Fix) -> Fix {
    Fix::from_int(x.floor()).unwrap_or(Fix::MIN)
}

/// The exact `δ(ε)` of releasing `c + laplace_fix(scale)` for an integer
/// count `c`, snapped down to multiples of `grid`, between neighbouring
/// counts `c` and `c + 1` (a sensitivity-1 shift): the least `δ` with
/// `Pr[M(c) ∈ S] ≤ e^ε · Pr[M(c′) ∈ S] + δ` for every set `S`, both
/// ways round. It enumerates all 131,070 equally likely draws, so it is
/// exact for the sampler as built, not for the real Laplace law it
/// approximates. `grid` = [`Fix::EPSILON`] is the full Q30.16
/// resolution, [`Fix::ONE`] the integer grid of [`snap`].
///
/// # Panics
///
/// Panics if `grid` is not positive.
pub fn laplace_delta(scale: Fix, eps: f64, grid: Fix) -> f64 {
    assert!(grid > Fix::ZERO, "a release grid must be positive");
    let draws: Vec<i64> = (1..SCALE)
        .flat_map(|u| {
            let u = Fix::from_raw(u).expect("raw < 2^16 is in range");
            [true, false].map(|positive| laplace_at(u, positive, scale).raw())
        })
        .collect();
    // How many draws land on each grid point when the count is `shift`.
    let released = |shift: i64| {
        let mut counts: HashMap<i64, u64> = HashMap::new();
        for &d in &draws {
            *counts
                .entry((shift + d).div_euclid(grid.raw()))
                .or_default() += 1;
        }
        counts
    };
    let (near, far) = (released(0), released(SCALE));
    // Σ_o max(0, P(o) − e^ε Q(o)): the set S of outputs where P beats
    // e^ε Q is the worst one.
    let excess = |p: &HashMap<i64, u64>, q: &HashMap<i64, u64>| {
        let total: f64 = p
            .iter()
            .map(|(o, &n)| {
                let m = q.get(o).copied().unwrap_or(0);
                (n as f64 - eps.exp() * m as f64).max(0.0)
            })
            .sum();
        total / draws.len() as f64
    };
    excess(&near, &far).max(excess(&far, &near))
}

/// Samples `Gumbel(0, scale)` in fixed point via the inverse CDF
/// `-scale · ln(-ln u)`.
pub fn gumbel_fix<R: Rng + ?Sized>(rng: &mut R, scale: Fix) -> Fix {
    let u = uniform_open_fix(rng);
    // `-ln u` is strictly positive for u in (0, 1); clamp to one ulp so
    // the outer logarithm is always defined (the right-tail truncation
    // this imposes is the standard finite-range δ caveat).
    let neg_ln_u = (-u.ln().expect("u > 0")).max(Fix::EPSILON);
    let ln_ln = neg_ln_u.ln().expect("positive by clamping");
    scale.checked_mul(-ln_ln).unwrap_or(Fix::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 20_000;

    fn stats(xs: &[f64]) -> (f64, f64) {
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        (mean, var)
    }

    #[test]
    fn laplace_fix_matches_f64_distribution() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = Fix::from_f64(2.0).unwrap();
        let xs: Vec<f64> = (0..N).map(|_| laplace_fix(&mut rng, b).to_f64()).collect();
        let (mean, var) = stats(&xs);
        assert!(mean.abs() < 0.15, "mean {mean}");
        // Var = 2b² = 8.
        assert!((var - 8.0).abs() < 1.2, "var {var}");
    }

    #[test]
    fn gumbel_fix_matches_f64_distribution() {
        let mut rng = StdRng::seed_from_u64(4);
        let b = Fix::from_f64(1.5).unwrap();
        let xs: Vec<f64> = (0..N).map(|_| gumbel_fix(&mut rng, b).to_f64()).collect();
        let (mean, var) = stats(&xs);
        // Mean = γ·b ≈ 0.5772 · 1.5 ≈ 0.866; Var = π²b²/6 ≈ 3.70.
        assert!((mean - 0.866).abs() < 0.12, "mean {mean}");
        assert!((var - 3.70).abs() < 0.7, "var {var}");
    }

    #[test]
    fn uniform_open_avoids_endpoints() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let u = uniform_open_fix(&mut rng);
            assert!(u.raw() > 0 && u.raw() < SCALE);
        }
    }

    #[test]
    fn gumbel_tail_bounded_for_every_possible_u() {
        // Regression: a wrong log constant once made u near 1 produce a
        // Fix::MAX sample. Drive the sampler through every raw u value
        // via a counting RNG and bound the output.
        struct Counting(u64);
        impl rand::RngCore for Counting {
            fn next_u32(&mut self) -> u32 {
                self.next_u64() as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.0 += 1;
                self.0
            }
            fn fill_bytes(&mut self, dest: &mut [u8]) {
                for b in dest {
                    *b = 0;
                }
            }
            fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
                self.fill_bytes(dest);
                Ok(())
            }
        }
        let scale = Fix::from_f64(2.0).unwrap();
        let mut rng = Counting(0);
        for _ in 0..70_000 {
            let g = gumbel_fix(&mut rng, scale);
            let v = g.to_f64();
            assert!(
                (-10.0..40.0).contains(&v),
                "gumbel sample {v} out of plausible range"
            );
        }
    }

    #[test]
    fn enumerated_laplace_delta_matches_the_measured_table() {
        // Sensitivity 1, so the scale is 1/ε. At full Q30.16 resolution
        // the draws of neighbouring counts barely overlap; snapped to
        // the integer grid only the clipped tails are left.
        let delta = |eps: f64, grid: Fix| {
            let scale = Fix::from_f64(1.0 / eps).unwrap();
            let d = laplace_delta(scale, eps, grid);
            // Two significant figures.
            let digits = 10f64.powi(1 - d.log10().floor() as i32);
            (d * digits).round() / digits
        };
        assert_eq!(delta(1.0, Fix::EPSILON), 0.65);
        assert_eq!(delta(0.5, Fix::EPSILON), 0.57);
        assert_eq!(delta(1.0, Fix::ONE), 7.2e-5);
        assert_eq!(delta(0.5, Fix::ONE), 8.9e-5);
    }

    #[test]
    fn snap_floors_onto_the_integer_grid() {
        let at = |raw: i64| snap(Fix::from_raw(raw).unwrap()).raw();
        assert_eq!(at(3 * SCALE + 1), 3 * SCALE);
        assert_eq!(at(3 * SCALE), 3 * SCALE);
        assert_eq!(at(-1), -SCALE);
        assert_eq!(at(-3 * SCALE - 1), -4 * SCALE);
        assert_eq!(snap(Fix::MIN), Fix::MIN);
        assert_eq!(snap(Fix::MAX).floor(), Fix::MAX.floor());
    }

    #[test]
    fn laplace_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(6);
        let b = Fix::from_f64(1.0).unwrap();
        let pos = (0..N)
            .filter(|_| laplace_fix(&mut rng, b).raw() > 0)
            .count();
        let frac = pos as f64 / N as f64;
        assert!((frac - 0.5).abs() < 0.02, "positive fraction {frac}");
    }
}
