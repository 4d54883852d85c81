//! Noise samplers: Laplace and Gumbel in fixed point (deterministic,
//! mechanism-grade).
//!
//! The samplers follow the paper's precision discipline (§6):
//! inverse-CDF transforms evaluated in Q30.16 via the deterministic
//! `exp2`/`log2` from `arboretum-field`, avoiding the floating-point
//! side channels of naive implementations [Mironov CCS'12]. As in the
//! paper and most implementations, tail truncation to the representable
//! range adds a small `δ` to the guarantee.

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
/// `δ` caveat).
pub fn laplace_fix<R: Rng + ?Sized>(rng: &mut R, scale: Fix) -> Fix {
    // Exponential via inverse CDF, then a random sign.
    let u = uniform_open_fix(rng);
    let ln_u = u.ln().expect("u > 0");
    let mag = scale.checked_mul(ln_u).unwrap_or(Fix::MIN); // ln u < 0.
    let e = -mag; // Positive exponential sample, clipped on overflow.
    if rng.gen::<bool>() {
        e
    } else {
        -e
    }
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
