//! Shamir sharing arithmetic over any [`Fp`]: polynomial evaluation at
//! the party points by forward differences, Lagrange interpolation at
//! zero, and the check that a point set can interpolate at all.
//!
//! A secret is the constant term of a degree-`t` polynomial evaluated at
//! party points `1..=m`; any `t + 1` shares reconstruct it. The MPC
//! engine shares over the Goldilocks field and VSR over the commitment
//! group's scalar field; both draw their own coefficients and keep their
//! own share types around these functions.

use crate::fp::Fp;

/// Why a set of shares cannot reconstruct a degree-`t` polynomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShamirError {
    /// Fewer shares than the threshold requires.
    NotEnoughShares {
        /// Shares provided.
        got: usize,
        /// Shares needed (`t + 1`).
        need: usize,
    },
    /// Two shares claim the same evaluation point.
    DuplicatePoint(u64),
}

impl std::fmt::Display for ShamirError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotEnoughShares { got, need } => write!(f, "got {got} shares, need {need}"),
            Self::DuplicatePoint(x) => write!(f, "duplicate share point {x}"),
        }
    }
}

impl std::error::Error for ShamirError {}

/// Evaluates the polynomial with coefficients `coeffs` (constant term
/// first, degree `t = coeffs.len() − 1`) at the party points
/// `1..=out.len()`, writing `f(x)` to `out[x − 1]`, by forward
/// differences held in `coeffs`, which it overwrites.
///
/// The differences come from the coefficients by Horner's rule
/// `p ← x·p + cⱼ` kept in the difference basis: with `dₖ = Δᵏp(1)`,
/// multiplying by `x` sends `dₖ` to `dₖ + k·(dₖ + dₖ₋₁)`, and the small
/// integers `k ≤ t` are applied by doubling and adding. After `f(1)`,
/// each point costs `t` additions; at `t = 2` a sharing is additions
/// only (`f(1) = c₀ + c₁ + c₂`, `Δf(1) = c₁ + 3c₂`, `Δ²f(1) = 2c₂`).
///
/// # Panics
///
/// Panics if `coeffs` is empty.
pub fn evaluate<const M: u64>(coeffs: &mut [Fp<M>], out: &mut [Fp<M>]) {
    let t = coeffs.len() - 1;
    // Step j: `coeffs[j]` is cⱼ and `coeffs[j + 1..]` holds the
    // differences of `p = cⱼ₊₁ + … + c_t·x^(t−j−1)`, which become those of
    // `x·p + cⱼ` in `coeffs[j..]`.
    for j in (0..t).rev() {
        let d0 = coeffs[j + 1];
        coeffs[j] += d0;
        for k in 1..t - j {
            let (lo, hi) = (coeffs[j + k], coeffs[j + k + 1]);
            coeffs[j + k] = hi + times(hi + lo, k);
        }
        coeffs[t] = times(coeffs[t], t - j);
    }
    let Some((first, rest)) = out.split_first_mut() else {
        return;
    };
    *first = coeffs[0];
    for y in rest {
        for k in 0..t {
            let next = coeffs[k + 1];
            coeffs[k] += next;
        }
        *y = coeffs[0];
    }
}

/// `k·x` for `k ≥ 1` by doubling and adding, cheaper than a field
/// multiply for the small `k ≤ t` of [`evaluate`].
fn times<const M: u64>(x: Fp<M>, k: usize) -> Fp<M> {
    let mut acc = x;
    for bit in (0..k.ilog2()).rev() {
        acc += acc;
        if k >> bit & 1 == 1 {
            acc += x;
        }
    }
    acc
}

/// Lagrange coefficients for interpolating at zero over points `xs`.
pub fn lagrange_at_zero<const M: u64>(xs: &[u64]) -> Vec<Fp<M>> {
    xs.iter()
        .map(|&xi| {
            let fxi = Fp::new(xi);
            let mut num = Fp::ONE;
            let mut den = Fp::ONE;
            for &xj in xs {
                if xj != xi {
                    let fxj = Fp::new(xj);
                    num *= -fxj;
                    den *= fxi - fxj;
                }
            }
            num * den.inv()
        })
        .collect()
}

/// Lagrange coefficients at zero over the first `t + 1` of `xs`: the
/// basis against which every value shared over those points
/// reconstructs as a `t + 1`-term dot product.
///
/// # Errors
///
/// Returns [`ShamirError`] on too few or repeated points.
pub fn basis_at_zero<const M: u64>(xs: &[u64], t: usize) -> Result<Vec<Fp<M>>, ShamirError> {
    if xs.len() < t + 1 {
        return Err(ShamirError::NotEnoughShares {
            got: xs.len(),
            need: t + 1,
        });
    }
    let xs = &xs[..t + 1];
    for (i, &x) in xs.iter().enumerate() {
        if xs[i + 1..].contains(&x) {
            return Err(ShamirError::DuplicatePoint(x));
        }
    }
    Ok(lagrange_at_zero(xs))
}
