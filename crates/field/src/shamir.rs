//! Shamir sharing arithmetic over any [`Fp`]: polynomial evaluation at
//! the party points, Lagrange interpolation at zero, and the check that
//! a point set can interpolate at all.
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
/// first) at the party points `1..=m` by Horner's rule, yielding
/// `(x, f(x))` in point order.
pub fn evaluate<const M: u64>(
    coeffs: &[Fp<M>],
    m: usize,
) -> impl Iterator<Item = (u64, Fp<M>)> + '_ {
    (1..=m as u64).map(|x| {
        let fx = Fp::new(x);
        let y = coeffs.iter().rev().fold(Fp::ZERO, |acc, &c| acc * fx + c);
        (x, y)
    })
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
