//! BGV parameter sets.
//!
//! The paper's typical configuration (§6) is a plaintext modulus of `2^30`
//! (enough to sum one-hot bits across a billion users), a 135-bit
//! ciphertext modulus, and ring degree `2^15`. We reproduce the structure
//! with one or two 62-bit RNS primes (62 or 124 ciphertext-modulus bits)
//! and configurable degree; the defaults are sized so the test suite runs
//! in seconds while the cost model extrapolates to paper scale.

use arboretum_field::primes::{two_adicity, BGV_Q1, BGV_Q2, BGV_Q_ROOTS, BGV_T_PRIME, BGV_T_ROOT};

/// Maximum number of RNS primes supported (CRT composition uses `u128`).
pub const MAX_RNS_PRIMES: usize = 2;

/// Errors raised during parameter validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// Ring degree is not a power of two.
    DegreeNotPowerOfTwo(usize),
    /// Too many RNS primes for 128-bit CRT composition.
    TooManyPrimes(usize),
    /// A modulus lacks the 2-adicity needed for degree-`n` NTTs.
    BadTwoAdicity {
        /// The offending modulus.
        modulus: u64,
        /// The required 2-adicity.
        required: u32,
    },
    /// The plaintext modulus is not coprime to the ciphertext modulus.
    PlaintextNotCoprime,
    /// No RNS primes supplied.
    NoPrimes,
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DegreeNotPowerOfTwo(n) => write!(f, "ring degree {n} is not a power of two"),
            Self::TooManyPrimes(k) => {
                write!(f, "{k} RNS primes exceeds the supported {MAX_RNS_PRIMES}")
            }
            Self::BadTwoAdicity { modulus, required } => {
                write!(f, "modulus {modulus} lacks 2-adicity {required}")
            }
            Self::PlaintextNotCoprime => write!(f, "plaintext modulus shares a factor with q"),
            Self::NoPrimes => write!(f, "at least one RNS prime is required"),
        }
    }
}

impl std::error::Error for ParamError {}

/// A validated BGV parameter set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgvParams {
    /// Ring degree `n` (the ring is `Z_q[x]/(x^n + 1)`).
    pub n: usize,
    /// RNS primes whose product is the ciphertext modulus `q`.
    pub moduli: Vec<u64>,
    /// Primitive roots, index-matched to `moduli`.
    pub roots: Vec<u64>,
    /// Plaintext modulus `t`.
    pub t: u64,
    /// Primitive root of `t` when `t` is an NTT prime (enables slot
    /// batching); `None` for power-of-two-style moduli.
    pub t_root: Option<u64>,
    /// Bound on fresh error magnitude (centered binomial with this range).
    pub error_bound: u32,
    /// Bit width of relinearization gadget digits.
    pub relin_base_bits: u32,
}

impl BgvParams {
    /// Validates and constructs a parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] describing the first violated constraint.
    pub fn new(
        n: usize,
        moduli: Vec<u64>,
        roots: Vec<u64>,
        t: u64,
        t_root: Option<u64>,
    ) -> Result<Self, ParamError> {
        if !n.is_power_of_two() {
            return Err(ParamError::DegreeNotPowerOfTwo(n));
        }
        if moduli.is_empty() {
            return Err(ParamError::NoPrimes);
        }
        if moduli.len() > MAX_RNS_PRIMES {
            return Err(ParamError::TooManyPrimes(moduli.len()));
        }
        let required = n.trailing_zeros() + 1;
        for &q in &moduli {
            if two_adicity(q) < required {
                return Err(ParamError::BadTwoAdicity {
                    modulus: q,
                    required,
                });
            }
            if t.is_multiple_of(q) || q.is_multiple_of(t) {
                return Err(ParamError::PlaintextNotCoprime);
            }
        }
        Ok(Self {
            n,
            moduli,
            roots,
            t,
            t_root,
            error_bound: 8,
            relin_base_bits: 16,
        })
    }

    /// The aggregation preset: one-hot summation across up to `2^30`
    /// participants, additive use only (mirrors the paper's typical
    /// one-hot query parameters, scaled down in degree).
    pub fn aggregation() -> Self {
        Self::new(
            1 << 12,
            vec![BGV_Q1, BGV_Q2],
            BGV_Q_ROOTS[..2].to_vec(),
            1 << 30,
            None,
        )
        .expect("preset is valid")
    }

    /// FHE preset with multiplication support: prime plaintext modulus and
    /// two RNS primes so one multiplicative level fits comfortably.
    pub fn fhe() -> Self {
        Self::new(
            1 << 12,
            vec![BGV_Q1, BGV_Q2],
            BGV_Q_ROOTS[..2].to_vec(),
            65_537,
            Some(3),
        )
        .expect("preset is valid")
    }

    /// Batching preset: NTT-friendly prime plaintext modulus, giving `n`
    /// independent plaintext slots.
    pub fn batching() -> Self {
        Self::new(
            1 << 12,
            vec![BGV_Q1, BGV_Q2],
            BGV_Q_ROOTS[..2].to_vec(),
            BGV_T_PRIME,
            Some(BGV_T_ROOT),
        )
        .expect("preset is valid")
    }

    /// A deliberately small preset for fast unit tests.
    pub fn test_small() -> Self {
        Self::new(
            1 << 8,
            vec![BGV_Q1, BGV_Q2],
            BGV_Q_ROOTS[..2].to_vec(),
            65_537,
            Some(3),
        )
        .expect("preset is valid")
    }

    /// The ciphertext modulus `q` as a 128-bit integer.
    pub fn q(&self) -> u128 {
        self.moduli.iter().map(|&m| m as u128).product()
    }

    /// Total bits of the ciphertext modulus.
    pub fn q_bits(&self) -> u32 {
        128 - self.q().leading_zeros()
    }

    /// Serialized ciphertext size in bytes (two RNS polys of `n` u64s).
    pub fn ciphertext_bytes(&self) -> usize {
        2 * self.n * self.moduli.len() * 8
    }

    /// Number of relinearization gadget digits.
    pub fn relin_digits(&self) -> usize {
        (self.q_bits() as usize).div_ceil(self.relin_base_bits as usize)
    }

    /// Number of plaintext slots available with batching (0 if the
    /// plaintext modulus does not support it).
    pub fn slots(&self) -> usize {
        match self.t_root {
            Some(_) if two_adicity(self.t) > self.n.trailing_zeros() => self.n,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for p in [
            BgvParams::aggregation(),
            BgvParams::fhe(),
            BgvParams::batching(),
            BgvParams::test_small(),
        ] {
            assert!(p.n >= 256);
            assert!(!p.moduli.is_empty());
        }
    }

    #[test]
    fn q_is_product_of_moduli() {
        let p = BgvParams::aggregation();
        assert_eq!(p.q(), BGV_Q1 as u128 * BGV_Q2 as u128);
        assert_eq!(p.q_bits(), 124);
    }

    #[test]
    fn rejects_bad_degree() {
        let e = BgvParams::new(1000, vec![BGV_Q1], vec![3], 65_537, None);
        assert_eq!(e.unwrap_err(), ParamError::DegreeNotPowerOfTwo(1000));
    }

    #[test]
    fn rejects_too_many_primes() {
        let e = BgvParams::new(
            256,
            vec![BGV_Q1, BGV_Q2, BGV_Q1],
            vec![3, 3, 3],
            65_537,
            None,
        );
        assert_eq!(e.unwrap_err(), ParamError::TooManyPrimes(3));
    }

    #[test]
    fn rejects_low_adicity() {
        // Goldilocks' 2-adicity is 32, fine; a random prime like 1e9+7 has
        // 2-adicity 1 and must be rejected for n = 256.
        let e = BgvParams::new(256, vec![1_000_000_007], vec![5], 65_537, None);
        assert!(matches!(e.unwrap_err(), ParamError::BadTwoAdicity { .. }));
    }

    #[test]
    fn batching_slots() {
        assert_eq!(BgvParams::batching().slots(), 1 << 12);
        assert_eq!(BgvParams::aggregation().slots(), 0);
    }

    #[test]
    fn ciphertext_sizes() {
        let p = BgvParams::aggregation();
        assert_eq!(p.ciphertext_bytes(), 2 * 4096 * 2 * 8);
        assert_eq!(p.relin_digits(), 124usize.div_ceil(16));
    }
}
