//! Property-based tests for the field crate's core invariants, including
//! reference-equivalence checks: the division-free kernels (Shoup,
//! Barrett, lazy butterflies) must match the retained division-based
//! reference implementations bitwise.

use arboretum_field::fixed::Fix;
use arboretum_field::fp::Fp;
use arboretum_field::primes::{BGV_Q1, BGV_Q2, BGV_Q_ROOTS, BGV_T_PRIME, BGV_T_ROOT, GOLDILOCKS};
use arboretum_field::zq::{
    mul_mod_shoup, mul_mod_shoup_lazy, pow_mod, shoup_precompute, Barrett, RtNttTable,
};
use proptest::prelude::*;

type F = Fp<GOLDILOCKS>;

/// The division-based kernels exactly as they looked before the
/// Shoup/Barrett/lazy rewrite, retained as the equivalence oracle.
mod reference {
    pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
        ((a as u128 * b as u128) % m as u128) as u64
    }

    pub fn pow_mod(mut a: u64, mut e: u64, m: u64) -> u64 {
        let mut acc = 1u64 % m;
        a %= m;
        while e != 0 {
            if e & 1 == 1 {
                acc = mul_mod(acc, a, m);
            }
            a = mul_mod(a, a, m);
            e >>= 1;
        }
        acc
    }

    pub fn inv_mod(a: u64, m: u64) -> u64 {
        pow_mod(a, m - 2, m)
    }

    /// The pre-rewrite runtime-modulus negacyclic NTT: psi scaling as a
    /// separate pass, canonical (division-reduced) butterflies, inverse
    /// with two multiplies per element.
    pub struct RefNtt {
        modulus: u64,
        n: usize,
        psi_pow: Vec<u64>,
        psi_inv_pow: Vec<u64>,
        omega_pow: Vec<u64>,
        omega_inv_pow: Vec<u64>,
        n_inv: u64,
    }

    impl RefNtt {
        pub fn new(n: usize, modulus: u64, root: u64) -> Self {
            let log2n = n.trailing_zeros();
            let psi = pow_mod(root, (modulus - 1) >> (log2n + 1), modulus);
            let psi_inv = inv_mod(psi, modulus);
            let omega = mul_mod(psi, psi, modulus);
            let omega_inv = inv_mod(omega, modulus);
            let pows = |base: u64| -> Vec<u64> {
                let mut v = Vec::with_capacity(n);
                let mut acc = 1u64;
                for _ in 0..n {
                    v.push(acc);
                    acc = mul_mod(acc, base, modulus);
                }
                v
            };
            Self {
                modulus,
                n,
                psi_pow: pows(psi),
                psi_inv_pow: pows(psi_inv),
                omega_pow: pows(omega),
                omega_inv_pow: pows(omega_inv),
                n_inv: inv_mod(n as u64, modulus),
            }
        }

        fn core(&self, a: &mut [u64], omega_pow: &[u64]) {
            let n = self.n;
            let q = self.modulus;
            let mut j = 0usize;
            for i in 1..n {
                let mut bit = n >> 1;
                while j & bit != 0 {
                    j ^= bit;
                    bit >>= 1;
                }
                j |= bit;
                if i < j {
                    a.swap(i, j);
                }
            }
            let mut len = 2;
            while len <= n {
                let step = n / len;
                for start in (0..n).step_by(len) {
                    for k in 0..len / 2 {
                        let w = omega_pow[k * step];
                        let u = a[start + k];
                        let v = mul_mod(a[start + k + len / 2], w, q);
                        a[start + k] = (u + v) % q;
                        a[start + k + len / 2] = (u + q - v) % q;
                    }
                }
                len <<= 1;
            }
        }

        pub fn forward(&self, a: &mut [u64]) {
            for (x, &p) in a.iter_mut().zip(&self.psi_pow) {
                *x = mul_mod(*x, p, self.modulus);
            }
            self.core(a, &self.omega_pow);
        }

        pub fn inverse(&self, a: &mut [u64]) {
            self.core(a, &self.omega_inv_pow);
            for (x, &p) in a.iter_mut().zip(&self.psi_inv_pow) {
                *x = mul_mod(mul_mod(*x, p, self.modulus), self.n_inv, self.modulus);
            }
        }

        pub fn negacyclic_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
            let mut fa = a.to_vec();
            let mut fb = b.to_vec();
            self.forward(&mut fa);
            self.forward(&mut fb);
            for (x, &y) in fa.iter_mut().zip(fb.iter()) {
                *x = mul_mod(*x, y, self.modulus);
            }
            self.inverse(&mut fa);
            fa
        }
    }
}

/// `(modulus, primitive root)` pairs covering both BGV ciphertext primes
/// and the plaintext prime used by the small parameter set.
const NTT_PARAM_SETS: [(u64, u64); 3] = [
    (BGV_Q1, BGV_Q_ROOTS[0]),
    (BGV_Q2, BGV_Q_ROOTS[1]),
    (BGV_T_PRIME, BGV_T_ROOT),
];

proptest! {
    #[test]
    fn field_add_commutes(a in any::<u64>(), b in any::<u64>()) {
        let (fa, fb) = (F::new(a), F::new(b));
        prop_assert_eq!(fa + fb, fb + fa);
    }

    #[test]
    fn field_mul_distributes(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (fa, fb, fc) = (F::new(a), F::new(b), F::new(c));
        prop_assert_eq!(fa * (fb + fc), fa * fb + fa * fc);
    }

    #[test]
    fn field_sub_is_add_neg(a in any::<u64>(), b in any::<u64>()) {
        let (fa, fb) = (F::new(a), F::new(b));
        prop_assert_eq!(fa - fb, fa + (-fb));
    }

    #[test]
    fn field_inverse(a in 1..GOLDILOCKS) {
        let fa = F::new(a);
        if !fa.is_zero() {
            prop_assert_eq!(fa * fa.inv(), F::ONE);
        }
    }

    #[test]
    fn field_pow_adds_exponents(a in 1..GOLDILOCKS, e1 in 0u64..1000, e2 in 0u64..1000) {
        let fa = F::new(a);
        prop_assert_eq!(fa.pow(e1) * fa.pow(e2), fa.pow(e1 + e2));
    }

    #[test]
    fn fix_add_sub_roundtrip(a in -1_000_000_000i64..1_000_000_000, b in -1_000_000_000i64..1_000_000_000) {
        let fa = Fix::from_raw(a).unwrap();
        let fb = Fix::from_raw(b).unwrap();
        prop_assert_eq!(fa + fb - fb, fa);
    }

    #[test]
    fn fix_mul_matches_f64(a in -1000i64..1000, b in -1000i64..1000) {
        let fa = Fix::from_int(a).unwrap();
        let fb = Fix::from_int(b).unwrap();
        prop_assert_eq!((fa * fb).to_f64(), (a * b) as f64);
    }

    #[test]
    fn fix_exp2_monotone(a in -500_000i64..500_000, d in 1i64..100_000) {
        let x = Fix::from_raw(a).unwrap();
        let y = Fix::from_raw(a + d).unwrap();
        prop_assert!(x.exp2().unwrap() <= y.exp2().unwrap());
    }

    #[test]
    fn fix_log2_of_exp2(a in -400_000i64..400_000) {
        let x = Fix::from_raw(a).unwrap();
        let y = x.exp2().unwrap();
        if y.raw() > 16 {
            let back = y.log2().unwrap();
            // Quantizing y to Q16 perturbs log2(y) by about 1/(y_raw ln 2),
            // i.e. 94_548 / y_raw in raw units; allow that plus slack.
            let tol = 16 + 2 * 94_548 / y.raw();
            prop_assert!((back.raw() - a).abs() <= tol, "{} vs {}", back.raw(), a);
        }
    }
}

// ---- Reference equivalence: division-free vs division-based kernels ----

proptest! {
    #[test]
    fn barrett_matches_division_reference(a in any::<u64>(), b in any::<u64>()) {
        for &(q, _) in &NTT_PARAM_SETS {
            let bar = Barrett::new(q);
            prop_assert_eq!(bar.mul_mod(a, b), reference::mul_mod(a % q, b % q, q));
        }
        // Goldilocks exceeds 2^63: the Barrett path must still be exact.
        let bar = Barrett::new(GOLDILOCKS);
        prop_assert_eq!(
            bar.mul_mod(a, b),
            reference::mul_mod(a % GOLDILOCKS, b % GOLDILOCKS, GOLDILOCKS)
        );
    }

    #[test]
    fn barrett_reduce_matches_division_reference(z in any::<u128>()) {
        for &q in &[BGV_Q1, BGV_Q2, BGV_T_PRIME, GOLDILOCKS] {
            prop_assert_eq!(Barrett::new(q).reduce(z), (z % q as u128) as u64);
        }
    }

    #[test]
    fn pow_matches_division_reference(a in any::<u64>(), e in any::<u64>()) {
        for &(q, _) in &NTT_PARAM_SETS {
            prop_assert_eq!(pow_mod(a, e, q), reference::pow_mod(a, e, q));
        }
    }

    #[test]
    fn shoup_matches_division_reference(a in any::<u64>(), w_raw in any::<u64>()) {
        for &(q, _) in &NTT_PARAM_SETS {
            let w = w_raw % q;
            let ws = shoup_precompute(w, q);
            let lazy = mul_mod_shoup_lazy(a, w, ws, q);
            prop_assert!(lazy < 2 * q, "lazy result out of [0, 2q)");
            prop_assert_eq!(mul_mod_shoup(a, w, ws, q), reference::mul_mod(a % q, w, q));
        }
    }

    #[test]
    fn rt_ntt_matches_division_reference(raw in prop::collection::vec(any::<u64>(), 64)) {
        for &(q, root) in &NTT_PARAM_SETS {
            // The merged first and last stages coincide at n = 2 and
            // vanish at n = 1.
            for n in [1usize, 2, 4, 64] {
                let fast = RtNttTable::new(n, q, root);
                let refk = reference::RefNtt::new(n, q, root);
                // Arbitrary u64 input: `forward` owes the same answer as
                // reducing first.
                let mut got = raw[..n].to_vec();
                let input: Vec<u64> = got.iter().map(|&x| x % q).collect();
                let mut want = input.clone();
                fast.forward(&mut got);
                refk.forward(&mut want);
                prop_assert!(got.iter().all(|&x| x < q), "forward output not canonical");
                // Same evaluations, in bit-reversed order.
                let bits = n.trailing_zeros();
                for (i, &w) in want.iter().enumerate() {
                    let rev = i.reverse_bits().checked_shr(usize::BITS - bits).unwrap_or(0);
                    prop_assert_eq!(got[rev], w, "forward mismatch, q={} n={} i={}", q, n, i);
                }

                fast.inverse(&mut got);
                prop_assert!(got.iter().all(|&x| x < q), "inverse output not canonical");
                prop_assert_eq!(&got, &input, "roundtrip mismatch, q={} n={}", q, n);
            }
        }
    }

    #[test]
    fn rt_negacyclic_mul_matches_division_reference(
        a_raw in prop::collection::vec(any::<u64>(), 32),
        b_raw in prop::collection::vec(any::<u64>(), 32),
    ) {
        for &(q, root) in &NTT_PARAM_SETS {
            for n in [1usize, 2, 4, 32] {
                let fast = RtNttTable::new(n, q, root);
                let refk = reference::RefNtt::new(n, q, root);
                let a: Vec<u64> = a_raw[..n].iter().map(|&x| x % q).collect();
                let b: Vec<u64> = b_raw[..n].iter().map(|&x| x % q).collect();
                let got = fast.negacyclic_mul(&a, &b);
                prop_assert!(got.iter().all(|&x| x < q), "product not canonical");
                prop_assert_eq!(got, refk.negacyclic_mul(&a, &b), "q={} n={}", q, n);
                // Unreduced operands multiply to the same product.
                prop_assert_eq!(
                    fast.negacyclic_mul(&a_raw[..n], &b_raw[..n]),
                    refk.negacyclic_mul(&a, &b)
                );
            }
        }
    }

}

/// Deterministic boundary sweep: values pinned near `q` (and near 0)
/// exercise the conditional-subtract edges of every reduction path.
#[test]
fn boundary_values_near_q_match_reference() {
    for &(q, root) in &NTT_PARAM_SETS {
        let edge = [0u64, 1, 2, q / 2, q - 2, q - 1];
        for &w in &edge {
            let ws = shoup_precompute(w, q);
            for &a in &edge {
                assert_eq!(
                    mul_mod_shoup(a, w, ws, q),
                    reference::mul_mod(a, w, q),
                    "shoup edge q={q} a={a} w={w}"
                );
                assert_eq!(
                    Barrett::new(q).mul_mod(a, w),
                    reference::mul_mod(a, w, q),
                    "barrett edge q={q} a={a} w={w}"
                );
            }
        }
        // A vector saturated with boundary values through the full NTT.
        let n = 64;
        let fast = RtNttTable::new(n, q, root);
        let refk = reference::RefNtt::new(n, q, root);
        let input: Vec<u64> = (0..n).map(|i| edge[i % edge.len()]).collect();
        let got = fast.negacyclic_mul(&input, &input);
        assert!(got.iter().all(|&x| x < q), "boundary product not canonical");
        assert_eq!(got, refk.negacyclic_mul(&input, &input), "q={q}");
    }
}
