//! Golden digests of key, ciphertext and product bytes.
//!
//! The evaluation-form public key, the one-forward `encrypt` and the
//! merged-ψ NTT claim to emit the *same* coefficient-form bytes as the
//! code they replaced. This pins that claim: per parameter set, one
//! SHA-256 over a seeded keypair and relinearization key, 64 fresh
//! ciphertexts (seeds 0..32, a one-hot and an all-`t−1` message each), a
//! plaintext product, a relinearized ciphertext product, a decryption
//! with its noise budget, and the slot values a `SlotEncoder` round trip
//! returns — computed on the commit before the rewrite (d98799a). Any
//! change to a residue, the RNG draw order or a decrypted value changes
//! the digest. Slot-encoded *polynomials* are not absorbed: the order
//! of evaluation points is the NTT's private business, so only what
//! `decode` hands back is pinned.

use arboretum_bgv::{
    decrypt, encode_coeffs, encrypt, keygen, mul, mul_plain, noise_budget_bits, relin_keygen,
    BgvContext, BgvParams, RnsPoly, SlotEncoder,
};
use arboretum_crypto::sha256::Sha256;
use arboretum_field::primes::{BGV_Q1, BGV_Q2, BGV_Q_ROOTS, BGV_T_PRIME, BGV_T_ROOT};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn absorb(h: &mut Sha256, p: &RnsPoly) {
    for row in &p.rows {
        for c in row {
            h.update(&c.to_be_bytes());
        }
    }
}

fn absorb_values(h: &mut Sha256, values: &[u64]) {
    for v in values {
        h.update(&v.to_be_bytes());
    }
}

fn digest(n: usize, primes: usize) -> String {
    let ctx = BgvContext::new(
        BgvParams::new(
            n,
            [BGV_Q1, BGV_Q2][..primes].to_vec(),
            BGV_Q_ROOTS[..primes].to_vec(),
            BGV_T_PRIME,
            Some(BGV_T_ROOT),
        )
        .unwrap(),
    );
    let t = ctx.params.t;
    let mut h = Sha256::new();

    let mut rng = StdRng::seed_from_u64(0xb67_901d);
    let (sk, pk) = keygen(&ctx, &mut rng);
    let rlk = relin_keygen(&ctx, &sk, &mut rng);
    absorb(&mut h, pk.b());
    absorb(&mut h, pk.a());
    for c in &sk.s {
        h.update(&c.to_be_bytes());
    }
    for p in rlk.b.iter().chain(&rlk.a) {
        absorb(&mut h, p);
    }

    let full = encode_coeffs(&ctx, &vec![t - 1; n]).unwrap();
    let mut fresh = Vec::new();
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut one_hot = vec![0u64; n];
        one_hot[(seed as usize * 37) % n] = 1;
        for m in [&encode_coeffs(&ctx, &one_hot).unwrap(), &full] {
            let ct = encrypt(&ctx, &pk, m, &mut rng);
            absorb(&mut h, &ct.c0);
            absorb(&mut h, &ct.c1);
            fresh.push(ct);
        }
    }

    let scaled = mul_plain(&ctx, &fresh[0], &encode_coeffs(&ctx, &[3, 0, 5]).unwrap());
    let product = mul(&ctx, &fresh[2], &fresh[4], &rlk);
    for ct in [&scaled, &product] {
        absorb(&mut h, &ct.c0);
        absorb(&mut h, &ct.c1);
    }
    absorb_values(&mut h, &decrypt(&ctx, &sk, &fresh[1]));
    absorb_values(&mut h, &decrypt(&ctx, &sk, &scaled));
    h.update(&noise_budget_bits(&ctx, &sk, &fresh[1]).to_be_bytes());

    let enc = SlotEncoder::new(&ctx).unwrap();
    let xs: Vec<u64> = (0..n as u64).map(|i| (i * i + 1) % t).collect();
    let ys: Vec<u64> = (0..n as u64).map(|i| (7 * i + 3) % t).collect();
    let cx = encrypt(&ctx, &pk, &enc.encode(&ctx, &xs).unwrap(), &mut rng);
    let cy = encrypt(&ctx, &pk, &enc.encode(&ctx, &ys).unwrap(), &mut rng);
    let back = enc.decode(&decrypt(&ctx, &sk, &cx));
    assert_eq!(back, xs, "slot round trip");
    absorb_values(&mut h, &back);
    if primes == 2 {
        // One multiplicative level fits only under the two-prime modulus.
        let prod = enc.decode(&decrypt(&ctx, &sk, &mul(&ctx, &cx, &cy, &rlk)));
        let want: Vec<u64> = xs.iter().zip(&ys).map(|(&x, &y)| x * y % t).collect();
        assert_eq!(prod, want, "slot-wise product");
        absorb_values(&mut h, &prod);
    }

    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn bytes_match_the_pre_rewrite_digests() {
    for (n, primes, want) in [
        (
            256,
            2,
            "6167a253d185d1d44b1c9c379a9f34328af9687a22204eb0bbc820dc25b5dabf",
        ),
        (
            4096,
            2,
            "809fa8240f0d4067641007c3ef7f06ad08e6aedb5d0858fb83d22c43d9bdd619",
        ),
        (
            256,
            1,
            "2978ccedebe0f369f85cf0c4186ad46f640d5dd71f7ab27466d62c8fb99aeeef",
        ),
    ] {
        assert_eq!(digest(n, primes), want, "n = {n}, {primes} prime(s)");
    }
}
