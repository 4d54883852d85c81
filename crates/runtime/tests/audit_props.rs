//! Property-based tests for the §5.3 audit parameter choice.
//!
//! `challenges_per_device(steps, n_devices, p_max)` returns the number
//! of leaves `k` each device audits so a single bad step escapes all
//! `n_devices` audits with probability at most `p_max`:
//! `(1 - k/s)^n <= p_max`. These properties pin the closed form
//! exactly. The vendored proptest harness seeds its RNG from the test
//! name, so every run draws the same cases — no CI flake surface.
//!
//! The device-side audit itself, `adversarial_audit`, is checked
//! against a per-draw oracle under honest and cheating responders, and
//! its allocations are bounded so that a per-draw copy fails.

mod common;

use arboretum_crypto::merkle::MerkleTree;
use arboretum_crypto::sha256::Digest;
use arboretum_runtime::{
    adversarial_audit, challenges_per_device, collate_detection, ChallengeRecord, DetectionKind,
    StepLog, StepResponse,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The escape probability of a fixed bad step when each of `n` devices
/// audits `k` of `s` steps — the exact expression the bound quantifies
/// over, recomputed with the same f64 operations as the implementation.
fn escape(k: usize, s: usize, n: u64) -> f64 {
    (1.0 - k as f64 / s as f64).powf(n as f64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn k_is_never_zero_and_never_exceeds_steps(s in 1usize..200, n in 1u64..10_000, e in 1u32..12) {
        let p = 10f64.powi(-(e as i32));
        let k = challenges_per_device(s, n, p);
        prop_assert!(k >= 1, "steps > 0 must force at least one challenge");
        prop_assert!(k <= s);
    }

    #[test]
    fn k_is_exactly_the_closed_form_bound(s in 1usize..200, n in 1u64..10_000, e in 1u32..12) {
        // k is the minimal challenge count meeting the target: it
        // satisfies the bound (unless even auditing every step cannot,
        // where it clamps to s), and k - 1 does not.
        let p = 10f64.powi(-(e as i32));
        let k = challenges_per_device(s, n, p);
        if k < s {
            prop_assert!(escape(k, s, n) <= p, "k={k} misses the bound for s={s} n={n} p={p}");
        }
        if k > 1 {
            prop_assert!(escape(k - 1, s, n) > p, "k={k} is not minimal for s={s} n={n} p={p}");
        }
    }

    #[test]
    fn escape_probability_is_monotone_in_k(s in 2usize..200, n in 1u64..10_000) {
        // Auditing more leaves never helps the cheater: the escape
        // probability is non-increasing in k across the whole range.
        for k in 1..s {
            prop_assert!(escape(k + 1, s, n) <= escape(k, s, n));
        }
    }

    #[test]
    fn escape_probability_is_monotone_in_n_devices(s in 1usize..200, n in 1u64..10_000, extra in 1u64..10_000, e in 1u32..12) {
        // More auditors never help the cheater, at fixed k…
        let p = 10f64.powi(-(e as i32));
        let k = challenges_per_device(s, n, p);
        prop_assert!(escape(k, s, n + extra) <= escape(k, s, n));
        // …so the required per-device k is non-increasing in n.
        prop_assert!(challenges_per_device(s, n + extra, p) <= k);
    }

    #[test]
    fn k_is_monotone_in_the_miss_target(s in 1usize..200, n in 1u64..10_000, e in 1u32..11) {
        // A stricter (smaller) p_max can only demand more challenges.
        let loose = 10f64.powi(-(e as i32));
        let strict = loose / 10.0;
        prop_assert!(challenges_per_device(s, n, strict) >= challenges_per_device(s, n, loose));
    }
}

#[test]
fn paper_scale_parameters_stay_modest() {
    // The harness deployment: 36 steps, 48 devices, p_max = 1e-9 —
    // every device audits a small constant number of leaves.
    let k = challenges_per_device(36, 48, 1e-9);
    assert!((1..36).contains(&k), "k={k}");
    // At population scale the per-device burden collapses to 1.
    assert_eq!(challenges_per_device(100, 100_000, 1e-9), 1);
}

/// The step count and draws of a `mechanism_mpc` query's audit: 50
/// auditors × 19 challenges over a 68-step log.
const STEPS: usize = 68;
const AUDITORS: usize = 50;
const K: usize = 19;

fn honest_steps() -> Vec<Vec<u8>> {
    (0..STEPS)
        .map(|i| format!("step-{i}-ok").into_bytes())
        .collect()
}

/// How the responder cheats, if it does.
#[derive(Clone, Copy, Debug)]
enum Responder {
    Honest,
    /// Serves rewritten contents for `step` with the honest proof.
    ForgedLeaf {
        step: usize,
    },
    /// Alternates the honest answer and a forged one for `step`.
    Equivocating {
        step: usize,
    },
    /// Publishes a root with one bit flipped.
    FlippedRoot,
    /// Commits a wrong result for `step` and answers from that log.
    WrongContent {
        step: usize,
    },
}

/// The published logs and root a responder answers from.
struct Published {
    log: StepLog,
    forged: StepLog,
    root: Digest,
}

impl Published {
    fn new(who: Responder, honest: &[Vec<u8>]) -> Self {
        let log = StepLog::new(honest.to_vec());
        let mut rewritten = honest.to_vec();
        let mut root = log.root();
        let log = match who {
            Responder::ForgedLeaf { step } | Responder::Equivocating { step } => {
                rewritten[step].extend_from_slice(b"-forged");
                log
            }
            Responder::WrongContent { step } => {
                rewritten[step] = b"sum:wrong".to_vec();
                let committed = StepLog::new(rewritten.clone());
                root = committed.root();
                committed
            }
            Responder::FlippedRoot => {
                root[0] ^= 0x01;
                log
            }
            Responder::Honest => log,
        };
        Self {
            log,
            forged: StepLog::new(rewritten),
            root,
        }
    }

    /// A fresh responder: its equivocation count starts at zero.
    fn responder<'a>(&'a self, who: Responder) -> impl FnMut(usize) -> StepResponse<'a> + 'a {
        let mut hits = 0usize;
        move |i| match who {
            Responder::ForgedLeaf { step } if i == step => StepResponse {
                contents: self.forged.answer(i).contents,
                proof: self.log.answer(i).proof,
            },
            Responder::Equivocating { step } if i == step => {
                hits += 1;
                if hits.is_multiple_of(2) {
                    self.forged.answer(i)
                } else {
                    self.log.answer(i)
                }
            }
            _ => self.log.answer(i),
        }
    }
}

#[test]
fn audit_records_match_a_per_draw_oracle() {
    let honest = honest_steps();
    for seed in 0..8u64 {
        // The cheated step is one the audit draws, so each cheat shows.
        let drawn = StdRng::seed_from_u64(seed).gen_range(0..STEPS);
        let responders = [
            (Responder::Honest, None),
            (
                Responder::ForgedLeaf { step: drawn },
                Some(DetectionKind::AuditForgedProof { step: drawn }),
            ),
            (
                Responder::Equivocating { step: drawn },
                Some(DetectionKind::AuditEquivocation { step: drawn }),
            ),
            (
                Responder::FlippedRoot,
                Some(DetectionKind::AuditRootMismatch),
            ),
            (
                Responder::WrongContent { step: drawn },
                Some(DetectionKind::AuditStepMismatch { step: drawn }),
            ),
        ];
        for (who, detection) in responders {
            let published = Published::new(who, &honest);
            let root = published.root;
            let records = adversarial_audit(
                STEPS,
                &root,
                AUDITORS,
                K,
                published.responder(who),
                |i| &honest[i],
                &mut StdRng::seed_from_u64(seed),
            );

            // The oracle: every draw answered, copied out and verified on
            // its own, as a device receiving bytes would.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut respond = published.responder(who);
            let mut draws: Vec<(usize, Vec<u8>, Vec<u8>, bool)> = Vec::with_capacity(AUDITORS * K);
            for _ in 0..AUDITORS * K {
                let step = rng.gen_range(0..STEPS);
                let served = respond(step);
                let (contents, proof) = (served.contents.to_vec(), served.proof.to_proof());
                let proof_ok = MerkleTree::verify(&root, &contents, &proof);
                draws.push((step, contents, honest[step].clone(), proof_ok));
            }
            let oracle: Vec<ChallengeRecord<'_>> = draws
                .iter()
                .map(|(step, contents, expected, proof_ok)| ChallengeRecord {
                    step: *step,
                    contents,
                    expected,
                    proof_ok: *proof_ok,
                })
                .collect();

            assert_eq!(records, oracle, "seed {seed}, {who:?}");
            assert_eq!(collate_detection(&records), collate_detection(&oracle));
            assert_eq!(
                collate_detection(&records),
                detection,
                "seed {seed}, {who:?}"
            );
        }
    }
}

#[test]
fn audit_allocates_far_less_than_once_per_draw() {
    let honest = honest_steps();
    let log = StepLog::new(honest.clone());
    let root = log.root();
    let (records, allocs) = common::allocs_during(|| {
        adversarial_audit(
            STEPS,
            &root,
            AUDITORS,
            K,
            |i| log.answer(i),
            |i| &honest[i],
            &mut StdRng::seed_from_u64(1),
        )
    });
    assert_eq!(records.len(), AUDITORS * K);
    assert_eq!(collate_detection(&records), None);
    // Three blocks (the first-response map, checked responses, records); a copy
    // of each draw's contents or proof makes at least 950.
    assert!(
        allocs <= 16,
        "{allocs} allocations for {} draws",
        records.len()
    );
}
