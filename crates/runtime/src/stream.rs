//! The ingestion epoch: the one implementation of the query path
//! (§5.2–§5.5), windowed so devices can arrive and churn.
//!
//! Real deployments (PAPAYA-style longitudinal services) see devices
//! arrive and drop continuously, so the pipeline — certificate →
//! per-device prove/verify/encrypt → ⊞ → VSR handoff → decrypt →
//! mechanism MPC → audit — is written once, as an epoch of ingestion
//! windows. A one-shot execution ([`crate::executor::execute`]) is the
//! same epoch with a single window holding every device.
//!
//! * an [`ArrivalSchedule`] is a *pure function of a seed* assigning
//!   every device an arrival window and an optional drop window
//!   (mirroring `testkit::AdversarySchedule`'s SHA-256 draw style), so
//!   any churn pattern replays bitwise from `(seed, n, windows)`;
//! * a [`StreamExecutor`] opens the epoch (budget charge, signed
//!   certificate, initial committee key sharing), runs one pass per
//!   upload over each window's arrivals — prove, verify, sample, encrypt
//!   and ⊞-add into the block's running sum inside one pooled map over
//!   blocks of arrivals, each device's row read in place from the
//!   deployment's shared table — and ⊞-adds each finished block's sum
//!   into the window's one accumulator, so no proof outlives its check,
//!   no row is copied and a window holds one running sum plus one block
//!   sum per worker in flight, not a ciphertext per block or per upload;
//!   the window's sum is then ⊞-added once into the checkpointed
//!   accumulator the epoch carries;
//! * committee key state crosses every window boundary — and, at close,
//!   the keygen → decryption-committee boundary — through
//!   `vsr::redistribute_share`, and each handoff is committed to the
//!   step log exactly like the aggregation step, so the device audit
//!   covers the handoff chain;
//! * at epoch close the accumulator is decrypted *once*, the mechanism
//!   vignettes run on secret shares, and the participants spot-audit
//!   the aggregator's step log.
//!
//! **Checkpoint-equivalence contract.** BGV ⊞ is exact coefficient-wise
//! modular addition — fully associative *and* commutative — and every
//! per-device random draw here (proving RNG, encryption RNG, sampling
//! decision, legacy malicious-fraction draw) is a pure function of the
//! device's global registry index, never of the window it arrived in.
//! Consequently any window partition of the same surviving-device set
//! produces a bitwise identical accumulator, and therefore bitwise
//! identical outputs, budget ledger, and audit verdict, at every thread
//! count and block width. One-window
//! ≡ batch holds by construction (they are the same code); the test
//! batteries in `crates/runtime/tests/stream_props.rs` and
//! `stream_determinism.rs` guard partition invariance.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use arboretum_bgv::scheme::add_assign;
use arboretum_bgv::{
    decrypt as bgv_decrypt, encode_coeffs, encrypt as bgv_encrypt, BgvContext, Ciphertext,
    PublicKey, RnsPoly,
};
use arboretum_crypto::group::{scalar_from_hash, GroupElem, Scalar};
use arboretum_crypto::pedersen::PedersenParams;
use arboretum_crypto::sha256::{domain_tag, seed_draw, sha256, Digest, Sha256};
use arboretum_dp::budget::BudgetLedger;
use arboretum_field::fixed::Fix;
use arboretum_mpc::engine::MpcEngine;
use arboretum_mpc::fixp::{inject_with_cost, FunctionalityCost};
use arboretum_net::wire::{message_to_vsr_batch, vsr_batch_to_message};
use arboretum_net::Message;
use arboretum_par::{par_chunks, ThreadPool};
use arboretum_planner::logical::LogicalPlan;
use arboretum_planner::plan::{PhysOp, Plan};
use arboretum_vsr::{
    combine_batches_detailed, combine_commitments, feldman_share, reconstruct as vsr_reconstruct,
    redistribute_share, verify_batch, BatchRejectReason, SubshareBatch, VShare,
};
use arboretum_zkp::onehot::{
    prove_one_hot, verify_one_hot_detailed, OneHotProof, OneHotVerifyError,
};
use arboretum_zkp::range::{prove_range, verify_range_detailed, RangeVerifyError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::adversary::{
    ciphertext_digest, forge_one_hot, Adversary, AggregatorBehavior, CommitteeBehavior, Detection,
    DetectionKind, DeviceBehavior, Subject,
};
use crate::audit::{
    adversarial_audit, challenges_per_device, collate_detection, StepLog, Steps, DROPPED_MARKER,
};
use crate::executor::{Deployment, ExecError, ExecutionConfig, ExecutionReport, QueryCert, Rows};
use crate::mpc_eval::{MVal, MechStyle, MpcEvaluator};
use crate::setup::{build_session_setup, SessionSetup, SetupCounters};

/// Arrivals per block of the per-upload pass: a block keeps one running
/// ⊞-sum and adds it into its window's accumulator when it ends, one lock
/// per block. The width changes no result (modular addition is exact),
/// only scheduling and how often a block takes that lock.
pub const DEFAULT_STREAM_CHUNK: usize = 32;

/// Checkpoint wire-format version. Version 1 carried per-pool
/// timings, so its bytes were not a function of the epoch; it is
/// refused like any other unknown version.
const CHECKPOINT_VERSION: u16 = 2;
/// Checkpoint magic bytes (`"ArbS"`).
const CHECKPOINT_MAGIC: [u8; 4] = *b"ArbS";

fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Finds the top-level aggregation statement `var = sum(<db view>)`,
/// returning the bound variable name and the index of the statement
/// *after* it.
fn find_aggregation(program: &arboretum_lang::ast::Program) -> Option<(String, usize)> {
    use arboretum_lang::ast::{Builtin, Expr, Stmt};
    let mut db_views = vec!["db".to_string()];
    for (i, stmt) in program.stmts.iter().enumerate() {
        if let Stmt::Assign(name, expr) = stmt {
            match expr {
                Expr::Call(Builtin::SampleUniform, _) => db_views.push(name.clone()),
                Expr::Call(Builtin::Sum, args) => {
                    let over_db = matches!(&args[0], Expr::Var(v) if db_views.contains(v))
                        || matches!(&args[0], Expr::Call(Builtin::SampleUniform, _));
                    if over_db {
                        return Some((name.clone(), i + 1));
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Which devices arrive and drop in which ingestion window — a pure
/// function of the seed (derivation mirrors `testkit::AdversarySchedule`),
/// or an explicit partition supplied by a test battery.
///
/// A device *contributes* exactly when it arrives in some window while
/// still alive: `drop` at or before the arrival window means the device
/// churned out before uploading and never contributes; a drop *after*
/// arrival does not retract the already-folded upload (streams cannot
/// un-aggregate). The surviving-device set is therefore a pure function
/// of the schedule, independent of window-boundary placement.
///
/// Windows are stored as `u32`, eight bytes a device, with
/// [`Self::NEVER`] for "never drops". No epoch can run `u32::MAX` windows:
/// [`StreamExecutor::open`] refuses more windows than devices, and no
/// deployment has that many. A schedule of more windows than that draws
/// its windows from the first `u32::MAX - 1`; it is only ever refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrivalSchedule {
    /// The seed everything was derived from (0 for explicit partitions).
    pub seed: u64,
    /// Deployment size the schedule covers.
    pub n_devices: usize,
    /// Number of ingestion windows in the epoch (≥ 1).
    pub n_windows: usize,
    /// Per device: the window it arrives (uploads) in.
    pub arrival: Vec<u32>,
    /// Per device: the window it drops in, or [`Self::NEVER`].
    pub drop: Vec<u32>,
}

impl ArrivalSchedule {
    /// The drop window of a device that never drops.
    pub const NEVER: u32 = u32::MAX;

    /// The one-window schedule in which every device arrives and none
    /// drops: a batch query.
    pub fn all_at_once(n_devices: usize) -> Self {
        Self {
            seed: 0,
            n_devices,
            n_windows: 1,
            arrival: vec![0; n_devices],
            drop: vec![Self::NEVER; n_devices],
        }
    }

    /// Derives a churn schedule as a pure function of
    /// `(seed, n_devices, n_windows)`: every device draws an arrival
    /// window uniformly, and with ~25% pressure draws a drop window.
    ///
    /// # Panics
    ///
    /// Panics if `n_windows` is zero.
    pub fn derive(seed: u64, n_devices: usize, n_windows: usize) -> Self {
        assert!(n_windows >= 1, "an epoch needs at least one window");
        // Below `NEVER`, so a drawn window never reads as "never drops".
        let w = (n_windows as u64).min(u64::from(Self::NEVER));
        let draw = |label: &[u8], i: u64| (seed_draw(seed, label, i) % w) as u32;
        let mut arrival = Vec::with_capacity(n_devices);
        let mut drop = Vec::with_capacity(n_devices);
        for i in 0..n_devices as u64 {
            arrival.push(draw(b"arrival", i));
            let churns = seed_draw(seed, b"drop", i) % 100 < 25;
            drop.push(if churns {
                draw(b"drop-window", i)
            } else {
                Self::NEVER
            });
        }
        Self {
            seed,
            n_devices,
            n_windows,
            arrival,
            drop,
        }
    }

    /// Builds a schedule from an explicit partition: `windows[w]` lists
    /// the device indices uploading in window `w`. Devices not listed
    /// anywhere are modeled as churned out before arriving (they never
    /// contribute).
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty or holds `u32::MAX` windows or more,
    /// a device index is out of range, or a device is listed twice.
    pub fn from_partition(windows: &[Vec<usize>], n_devices: usize) -> Self {
        assert!(!windows.is_empty(), "need at least one window");
        assert!(windows.len() < Self::NEVER as usize, "too many windows");
        let mut arrival = vec![0u32; n_devices];
        let mut drop = vec![0u32; n_devices];
        for (w, devices) in windows.iter().enumerate() {
            for &d in devices {
                assert!(d < n_devices, "device {d} out of range");
                assert!(drop[d] == 0 && arrival[d] == 0, "device {d} listed twice");
                arrival[d] = w as u32;
                drop[d] = Self::NEVER;
            }
        }
        // `arrival[d] == 0 && drop[d] == NEVER` is ambiguous for a
        // device legitimately listed in window 0 — the double-listing
        // assertion above distinguishes via the drop marker, which is
        // only cleared when the device is first listed.
        Self {
            seed: 0,
            n_devices,
            n_windows: windows.len(),
            arrival,
            drop,
        }
    }

    /// The window device `i` drops in, if it ever drops.
    pub fn drop_window(&self, i: usize) -> Option<usize> {
        (self.drop[i] != Self::NEVER).then_some(self.drop[i] as usize)
    }

    /// Whether device `i` ever contributes an upload.
    pub fn contributes(&self, i: usize) -> bool {
        self.drop[i] > self.arrival[i]
    }

    /// The devices uploading in window `w`, ascending by registry index.
    pub fn window(&self, w: usize) -> Vec<usize> {
        (0..self.n_devices)
            .filter(|&i| self.arrival[i] as usize == w && self.contributes(i))
            .collect()
    }

    /// Every contributing device, ascending by registry index —
    /// invariant to window-boundary placement.
    pub fn survivors(&self) -> Vec<usize> {
        (0..self.n_devices)
            .filter(|&i| self.contributes(i))
            .collect()
    }

    /// All windows as an explicit partition (each ascending).
    pub fn windows(&self) -> Vec<Vec<usize>> {
        (0..self.n_windows).map(|w| self.window(w)).collect()
    }

    /// Content digest binding `(seed, n, windows, arrival, drop)`;
    /// checkpoints embed it so a restore against a different schedule
    /// is a typed error instead of silent divergence. Each device's 16
    /// bytes stream into the hasher as they are written.
    pub fn digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(&self.seed.to_be_bytes());
        h.update(&(self.n_devices as u64).to_be_bytes());
        h.update(&(self.n_windows as u64).to_be_bytes());
        for (&arrival, &drop) in self.arrival.iter().zip(&self.drop) {
            let drop = if drop == Self::NEVER {
                u64::MAX
            } else {
                u64::from(drop)
            };
            h.update(&u64::from(arrival).to_be_bytes());
            h.update(&drop.to_be_bytes());
        }
        h.finalize()
    }
}

/// A detection against seat `member` of the committee seated on
/// `roster` (committee 0: the keygen/ingestion committee).
fn seat_detection(
    window: usize,
    roster: &[usize],
    member: usize,
    kind: DetectionKind,
) -> Detection {
    let subject = Subject::CommitteeMember {
        committee: 0,
        member,
        device: roster[member],
    };
    Detection {
        window,
        subject,
        kind,
    }
}

/// The public per-window record: what this window folded, the digests
/// that commit the accumulator and the key handoff, and the metering
/// deltas attributable to the window alone.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowCheckpoint {
    /// The window index.
    pub window: usize,
    /// Devices that arrived (uploaded) in this window.
    pub arrivals: usize,
    /// Uploads the per-upload pass accepted this window.
    pub accepted: usize,
    /// Uploads rejected this window.
    pub rejected: usize,
    /// Accepted uploads across all windows so far.
    pub cumulative_accepted: usize,
    /// Digest of the accumulator ciphertext after this window's fold
    /// (`None` while no upload has ever been accepted).
    pub accumulator_digest: Option<Digest>,
    /// Digest of the post-handoff committee commitments (`None` for the
    /// final window — no boundary follows it).
    pub handoff_digest: Option<Digest>,
    /// Wire bytes the handoff put on the committee links (framed VSR
    /// subshare batches + the combined-commitments broadcast).
    pub handoff_bytes: u64,
    /// Frames the handoff exchanged.
    pub handoff_frames: u64,
}

/// The result of one closed streaming epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamReport {
    /// The standard execution report — outputs, certificate, budget,
    /// metrics — bitwise comparable with a batch run over the same
    /// surviving set (see the module docs for the exact contract).
    pub report: ExecutionReport,
    /// One checkpoint per ingested window, in order.
    pub checkpoints: Vec<WindowCheckpoint>,
    /// Every detection, tagged with the window it was raised in.
    pub detections: Vec<Detection>,
}

/// The bits a range proof over a schema's span `[lo, hi]` covers: at
/// most 63 from an `i64` span. Above `zkp::MAX_RANGE_BITS` (60) no proof
/// exists: `prove_range` refuses, so uploads carry none
/// (`RangeProofMissing`), and `verify_range_detailed` answers
/// `RangeStructure` to anything presented as one.
pub(crate) fn range_bits(lo: i64, hi: i64) -> u32 {
    let span = hi.saturating_sub(lo).max(1) as u64;
    64 - span.leading_zeros()
}

/// One device's claimed values and the proof of their well-formedness.
enum Upload {
    OneHot {
        bits: Vec<u64>,
        proof: Option<OneHotProof>,
    },
    Ranges {
        vals: Vec<u64>,
        proofs: Option<Vec<arboretum_zkp::range::RangeProof>>,
    },
}

/// What the per-upload pass decided about one arrival. The proof is gone
/// by the time this exists: it lived only inside the pass. So is an
/// accepted upload's ciphertext: it was folded into its block's sum,
/// and that sum into the window's.
enum UploadOutcome {
    /// The proof failed verification, or the submitted ciphertext did
    /// not match the verified values.
    Rejected(DetectionKind),
    /// Verified, then left out by the secrecy-of-the-sample draw.
    BinnedOut,
    /// Verified, sampled in, encrypted and folded.
    Accepted,
}

/// Which accepted ciphertexts outlive their block's fold: the raw
/// material of the two aggregator cheats that rewrite the published
/// fold step. An honest epoch keeps none.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Keep {
    /// None: the honest case and every other cheat.
    None,
    /// The first accepted ciphertext of each block (`WrongPartialSum`
    /// needs the epoch's first).
    First,
    /// Every accepted ciphertext, in arrival order (`DropUpload`).
    All,
}

/// One block of arrivals after the per-upload pass: an outcome per
/// upload in arrival order and the accepted ciphertexts [`Keep`] asked
/// for. The block's ⊞-sum is already in the window's accumulator.
struct Block {
    outcomes: Vec<UploadOutcome>,
    kept: Vec<Ciphertext>,
}

/// One arrival's job: its registry index and its behavior. Its row
/// stays in the deployment's table, read in place by the pass.
type UploadJob = (usize, DeviceBehavior);

/// The per-upload pass of §5.3: a device proves its upload, the
/// aggregator verifies it, an accepted device encrypts, and the
/// aggregator ⊞-adds the ciphertext into its block's running sum — one
/// upload at a time, so no proof outlives its check and no ciphertext
/// outlives its fold. A finished block's sum goes into the window's one
/// accumulator.
///
/// It holds what every upload of a window shares and moves into the
/// pool's `'static` closure whole. Every draw it makes (proving RNG,
/// sampling decision, encryption RNG) is keyed by the device's global
/// registry index, so an outcome is byte-identical whichever window,
/// block or thread computes it; ⊞ is exact modular addition, so the
/// blocks reach the same accumulator as a serial sum in whatever order
/// they finish.
struct UploadPass {
    /// The deployment's rows, shared, not copied.
    rows: Rows,
    pp: PedersenParams,
    ctx: Arc<BgvContext>,
    pk: Arc<PublicKey>,
    one_hot: bool,
    lo: i64,
    hi: i64,
    range_bits: u32,
    /// `cfg.seed`, for the sampling draw.
    seed: u64,
    upload_seed: u64,
    encrypt_seed: u64,
    /// The certificate's sampling rate φ, if the query samples.
    sampling_rate: Option<f64>,
    keep: Keep,
    /// The window's running ⊞-sum, shared with `ingest_next`; every
    /// finished block adds its sum here.
    window_sum: Arc<Mutex<Option<Ciphertext>>>,
}

impl UploadPass {
    /// One block of arrivals, in order: each upload's whole pass, its
    /// ciphertext folded into the block's running sum as soon as it is
    /// accepted, and that sum into the window's when the block ends.
    ///
    /// # Errors
    ///
    /// The first upload's [`ExecError`], in arrival order.
    fn ingest_block(&self, jobs: &[UploadJob]) -> Result<Block, ExecError> {
        let mut block = Block {
            outcomes: Vec::with_capacity(jobs.len()),
            kept: Vec::new(),
        };
        let mut sum = None;
        for &(i, behavior) in jobs {
            let Some(ct) = self.ingest(i, behavior, &mut block.outcomes)? else {
                continue;
            };
            if self.keep == Keep::All || (self.keep == Keep::First && block.kept.is_empty()) {
                block.kept.push(ct.clone());
            }
            Self::fold(&self.ctx, &mut sum, ct);
        }
        if let Some(sum) = sum {
            // A poisoned lock means another block panicked; the pool
            // re-raises that panic before anyone reads the window's sum.
            let mut window = self
                .window_sum
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            Self::fold(&self.ctx, &mut window, sum);
        }
        Ok(block)
    }

    /// `acc ⊞= ct` in place, or `acc = ct` while `acc` holds nothing.
    fn fold(ctx: &BgvContext, acc: &mut Option<Ciphertext>, ct: Ciphertext) {
        match acc {
            Some(sum) => add_assign(ctx, sum, &ct),
            None => *acc = Some(ct),
        }
    }

    /// Device `i`'s whole upload: prove, verify, sample, encrypt. The
    /// upload's outcome goes to `outcomes`, and an accepted one also
    /// returns its ciphertext.
    ///
    /// # Errors
    ///
    /// [`ExecError::Unsupported`] if an accepted upload's values do not
    /// encode as a plaintext.
    fn ingest(
        &self,
        i: usize,
        behavior: DeviceBehavior,
        outcomes: &mut Vec<UploadOutcome>,
    ) -> Result<Option<Ciphertext>, ExecError> {
        let upload = self.prove(i, behavior);
        if let Some(kind) = self.verify(&upload) {
            outcomes.push(UploadOutcome::Rejected(kind));
            return Ok(None);
        }
        if let Some(phi) = self.sampling_rate {
            // 53 uniform bits → [0, 1), so φ = 1 keeps every device.
            let r = seed_draw(self.seed, b"stream-sample", i as u64) >> 11;
            if r as f64 / (1u64 << 53) as f64 >= phi {
                outcomes.push(UploadOutcome::BinnedOut);
                return Ok(None);
            }
        }
        let vals = match upload {
            Upload::OneHot { bits, .. } => bits,
            Upload::Ranges { vals, .. } => vals,
        };
        let ct = self.encrypt(i, &vals, behavior)?;
        outcomes.push(match ct {
            Some(_) => UploadOutcome::Accepted,
            None => UploadOutcome::Rejected(DetectionKind::CiphertextMismatch),
        });
        Ok(ct)
    }

    /// The device builds its upload: the claimed values plus a proof of
    /// well-formedness, from a proving RNG seeded by its global index.
    /// Its row is read in place from the deployment's table.
    fn prove(&self, i: usize, behavior: DeviceBehavior) -> Upload {
        let row = &self.rows[i];
        let pp = &self.pp;
        let mut dev_rng = StdRng::seed_from_u64(self.upload_seed ^ mix(i as u64));
        if !self.one_hot {
            // Numerical inputs: per-field range proofs (§5.3's
            // "1,000 years old" defense).
            let effective_row: Cow<[i64]> = if behavior == DeviceBehavior::OutOfRangeValue {
                Cow::Owned(row.iter().map(|&v| v + (self.hi - self.lo + 1)).collect())
            } else {
                Cow::Borrowed(row)
            };
            let mut proofs: Option<Vec<_>> = effective_row
                .iter()
                .map(|&v| {
                    let shifted = v.checked_sub(self.lo).filter(|&s| s >= 0)? as u64;
                    prove_range(pp, shifted, self.range_bits, &mut dev_rng)
                        .ok()
                        .map(|(p, _)| p)
                })
                .collect();
            match behavior {
                DeviceBehavior::TamperSigmaProof => {
                    if let Some(bp) = proofs
                        .as_mut()
                        .and_then(|ps| ps.first_mut())
                        .and_then(|p| p.bit_proofs.first_mut())
                    {
                        bp.z0 += Scalar::ONE;
                    }
                }
                DeviceBehavior::MalformedOneHot | DeviceBehavior::TruncatedProof => {
                    if let Some(ps) = proofs.as_mut() {
                        ps.pop();
                    }
                }
                _ => {}
            }
            let vals: Vec<u64> = effective_row.iter().map(|&v| v as u64).collect();
            return Upload::Ranges { vals, proofs };
        }
        let bits: Vec<u64> = row.iter().map(|&v| v as u64).collect();
        // The device's row with the first coordinate equal to `from`
        // claimed as `to` instead.
        let claim = |from: u64, to: u64| {
            let mut bad = bits.clone();
            if let Some(slot) = bad.iter_mut().find(|b| **b == from) {
                *slot = to;
            }
            bad
        };
        match behavior {
            DeviceBehavior::TruncatedProof => {
                // Malformed input: claims two categories at once.
                let bad = claim(0, 1);
                // A malicious client cannot produce a valid proof for a
                // non-one-hot vector; it sends a proof for different
                // data, tampered so verification fails.
                let p = prove_one_hot(pp, &bits, &mut dev_rng).ok();
                Upload::OneHot {
                    bits: bad,
                    proof: p.map(|mut p| {
                        p.bit_proofs.pop();
                        p
                    }),
                }
            }
            DeviceBehavior::TamperSigmaProof => {
                let p = prove_one_hot(pp, &bits, &mut dev_rng).ok().map(|mut p| {
                    if let Some(bp) = p.bit_proofs.first_mut() {
                        bp.z0 += Scalar::ONE;
                    }
                    p
                });
                Upload::OneHot { bits, proof: p }
            }
            DeviceBehavior::MalformedOneHot => {
                // Claims two categories with a best-effort forged proof:
                // every coordinate is still a bit, so the first failure
                // is the coordinate-sum proof.
                let bad = claim(0, 1);
                let proof = forge_one_hot(pp, &bad, &mut dev_rng);
                Upload::OneHot {
                    bits: bad,
                    proof: Some(proof),
                }
            }
            DeviceBehavior::OutOfRangeValue => {
                // Claims a coordinate of 2; the forged bit proof at the
                // hot coordinate cannot verify.
                let bad = claim(1, 2);
                let proof = forge_one_hot(pp, &bad, &mut dev_rng);
                Upload::OneHot {
                    bits: bad,
                    proof: Some(proof),
                }
            }
            DeviceBehavior::Honest | DeviceBehavior::WrongBgvCiphertext => {
                let p = prove_one_hot(pp, &bits, &mut dev_rng).ok();
                Upload::OneHot { bits, proof: p }
            }
        }
    }

    /// The aggregator checks the upload's proof: `None` accepts, `Some`
    /// names the typed reason to reject. Verification draws no
    /// randomness.
    fn verify(&self, upload: &Upload) -> Option<DetectionKind> {
        let pp = &self.pp;
        match upload {
            Upload::OneHot { proof, .. } => match proof {
                None => Some(DetectionKind::OneHotStructure),
                Some(p) => match verify_one_hot_detailed(pp, p) {
                    Ok(()) => None,
                    Err(OneHotVerifyError::Structure) => Some(DetectionKind::OneHotStructure),
                    Err(OneHotVerifyError::BitProof(index)) => {
                        Some(DetectionKind::OneHotBitProof { index })
                    }
                    Err(OneHotVerifyError::SumProof) => Some(DetectionKind::OneHotSumProof),
                },
            },
            Upload::Ranges { vals, proofs } => {
                match proofs {
                    None => Some(DetectionKind::RangeProofMissing),
                    Some(ps) if ps.len() != vals.len() => Some(DetectionKind::RangeStructure),
                    Some(ps) => ps.iter().enumerate().find_map(|(field, p)| {
                        match verify_range_detailed(pp, p, self.range_bits) {
                            Ok(()) => None,
                            Err(RangeVerifyError::Structure) => Some(DetectionKind::RangeStructure),
                            Err(RangeVerifyError::Binding) => {
                                Some(DetectionKind::RangeBinding { field })
                            }
                            Err(RangeVerifyError::BitProof(index)) => {
                                Some(DetectionKind::RangeBitProof { field, index })
                            }
                        }
                    }),
                }
            }
        }
    }

    /// The device encrypts its verified values from an encryption RNG
    /// seeded by its global index, and the aggregator cross-checks what
    /// it submitted: `None` when the submitted ciphertext does not match.
    fn encrypt(
        &self,
        i: usize,
        vals: &[u64],
        behavior: DeviceBehavior,
    ) -> Result<Option<Ciphertext>, ExecError> {
        let ctx = &self.ctx;
        let encode =
            |v: &[u64]| encode_coeffs(ctx, v).map_err(|e| ExecError::Unsupported(e.to_string()));
        let mut enc_rng = StdRng::seed_from_u64(self.encrypt_seed ^ mix(i as u64));
        let ct = bgv_encrypt(ctx, &self.pk, &encode(vals)?, &mut enc_rng);
        if behavior == DeviceBehavior::WrongBgvCiphertext {
            // The validated upload binds the device to `vals`; this
            // device instead submits a ciphertext of different data. The
            // aggregator cross-checks the digest of the submitted
            // ciphertext against the one recomputed from the upload.
            let mut wrong = vals.to_vec();
            wrong[0] = wrong[0].wrapping_add(1);
            let submitted = bgv_encrypt(ctx, &self.pk, &encode(&wrong)?, &mut enc_rng);
            if ciphertext_digest(&submitted) != ciphertext_digest(&ct) {
                return Ok(None);
            }
        }
        Ok(Some(ct))
    }
}

/// One ingestion epoch: the query path of §5.2–§5.5.
///
/// Open it with [`Self::open`], drive it window by window with
/// [`Self::ingest_next`], snapshot the resumable state any time with
/// [`Self::checkpoint_bytes`], and close the epoch once with
/// [`Self::close`]. [`execute_stream`] drives an entire schedule in one
/// call.
///
/// What an adversarial run accumulates (detections, the accepted-step
/// index, the aggregator's cheat material) lives in the driving process
/// only: it is not serialized into checkpoints.
pub struct StreamExecutor<'a> {
    plan: &'a Plan,
    logical: &'a LogicalPlan,
    deployment: &'a Deployment,
    cfg: &'a ExecutionConfig,
    schedule: &'a ArrivalSchedule,
    /// Borrowed from a session catalog, or built inline at open (and
    /// then charged to this epoch's report).
    setup: Cow<'a, SessionSetup>,
    /// The setup's public key, copied once per epoch so each window's
    /// per-upload pass shares it through an `Arc`.
    pk: Arc<PublicKey>,
    /// Runs the per-upload pass: leased from the caller's pool bank,
    /// else the process-cached pool for `cfg.par`.
    pool: Arc<ThreadPool>,
    adversary: Option<&'a dyn Adversary>,
    /// The legacy malicious-fraction draw per device, consulted only
    /// when no adversary is supplied.
    malicious: Vec<bool>,

    next_window: usize,
    acc: Option<Ciphertext>,
    accepted_count: usize,
    rejected_count: usize,
    verify_ops: u64,
    aggregate_ops: u64,
    /// The step log so far, one arena with room for the whole epoch
    /// reserved at open.
    step_results: Steps,
    shares: Vec<VShare>,
    commitments: Vec<GroupElem>,
    key_secret: Scalar,
    cert: QueryCert,
    detections: Vec<Detection>,
    checkpoints: Vec<WindowCheckpoint>,

    /// Consulted once, before the first window's per-upload pass (see
    /// [`Adversary::aggregator_behavior`]).
    agg_behavior: Option<AggregatorBehavior>,
    /// Step-log indices of accepted input steps, in acceptance order.
    /// The aggregator behaviors target these (drop a victim, reorder a
    /// pair).
    ok_steps: Vec<usize>,
    /// Accepted ciphertexts a cheating aggregator needs after the ⊞
    /// kernels consumed them: the first one (`WrongPartialSum`) or all
    /// of them, aligned with `ok_steps` (`DropUpload`).
    cheat_cts: Vec<Ciphertext>,
}

impl<'a> StreamExecutor<'a> {
    /// Opens an epoch: builds the session setup inline unless a cached
    /// one is supplied, charges the budget once, builds and signs the
    /// query certificate, and deals the committee's initial Feldman key
    /// sharing from a derived pure RNG stream.
    ///
    /// # Errors
    ///
    /// [`ExecError::BudgetExhausted`] if the certificate cost
    /// does not fit the remaining budget, and
    /// [`ExecError::Unsupported`] for committee-size or schedule-size
    /// mismatches, and for more windows than devices (a window every
    /// device could leave empty; the epoch would walk them all).
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        plan: &'a Plan,
        logical: &'a LogicalPlan,
        deployment: &'a Deployment,
        cfg: &'a ExecutionConfig,
        schedule: &'a ArrivalSchedule,
        setup: Option<&'a SessionSetup>,
        pool: Option<&Arc<ThreadPool>>,
        adversary: Option<&'a dyn Adversary>,
    ) -> Result<Self, ExecError> {
        let m = cfg.committee_size;
        let n = deployment.db.len();
        if schedule.n_devices != n {
            return Err(ExecError::Unsupported(format!(
                "schedule covers {} devices, deployment has {n}",
                schedule.n_devices
            )));
        }
        if schedule.n_windows > n {
            return Err(ExecError::Unsupported(format!(
                "{} windows exceed the deployment's {n} devices",
                schedule.n_windows
            )));
        }
        let contributors = (0..n).filter(|&i| schedule.contributes(i)).count();
        let (log_steps, log_bytes) = log_capacity(
            n,
            contributors,
            schedule.n_windows,
            deployment.schema.row_width,
            logical.certificate.sampling_rate.is_some(),
        );
        if log_bytes > u32::MAX as usize {
            return Err(ExecError::Unsupported(format!(
                "the step log of {n} devices would pass 4 GiB"
            )));
        }
        // ---- Setup (§5.1–§5.2): cached in a session catalog, or built
        // inline (sortition, BGV keygen from the `cfg.seed` stream,
        // keygen-MPC metering). ----
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let setup = match setup {
            Some(s) if s.committee_size != m => {
                return Err(ExecError::Unsupported(format!(
                    "session setup seated committees of {}, config wants {m}",
                    s.committee_size
                )));
            }
            Some(s) => Cow::Borrowed(s),
            None => Cow::Owned(build_session_setup(deployment, m, cfg.seed, &mut rng)?),
        };
        // The malformed-upload draws continue the `cfg.seed` stream as
        // one pre-pass over every device before any window, so which
        // devices misbehave never depends on the window partition.
        let malicious: Vec<bool> = (0..n)
            .map(|_| rng.gen::<f64>() < cfg.malicious_fraction)
            .collect();

        // Budget check before authorizing (§5.2).
        let t = (m - 1) / 2;
        let mut ledger = BudgetLedger::new(cfg.budget);
        ledger
            .charge(logical.certificate.cost)
            .map_err(|_| ExecError::BudgetExhausted)?;

        // Certificate: pk digest, registry root, budget, next beacon,
        // signed by every keygen-committee member (deterministic
        // Schnorr — no RNG is consumed).
        let roster = &setup.committees.committees[0];
        let contributions: Vec<Digest> = roster
            .iter()
            .map(|&d| sha256(&(d as u64).to_be_bytes()))
            .collect();
        let next_beacon =
            arboretum_sortition::select::next_block(&contributions, &deployment.registry.root());
        let mut cert = QueryCert {
            pk_digest: setup.pk_digest,
            registry_root: deployment.registry.root(),
            budget_after: ledger.remaining(),
            next_beacon,
            signatures: Vec::new(),
        };
        let body = cert.body();
        // A stale body a misbehaving member might sign instead: same
        // certificate, but carrying the *previous* beacon forward.
        let stale_body = QueryCert {
            next_beacon: deployment.beacon,
            ..cert.clone()
        }
        .body();
        cert.signatures = roster
            .iter()
            .enumerate()
            .map(|(j, &d)| {
                let signed = match adversary {
                    Some(adv)
                        if adv.committee_behavior(0, j) == CommitteeBehavior::StaleSignature =>
                    {
                        &stale_body
                    }
                    _ => &body,
                };
                (d, deployment.registry.device(d).keypair().sign(signed))
            })
            .collect();
        let mut detections = Vec::new();
        if adversary.is_some() {
            // The rest of the committee cross-checks the signatures
            // before publishing: bad signers are flagged and their
            // signatures dropped, so the published certificate still
            // verifies under the honest majority.
            let bad = cert.verify_detailed(&deployment.registry);
            detections.extend(
                bad.iter()
                    .map(|&pos| seat_detection(0, roster, pos, DetectionKind::StaleSignature)),
            );
            cert.signatures = cert
                .signatures
                .iter()
                .enumerate()
                .filter(|(pos, _)| !bad.contains(pos))
                .map(|(_, s)| *s)
                .collect();
        }

        // Initial committee key sharing from a derived pure stream, so
        // the handoff chain is independent of everything else.
        let key_secret = scalar_from_hash(&sha256(
            &setup.sk.s.iter().map(|&c| c as u8).collect::<Vec<u8>>(),
        ));
        let mut share_rng = StdRng::seed_from_u64(cfg.seed ^ domain_tag(b"stream-keyshare"));
        let sharing = feldman_share(key_secret, t, m, &mut share_rng);

        Ok(Self {
            plan,
            logical,
            deployment,
            cfg,
            schedule,
            pk: Arc::new(setup.pk.clone()),
            setup,
            pool: pool.map_or_else(|| cfg.par.pool(), Arc::clone),
            adversary,
            malicious,
            next_window: 0,
            acc: None,
            accepted_count: 0,
            rejected_count: 0,
            verify_ops: 0,
            aggregate_ops: 0,
            step_results: Steps::with_capacity(log_steps, log_bytes),
            shares: sharing.shares,
            commitments: sharing.commitments,
            key_secret,
            cert,
            detections,
            checkpoints: Vec::new(),
            agg_behavior: None,
            ok_steps: Vec::with_capacity(contributors),
            cheat_cts: Vec::new(),
        })
    }

    /// The window the executor will ingest next.
    pub fn next_window(&self) -> usize {
        self.next_window
    }

    /// Ingests the next window: runs the per-upload pass over this
    /// window's arrivals, ⊞-adds the window's sum into the carried
    /// accumulator, and (unless this was the final window) runs the VSR
    /// key handoff to the next window's committee, logging it as an
    /// audited step.
    ///
    /// # Errors
    ///
    /// [`ExecError::EpochClosed`] once every window was ingested,
    /// [`ExecError::Unsupported`] if an accepted upload does not encode
    /// as a plaintext (the window then leaves the executor untouched),
    /// and other [`ExecError`]s for protocol failures (e.g. a handoff
    /// left fewer than t+1 valid batches).
    pub fn ingest_next(&mut self) -> Result<&WindowCheckpoint, ExecError> {
        let w = self.next_window;
        if w >= self.schedule.n_windows {
            return Err(ExecError::EpochClosed);
        }
        let adversary = self.adversary;
        let arrivals = self.schedule.window(w);
        let ctx = Arc::clone(&self.setup.ctx);

        // ---- The per-upload pass (parallel, pure per device): each
        // arrival proves, is verified, takes the sampling draw (§6's
        // secrecy of the sample), encrypts and is ⊞-added into its
        // block's running sum, inside one closure per block of
        // `DEFAULT_STREAM_CHUNK` arrivals, and each finished block adds
        // its sum into the window's, so a window holds its own sum and
        // at most one proof and one block sum per worker besides.
        // Behaviors are resolved serially up front (an adversary
        // overrides the legacy malicious-fraction draw, which maps to
        // the same two behaviors the executor always simulated), so the
        // closure stays a pure function of its jobs. ----
        let schema = &self.deployment.schema;
        let jobs: Vec<UploadJob> = arrivals
            .iter()
            .map(|&i| {
                let behavior = match adversary {
                    Some(adv) => adv.device_behavior(w, i),
                    None if self.malicious[i] => {
                        if schema.one_hot {
                            DeviceBehavior::TruncatedProof
                        } else {
                            DeviceBehavior::OutOfRangeValue
                        }
                    }
                    None => DeviceBehavior::Honest,
                };
                (i, behavior)
            })
            .collect();
        // The aggregator hook is consulted exactly once, after the
        // window's device behaviors and before its first ⊞, and decides
        // which ciphertexts the pass keeps past their fold.
        let agg_behavior = *self.agg_behavior.get_or_insert_with(|| {
            adversary.map_or(AggregatorBehavior::Honest, |a| a.aggregator_behavior())
        });
        let keep = match agg_behavior {
            AggregatorBehavior::WrongPartialSum if self.cheat_cts.is_empty() => Keep::First,
            AggregatorBehavior::DropUpload { .. } => Keep::All,
            _ => Keep::None,
        };
        let window_sum = Arc::new(Mutex::new(None));
        let pass = UploadPass {
            rows: Rows::clone(&self.deployment.db),
            pp: PedersenParams::standard(),
            ctx: Arc::clone(&ctx),
            pk: Arc::clone(&self.pk),
            one_hot: schema.one_hot,
            lo: schema.lo,
            hi: schema.hi,
            range_bits: range_bits(schema.lo, schema.hi),
            seed: self.cfg.seed,
            upload_seed: self.cfg.seed ^ domain_tag(b"phase-a-uploads"),
            encrypt_seed: self.cfg.seed ^ domain_tag(b"stream-encrypt"),
            sampling_rate: self.logical.certificate.sampling_rate,
            keep,
            window_sum: Arc::clone(&window_sum),
        };
        let results = par_chunks(&self.pool, jobs, DEFAULT_STREAM_CHUNK, move |_, jobs| {
            pass.ingest_block(jobs)
        });
        // A window whose encoding fails errors here, before it touches
        // any executor state; its partial sum is dropped with it.
        let blocks: Vec<Block> = results.into_iter().collect::<Result<_, _>>()?;

        // ---- Bookkeeping (serial, in arrival order). ----
        self.verify_ops += arrivals.len() as u64;
        let mut window_accepted = 0usize;
        let mut window_rejected = 0usize;
        for (ids, block) in arrivals.chunks(DEFAULT_STREAM_CHUNK).zip(blocks) {
            if keep == Keep::All || self.cheat_cts.is_empty() {
                self.cheat_cts.extend(block.kept);
            }
            for (&i, outcome) in ids.iter().zip(block.outcomes) {
                match outcome {
                    UploadOutcome::Rejected(kind) => {
                        window_rejected += 1;
                        self.detections.push(Detection {
                            window: w,
                            subject: Subject::Device(i),
                            kind,
                        });
                    }
                    UploadOutcome::BinnedOut => self.step_results.push_input(i, BINNED_OUT),
                    UploadOutcome::Accepted => {
                        window_accepted += 1;
                        self.ok_steps.push(self.step_results.len());
                        self.step_results.push_input(i, ACCEPTED);
                    }
                }
            }
        }
        self.accepted_count += window_accepted;
        self.rejected_count += window_rejected;

        // ---- Add the window's sum into the carried accumulator, once.
        // BGV ⊞ is exact row-wise modular addition, so the accumulator
        // is bitwise a serial fold of every accepted ciphertext, in
        // whatever order the blocks finished and at every thread count;
        // counted as that serial fold's ⊞ calls, which is also how many
        // the blocks, the window's sum and this add make. ----
        let adds = (window_accepted + usize::from(self.acc.is_some())).saturating_sub(1) as u64;
        let window_sum = window_sum
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(sum) = window_sum {
            UploadPass::fold(&ctx, &mut self.acc, sum);
        }
        self.aggregate_ops += adds;
        // The fold step commits its label *and* the accumulator's
        // digest, so a wrong partial sum is observable evidence in the
        // step log rather than an invisible lie.
        let acc_digest = self.acc.as_ref().map(ciphertext_digest);
        let fold_step = match &acc_digest {
            Some(d) => {
                let mut s = fold_label(w);
                s.extend_from_slice(d);
                s
            }
            None => format!("window-{w}-empty").into_bytes(),
        };
        self.step_results.push(&fold_step);

        // ---- VSR handoff to the next window's committee (audited). ----
        let (handoff_digest, handoff_bytes, handoff_frames) = if w + 1 < self.schedule.n_windows {
            let (d, b, f) = self.handoff(w, |j| match adversary {
                Some(a) if a.handoff_crash(w, j) => None,
                Some(a) => Some(a.handoff_behavior(w, j)),
                None => Some(CommitteeBehavior::Honest),
            })?;
            (Some(d), b, f)
        } else {
            (None, 0, 0)
        };

        let checkpoint = WindowCheckpoint {
            window: w,
            arrivals: arrivals.len(),
            accepted: window_accepted,
            rejected: window_rejected,
            cumulative_accepted: self.accepted_count,
            accumulator_digest: acc_digest,
            handoff_digest,
            handoff_bytes,
            handoff_frames,
        };
        let idx = self.checkpoints.len();
        self.checkpoints.push(checkpoint);
        self.next_window += 1;
        Ok(&self.checkpoints[idx])
    }

    /// Runs the boundary-`b` key handoff: every seat redistributes its
    /// share to the next committee over derived pure RNG streams,
    /// batches are Feldman-verified against the standing commitments,
    /// and the surviving t+1 batches define the new sharing. `seat`
    /// gives each member's behavior, `None` for a member that crashed
    /// (its batch never arrives). Commits the handoff to the step log
    /// and returns the commitments digest plus wire metering.
    fn handoff(
        &mut self,
        b: usize,
        seat: impl Fn(usize) -> Option<CommitteeBehavior>,
    ) -> Result<(Digest, u64, u64), ExecError> {
        let m = self.cfg.committee_size;
        let t = (m - 1) / 2;
        let roster = &self.setup.committees.committees[0];
        let mut batches: Vec<SubshareBatch> = Vec::with_capacity(m);
        let mut handoff_bytes = 0u64;
        let mut handoff_frames = 0u64;
        for (j, share) in self.shares.iter().enumerate() {
            let Some(behavior) = seat(j) else {
                let kind = DetectionKind::HandoffDropout { boundary: b };
                self.detections.push(seat_detection(b, roster, j, kind));
                continue;
            };
            let mut rng = StdRng::seed_from_u64(
                self.cfg.seed ^ domain_tag(b"stream-handoff") ^ mix((b * m + j) as u64 + 1),
            );
            // Corrupt members either re-share a wrong value
            // (equivocation, caught by the constant-term check) or
            // publish an inconsistent batch (caught by per-subshare
            // Feldman verification).
            let batch = match behavior {
                CommitteeBehavior::EquivocateCommit => {
                    let lie = VShare {
                        x: share.x,
                        y: share.y + Scalar::ONE,
                    };
                    redistribute_share(&lie, t, m, &mut rng)
                }
                CommitteeBehavior::InconsistentVsrShares => {
                    let mut bad = redistribute_share(share, t, m, &mut rng);
                    bad.sharing.shares[0].y += Scalar::ONE;
                    bad.sharing.shares[1].y += Scalar::ONE;
                    bad
                }
                _ => redistribute_share(share, t, m, &mut rng),
            };
            // Meter the broadcast the way the fabric would frame it.
            let frame = vsr_batch_to_message(&batch).encode_frame();
            handoff_bytes += frame.len() as u64;
            handoff_frames += 1;
            batches.push(batch);
        }
        let (new_shares, rejections) = combine_batches_detailed(&batches, &self.commitments, t, m)
            .map_err(|e| ExecError::KeyTransfer(e.to_string()))?;
        for r in rejections {
            let kind = match r.reason {
                BatchRejectReason::WrongConstantTerm => DetectionKind::VsrEquivocation,
                BatchRejectReason::BadSubshares(subshares) => {
                    DetectionKind::VsrBadSubshares { subshares }
                }
            };
            let member = (r.from - 1) as usize;
            self.detections
                .push(seat_detection(b, roster, member, kind));
        }
        // The new commitments come from the same t+1 batches the
        // combine step chose: the first t+1 valid, in input order.
        let chosen: Vec<&SubshareBatch> = batches
            .iter()
            .filter(|batch| verify_batch(batch, &self.commitments).is_ok())
            .take(t + 1)
            .collect();
        let new_commitments = combine_commitments(&chosen);
        let commit_frame = Message::Commitments(new_commitments.clone()).encode_frame();
        handoff_bytes += commit_frame.len() as u64;
        handoff_frames += 1;
        let digest = sha256(&commit_frame);
        let mut step = format!("vsr-handoff-{b}").into_bytes();
        step.extend_from_slice(&digest);
        self.step_results.push(&step);
        self.shares = new_shares;
        self.commitments = new_commitments;
        Ok((digest, handoff_bytes, handoff_frames))
    }

    /// Closes the epoch: hands the key from the last ingestion
    /// committee to the decryption committee (§5.2), reconstructs it
    /// from the standing shares (across however many handoffs the
    /// schedule crossed), decrypts the accumulator once, runs the
    /// mechanism vignettes, and spot-audits the full step log — inputs,
    /// folds, and handoffs.
    ///
    /// # Errors
    ///
    /// [`ExecError::WindowOutOfOrder`] if windows remain,
    /// [`ExecError::NoSurvivors`] if nothing was ever accepted, and
    /// other [`ExecError`]s for key-transfer or MPC failures.
    pub fn close(mut self) -> Result<StreamReport, ExecError> {
        let n_windows = self.schedule.n_windows;
        if self.next_window < n_windows {
            return Err(ExecError::WindowOutOfOrder {
                expected: self.next_window,
                got: n_windows,
            });
        }
        let adversary = self.adversary;
        let m = self.cfg.committee_size;
        let t = (m - 1) / 2;
        let total_ct = self.acc.take().ok_or(ExecError::NoSurvivors)?;
        let ctx = Arc::clone(&self.setup.ctx);
        let categories = self.deployment.schema.row_width;
        let n = self.deployment.db.len();
        // The final window's fold is the last step `ingest_next` logged
        // (no boundary handoff follows the final window).
        let agg_step = self.step_results.len() - 1;

        // ---- VSR: key handoff keygen → decryption committee (§5.2),
        // logged like every boundary handoff but outside the per-window
        // checkpoints. The final committee must still hold the key. ----
        self.handoff(n_windows - 1, |j| {
            Some(adversary.map_or(CommitteeBehavior::Honest, |a| a.committee_behavior(0, j)))
        })?;
        let recovered =
            vsr_reconstruct(&self.shares, t).map_err(|e| ExecError::KeyTransfer(e.to_string()))?;
        if recovered != self.key_secret {
            return Err(ExecError::KeyTransfer("key digest mismatch".into()));
        }

        // ---- Decryption to shares (§5.4). ----
        let counts_raw = bgv_decrypt(&ctx, &self.setup.sk, &total_ct);
        let counts: Vec<i64> = counts_raw[..categories].iter().map(|&v| v as i64).collect();
        let mut mpc = MpcEngine::new(m, t, true, self.cfg.seed ^ domain_tag(b"mechanism-mpc"));
        // Charge the distributed-decryption cost.
        inject_with_cost(
            &mut mpc,
            Fix::ZERO,
            FunctionalityCost {
                mults: 64,
                rounds: 4,
            },
        );
        self.step_results.push(b"decrypt-to-shares");

        // ---- Mechanism and post-processing vignettes (§5.4). ----
        //
        // The generalized MPC evaluator executes every statement after
        // the aggregation on secret shares: score preparation (prefix
        // sums, revenue scores, rank distances), DP mechanisms (metered
        // noise injection + secure argmax), and cleartext
        // post-processing of released values.
        let style = if self
            .plan
            .vignettes
            .iter()
            .any(|v| matches!(v.op, PhysOp::ExpSample))
        {
            MechStyle::ExpSample
        } else {
            MechStyle::Gumbel
        };
        // Find the aggregation statement `var = sum(db-view)` to bind
        // the decrypted counts and resume execution after it.
        let (sum_var, resume_at) = find_aggregation(&self.logical.program)
            .ok_or_else(|| ExecError::Unsupported("no sum(db) aggregation found".into()))?;
        let mut env = HashMap::new();
        let count_shares: Vec<arboretum_mpc::engine::Shared> = counts
            .iter()
            .map(|&c| mpc.dealer_share(arboretum_field::FGold::from_i64(c)))
            .collect();
        env.insert(sum_var, MVal::SharedArr(count_shares));
        let mut eval_rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x5eed);
        let outputs = {
            let mut evaluator = MpcEvaluator::new(&mut mpc, &mut eval_rng, env, style);
            evaluator
                .block(&self.logical.program.stmts[resume_at..])
                .map_err(|e| ExecError::Mpc(e.to_string()))?;
            evaluator.outputs
        };
        self.step_results.push(b"mechanism-vignettes");

        // ---- Output committee releases; aggregator logs steps (§5.5). ----
        let released: Vec<u8> = outputs.iter().flat_map(|o| o.to_be_bytes()).collect();
        self.step_results.push(&released);
        let log = StepLog::new(std::mem::take(&mut self.step_results));
        let k = challenges_per_device(log.len(), n as u64, self.cfg.p_max);
        let detection = self.aggregator_audit(&log, &total_ct, agg_step, k);
        let audit_ok = detection.is_none();
        if let Some(kind) = detection {
            self.detections.push(Detection {
                window: n_windows - 1,
                subject: Subject::Aggregator,
                kind,
            });
        }

        // The keygen-MPC cost is charged to whoever performed the
        // keygen: an epoch that built its setup inline merges it here;
        // the session-catalog path paid it once at setup build time, so
        // cached executions report only their own per-query MPC work.
        let mut metrics = mpc.net.metrics.clone();
        let setup_counters = match &self.setup {
            Cow::Owned(built) => {
                metrics.rounds += built.keygen_metrics.rounds;
                metrics.bytes_sent_total += built.keygen_metrics.bytes_sent_total;
                metrics.field_mults += built.keygen_metrics.field_mults;
                metrics.triples += built.keygen_metrics.triples;
                built.counters.clone()
            }
            Cow::Borrowed(_) => SetupCounters::default(),
        };

        let budget_after = self.cert.budget_after;
        Ok(StreamReport {
            report: ExecutionReport {
                outputs,
                certificate: self.cert,
                rejected_inputs: self.rejected_count,
                accepted_inputs: self.accepted_count,
                mpc_metrics: metrics,
                audit_ok,
                budget_after,
                verify_ops: self.verify_ops,
                aggregate_ops: self.aggregate_ops,
                setup: setup_counters,
            },
            checkpoints: self.checkpoints,
            detections: self.detections,
        })
    }

    /// The device audit of the aggregator's step log (§5.3): `min(n, 50)`
    /// devices each challenge `k` steps, drawing from their own derived
    /// RNG stream, and pool their evidence into at most one typed
    /// detection, returned here. An honest aggregator answers from `log`,
    /// the log it built. A cheat perturbs only what the server
    /// *publishes* — log, root, or challenge responses — while the honest
    /// values stay in the pipeline, so outputs and budget remain bitwise
    /// identical to an honest replay.
    fn aggregator_audit(
        &self,
        log: &StepLog,
        total_ct: &Ciphertext,
        agg_step: usize,
        k: usize,
    ) -> Option<DetectionKind> {
        let honest = log.steps();
        let ok_steps = &self.ok_steps;
        let behavior = match self.agg_behavior {
            Some(b) if b.expected_kind(ok_steps, agg_step, honest.len()).is_some() => b,
            _ => AggregatorBehavior::Honest,
        };
        let ctx = &self.setup.ctx;
        let n_windows = self.schedule.n_windows;
        let forged_agg_step = |forged: &Ciphertext| {
            let mut contents = fold_label(n_windows - 1);
            contents.extend_from_slice(&ciphertext_digest(forged));
            contents
        };
        // The steps a cheat rewrites before committing (`None` publishes
        // `log` itself), and responder state for post-commitment cheats:
        // a tampered tree (ForgedLeaf) or an alternating second answer
        // (Equivocation).
        let mut rewritten: Option<Steps> = None;
        let mut tampered: Option<(usize, StepLog)> = None;
        let mut equivocation: Option<(usize, StepLog)> = None;
        let suffixed = |step: usize, suffix: &[u8]| {
            let mut forged_steps = honest.clone();
            forged_steps.replace(step, &[&honest[step], suffix].concat());
            StepLog::new(forged_steps)
        };
        match behavior {
            AggregatorBehavior::Honest => {}
            AggregatorBehavior::WrongPartialSum => {
                let extra = self.cheat_cts.first()?;
                let forged = arboretum_bgv::scheme::add(ctx, total_ct, extra);
                let mut steps = honest.clone();
                steps.replace(agg_step, &forged_agg_step(&forged));
                rewritten = Some(steps);
            }
            AggregatorBehavior::DropUpload { draw } => {
                let j = (draw % ok_steps.len() as u64) as usize;
                let victim_ct = self.cheat_cts.get(j)?;
                let victim_step = ok_steps[j];
                // Every ok step is `input-{i}-ok` (see `ingest_next`).
                let ok = &honest[victim_step];
                let dropped = [ok.strip_suffix(ACCEPTED).unwrap_or(ok), DROPPED_MARKER].concat();
                let forged = arboretum_bgv::scheme::sub(ctx, total_ct, victim_ct);
                let mut steps = honest.clone();
                steps.replace(victim_step, &dropped);
                steps.replace(agg_step, &forged_agg_step(&forged));
                rewritten = Some(steps);
            }
            AggregatorBehavior::ForgedLeaf { draw } => {
                let step = (draw % honest.len() as u64) as usize;
                tampered = Some((step, suffixed(step, b"-forged")));
            }
            // Perturbs the root below, once the log it should commit is
            // built.
            AggregatorBehavior::ForgedRoot => {}
            AggregatorBehavior::ReorderedSteps { draw } => {
                let j = (draw % (ok_steps.len() - 1) as u64) as usize;
                let (a, b) = (ok_steps[j], ok_steps[j + 1]);
                let mut steps = honest.clone();
                steps.replace(a, &honest[b]);
                steps.replace(b, &honest[a]);
                rewritten = Some(steps);
            }
            AggregatorBehavior::EquivocatingResponses { draw } => {
                let step = (draw % honest.len() as u64) as usize;
                equivocation = Some((step, suffixed(step, b"-equivocated")));
            }
        }
        let published =
            rewritten.map_or(Cow::Borrowed(log), |steps| Cow::Owned(StepLog::new(steps)));
        let mut published_root = published.root();
        if behavior == AggregatorBehavior::ForgedRoot {
            published_root[0] ^= 0x01;
        }
        let mut equiv_hits = 0usize;
        let respond = |i: usize| {
            if let Some((step, forged)) = &tampered {
                if i == *step {
                    return forged.answer(i);
                }
            }
            if let Some((step, forged)) = &equivocation {
                if i == *step {
                    equiv_hits += 1;
                    if equiv_hits.is_multiple_of(2) {
                        return forged.answer(i);
                    }
                }
            }
            published.answer(i)
        };
        let mut audit_rng = StdRng::seed_from_u64(self.cfg.seed ^ domain_tag(b"aggregator-audit"));
        let records = adversarial_audit(
            honest.len(),
            &published_root,
            self.deployment.db.len().min(50),
            k,
            respond,
            |i| &honest[i],
            &mut audit_rng,
        );
        collate_detection(&records)
    }

    /// Serializes the resumable mid-stream state: accumulator
    /// ciphertext (as wire `CtChunk` frames), committee shares and
    /// commitments (as a wire `VsrSubshares` frame), counters, step
    /// log, and per-window checkpoints, bound to the schedule digest.
    /// The bytes are a function of the epoch so far — identical at every
    /// thread count — so a log can hash them.
    ///
    /// # Errors
    ///
    /// [`ExecError::Checkpoint`] if detections were raised — an
    /// adversarial run's detections live in the driving harness and are
    /// not serialized, so checkpointing one would drop evidence.
    pub fn checkpoint_bytes(&self) -> Result<Vec<u8>, ExecError> {
        if !self.detections.is_empty() {
            return Err(ExecError::Checkpoint(
                "cannot checkpoint a stream with pending detections".into(),
            ));
        }
        let mut out = Vec::new();
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_be_bytes());
        out.extend_from_slice(&self.schedule.digest());
        put_u64(&mut out, self.next_window as u64);
        put_u64(&mut out, self.accepted_count as u64);
        put_u64(&mut out, self.rejected_count as u64);
        put_u64(&mut out, self.verify_ops);
        put_u64(&mut out, self.aggregate_ops);
        // Accumulator: one CtChunk frame per (poly, RNS limb).
        match &self.acc {
            None => out.push(0),
            Some(ct) => {
                out.push(1);
                out.push(ct.c0.rows.len() as u8);
                for (poly, p) in [(0u8, &ct.c0), (1u8, &ct.c1)] {
                    for (limb, row) in p.rows.iter().enumerate() {
                        let frame = Message::CtChunk {
                            poly,
                            limb: limb as u8,
                            offset: 0,
                            coeffs: row.clone(),
                        }
                        .encode_frame();
                        out.extend_from_slice(&frame);
                    }
                }
            }
        }
        // Committee state: shares + commitments in one VSR frame.
        let frame = Message::VsrSubshares {
            from: self.next_window as u64,
            shares: self.shares.iter().map(|s| (s.x, s.y)).collect(),
            commitments: self.commitments.clone(),
        }
        .encode_frame();
        out.extend_from_slice(&frame);
        // Step log so far.
        put_u32(&mut out, self.step_results.len() as u32);
        for step in self.step_results.iter() {
            put_u32(&mut out, step.len() as u32);
            out.extend_from_slice(step);
        }
        // Per-window checkpoints.
        put_u32(&mut out, self.checkpoints.len() as u32);
        for c in &self.checkpoints {
            put_u64(&mut out, c.window as u64);
            put_u64(&mut out, c.arrivals as u64);
            put_u64(&mut out, c.accepted as u64);
            put_u64(&mut out, c.rejected as u64);
            put_u64(&mut out, c.cumulative_accepted as u64);
            put_digest(&mut out, &c.accumulator_digest);
            put_digest(&mut out, &c.handoff_digest);
            put_u64(&mut out, c.handoff_bytes);
            put_u64(&mut out, c.handoff_frames);
        }
        Ok(out)
    }

    /// Restores mid-stream state from [`Self::checkpoint_bytes`] into a
    /// freshly opened executor for the *same* plan, deployment, config,
    /// setup, and schedule. Continuing from the restored state
    /// reproduces the uninterrupted run bitwise.
    ///
    /// The bytes are untrusted (a crashed process or an attacker wrote
    /// them): every length is bounded by the bytes that remain before
    /// anything is allocated for it, and nothing is committed to `self`
    /// until the whole checkpoint parsed and its fields agree with each
    /// other (one row per ingested window, in order; accepted counts
    /// that add up; a step log and an accumulator where the counts say
    /// there must be one).
    ///
    /// # Errors
    ///
    /// [`ExecError::Checkpoint`] on truncation, version/magic or
    /// schedule-digest mismatch, implausible or inconsistent counts, or
    /// malformed frames.
    pub fn restore_from(&mut self, bytes: &[u8]) -> Result<(), ExecError> {
        let bad = |s: &str| ExecError::Checkpoint(s.to_string());
        let mut pos = 0usize;
        if take(bytes, &mut pos, 4)? != CHECKPOINT_MAGIC {
            return Err(bad("bad checkpoint magic"));
        }
        let v = take(bytes, &mut pos, 2)?;
        if u16::from_be_bytes([v[0], v[1]]) != CHECKPOINT_VERSION {
            return Err(bad("unsupported checkpoint version"));
        }
        if take(bytes, &mut pos, 32)? != self.schedule.digest() {
            return Err(bad("checkpoint was taken under a different schedule"));
        }
        let next_window = get_u64(bytes, &mut pos)?;
        if next_window > self.schedule.n_windows as u64 {
            return Err(bad("checkpoint window exceeds the schedule"));
        }
        let accepted_count = get_u64(bytes, &mut pos)? as usize;
        let rejected_count = get_u64(bytes, &mut pos)? as usize;
        let verify_ops = get_u64(bytes, &mut pos)?;
        let aggregate_ops = get_u64(bytes, &mut pos)?;
        let acc = match take(bytes, &mut pos, 1)?[0] {
            0 => None,
            1 => {
                let params = &self.setup.ctx.params;
                if take(bytes, &mut pos, 1)?[0] as usize != params.moduli.len() {
                    return Err(bad("accumulator limb count does not match the session"));
                }
                let mut polys = [RnsPoly { rows: Vec::new() }, RnsPoly { rows: Vec::new() }];
                for (poly, slot) in polys.iter_mut().enumerate() {
                    for limb in 0..params.moduli.len() {
                        let (msg, used) = Message::decode_frame(&bytes[pos..])
                            .map_err(|e| ExecError::Checkpoint(e.to_string()))?;
                        pos += used;
                        match msg {
                            Message::CtChunk {
                                poly: p,
                                limb: l,
                                offset: 0,
                                coeffs,
                            } if p as usize == poly
                                && l as usize == limb
                                && coeffs.len() == params.n =>
                            {
                                // ⊞ assumes reduced residues.
                                if coeffs.iter().any(|&c| c >= params.moduli[limb]) {
                                    return Err(bad("accumulator coefficient is not reduced"));
                                }
                                slot.rows.push(coeffs);
                            }
                            _ => return Err(bad("accumulator frame out of order")),
                        }
                    }
                }
                let [c0, c1] = polys;
                Some(Ciphertext { c0, c1 })
            }
            _ => return Err(bad("bad accumulator flag")),
        };
        let (msg, used) = Message::decode_frame(&bytes[pos..])
            .map_err(|e| ExecError::Checkpoint(e.to_string()))?;
        pos += used;
        let committee = message_to_vsr_batch(&msg).ok_or_else(|| bad("missing committee frame"))?;
        // Seat `j` holds evaluation point `j + 1`: the handoff indexes
        // the roster by it.
        let sharing = &committee.sharing;
        if committee.from != next_window
            || sharing.shares.len() != self.shares.len()
            || sharing.commitments.len() != self.commitments.len()
            || (sharing.shares.iter().zip(1u64..)).any(|(s, x)| s.x != x)
        {
            return Err(bad("committee frame does not match the epoch"));
        }
        // A step is at least its 4-byte length prefix.
        let n_steps = get_count(bytes, &mut pos, 4)?;
        let log_start = pos;
        for _ in 0..n_steps {
            let len = get_u32(bytes, &mut pos)? as usize;
            take(bytes, &mut pos, len)?;
        }
        // The arena is the log's bytes less one 4-byte length a step.
        let log_bytes = pos - log_start - 4 * n_steps;
        if log_bytes > u32::MAX as usize {
            return Err(bad("checkpoint step log passes 4 GiB"));
        }
        let n_checkpoints = get_count(bytes, &mut pos, CHECKPOINT_MIN_BYTES)?;
        let mut checkpoints = Vec::with_capacity(n_checkpoints);
        for _ in 0..n_checkpoints {
            checkpoints.push(WindowCheckpoint {
                window: get_u64(bytes, &mut pos)? as usize,
                arrivals: get_u64(bytes, &mut pos)? as usize,
                accepted: get_u64(bytes, &mut pos)? as usize,
                rejected: get_u64(bytes, &mut pos)? as usize,
                cumulative_accepted: get_u64(bytes, &mut pos)? as usize,
                accumulator_digest: get_digest(bytes, &mut pos)?,
                handoff_digest: get_digest(bytes, &mut pos)?,
                handoff_bytes: get_u64(bytes, &mut pos)?,
                handoff_frames: get_u64(bytes, &mut pos)?,
            });
        }
        if pos != bytes.len() {
            return Err(bad("trailing bytes after checkpoint"));
        }
        // Every field parsed; now the fields must agree with each other
        // the way `ingest_next` leaves them, or a later `ingest_next` or
        // `close` would index state that is not there.
        let next_window = next_window as usize;
        if checkpoints.len() != next_window {
            return Err(bad("checkpoint rows do not match the window count"));
        }
        let mut cumulative = 0usize;
        for (i, c) in checkpoints.iter().enumerate() {
            if c.window != i {
                return Err(bad("checkpoint rows are out of order"));
            }
            if c.cumulative_accepted < cumulative {
                return Err(bad("cumulative accepted count decreases"));
            }
            cumulative = c.cumulative_accepted;
        }
        if cumulative != accepted_count {
            return Err(bad("accepted count does not match the checkpoint rows"));
        }
        if n_steps < next_window {
            return Err(bad("step log is shorter than the windows ingested"));
        }
        if acc.is_some() != (accepted_count > 0) {
            return Err(bad(
                "accumulator presence does not match the accepted count",
            ));
        }
        self.next_window = next_window;
        self.accepted_count = accepted_count;
        self.rejected_count = rejected_count;
        self.verify_ops = verify_ops;
        self.aggregate_ops = aggregate_ops;
        self.acc = acc;
        self.shares = committee.sharing.shares;
        self.commitments = committee.sharing.commitments;
        // The step log goes into the arena reserved at open; its lengths
        // and bytes were all read above, so the reads cannot fail.
        self.step_results.clear();
        let mut at = log_start;
        for _ in 0..n_steps {
            let len = get_u32(bytes, &mut at)? as usize;
            self.step_results.push(take(bytes, &mut at, len)?);
        }
        self.checkpoints = checkpoints;
        self.detections.clear();
        self.ok_steps.clear();
        self.cheat_cts.clear();
        Ok(())
    }
}

/// Drives an entire [`ArrivalSchedule`] through a [`StreamExecutor`]:
/// open, every window, then the close. `setup`, `pool` and `adversary`
/// are the three things that vary between callers; see
/// [`crate::executor::execute`], the one-window case.
///
/// # Errors
///
/// See [`StreamExecutor::open`], [`StreamExecutor::ingest_next`], and
/// [`StreamExecutor::close`].
#[allow(clippy::too_many_arguments)]
pub fn execute_stream(
    plan: &Plan,
    logical: &LogicalPlan,
    deployment: &Deployment,
    cfg: &ExecutionConfig,
    schedule: &ArrivalSchedule,
    setup: Option<&SessionSetup>,
    pool: Option<&Arc<ThreadPool>>,
    adversary: Option<&dyn Adversary>,
) -> Result<StreamReport, ExecError> {
    let mut exec = StreamExecutor::open(
        plan, logical, deployment, cfg, schedule, setup, pool, adversary,
    )?;
    for _ in 0..schedule.n_windows {
        exec.ingest_next()?;
    }
    exec.close()
}

/// The verdict suffix of an accepted input step, `input-{i}-ok`.
const ACCEPTED: &[u8] = b"-ok";
/// The verdict suffix of an input step the sampling draw left out.
const BINNED_OUT: &[u8] = b"-binned-out";

/// Room for an epoch's whole step log, as `(steps, bytes)`: one input
/// step per contributing device (its label at the longest of the
/// `devices` indices, with the longer binned-out verdict if the query
/// samples), a fold and a handoff step per window (a label and a 32-byte
/// digest; the last handoff is close's), and at close two fixed labels
/// and the releases, reserved at 8 bytes a category. Reserving it once
/// keeps the arena from regrowing, and copying itself, as the epoch runs.
fn log_capacity(
    devices: usize,
    contributors: usize,
    windows: usize,
    categories: usize,
    sampled: bool,
) -> (usize, usize) {
    let digits = |n: usize| n.checked_ilog10().map_or(1, |d| d as usize + 1);
    let verdict = if sampled { BINNED_OUT } else { ACCEPTED };
    let input = b"input-".len() + digits(devices) + verdict.len();
    let per_window = 2 * (b"vsr-handoff-".len() + digits(windows) + 32);
    let steps = contributors + 2 * windows + 3;
    let close = b"decrypt-to-shares".len() + b"mechanism-vignettes".len() + 8 * categories;
    let bytes = contributors
        .saturating_mul(input)
        .saturating_add(windows.saturating_mul(per_window))
        .saturating_add(close);
    (steps, bytes)
}

fn fold_label(window: usize) -> Vec<u8> {
    format!("window-{window}-fold").into_bytes()
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_digest(out: &mut Vec<u8>, d: &Option<Digest>) {
    match d {
        None => out.push(0),
        Some(d) => {
            out.push(1);
            out.extend_from_slice(d);
        }
    }
}

/// Least a serialized [`WindowCheckpoint`] can occupy: seven `u64`
/// fields and two digest flags.
const CHECKPOINT_MIN_BYTES: usize = 7 * 8 + 2;

/// The next `k` checkpoint bytes, advancing `pos`. The one bounds check
/// every reader below goes through; `checked_add` so a hostile length
/// cannot wrap the offset on a 32-bit `usize`.
fn take<'b>(bytes: &'b [u8], pos: &mut usize, k: usize) -> Result<&'b [u8], ExecError> {
    let end = pos
        .checked_add(k)
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| ExecError::Checkpoint("truncated checkpoint".into()))?;
    let s = &bytes[*pos..end];
    *pos = end;
    Ok(s)
}

/// The next `N` checkpoint bytes as an array, advancing `pos`.
fn take_array<const N: usize>(bytes: &[u8], pos: &mut usize) -> Result<[u8; N], ExecError> {
    let mut a = [0; N];
    a.copy_from_slice(take(bytes, pos, N)?);
    Ok(a)
}

fn get_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, ExecError> {
    take_array(bytes, pos).map(u32::from_be_bytes)
}

fn get_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, ExecError> {
    take_array(bytes, pos).map(u64::from_be_bytes)
}

/// An element count whose elements each occupy at least `min_bytes`:
/// refused when the bytes that remain could not hold that many, so the
/// caller's allocation is bounded by the input length.
fn get_count(bytes: &[u8], pos: &mut usize, min_bytes: usize) -> Result<usize, ExecError> {
    let n = get_u32(bytes, pos)? as usize;
    if n > (bytes.len() - *pos) / min_bytes {
        return Err(ExecError::Checkpoint(
            "count exceeds the checkpoint's length".into(),
        ));
    }
    Ok(n)
}

fn get_digest(bytes: &[u8], pos: &mut usize) -> Result<Option<Digest>, ExecError> {
    match take_array::<1>(bytes, pos)? {
        [0] => Ok(None),
        [1] => Ok(Some(take_array(bytes, pos)?)),
        _ => Err(ExecError::Checkpoint("bad digest flag".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_schedule_is_a_pure_function_of_its_inputs() {
        let a = ArrivalSchedule::derive(9, 40, 4);
        let b = ArrivalSchedule::derive(9, 40, 4);
        assert_eq!(a, b);
        assert_ne!(a, ArrivalSchedule::derive(10, 40, 4));
        // Windows partition the survivors exactly.
        let flat: Vec<usize> = a.windows().into_iter().flatten().collect();
        let mut sorted = flat.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, a.survivors());
        assert_eq!(flat.len(), a.survivors().len());
    }

    #[test]
    fn explicit_partition_round_trips_through_windows() {
        let windows = vec![vec![0, 3], vec![1], vec![], vec![2, 4]];
        let s = ArrivalSchedule::from_partition(&windows, 6);
        assert_eq!(s.windows(), windows);
        assert_eq!(s.survivors(), vec![0, 1, 2, 3, 4]);
        assert!(!s.contributes(5));
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn double_listing_a_device_panics() {
        ArrivalSchedule::from_partition(&[vec![0], vec![0]], 2);
    }

    #[test]
    fn schedule_digest_binds_every_field() {
        let a = ArrivalSchedule::derive(3, 20, 2);
        assert_eq!(a.digest(), a.digest());
        let mut b = a.clone();
        b.arrival[7] = (b.arrival[7] + 1) % b.n_windows as u32;
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        c.drop[0] = 0;
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn the_streamed_digest_hashes_sixteen_bytes_a_device() {
        // The bytes checkpoints have always bound: the header, then each
        // device's arrival and drop window as big-endian u64s, u64::MAX
        // for "never drops".
        for s in [
            ArrivalSchedule::derive(3, 20, 2),
            ArrivalSchedule::derive(8, 33, 5),
            ArrivalSchedule::all_at_once(7),
            ArrivalSchedule::from_partition(&[vec![0, 3], vec![1], vec![], vec![2, 4]], 6),
        ] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&s.seed.to_be_bytes());
            bytes.extend_from_slice(&(s.n_devices as u64).to_be_bytes());
            bytes.extend_from_slice(&(s.n_windows as u64).to_be_bytes());
            for i in 0..s.n_devices {
                bytes.extend_from_slice(&u64::from(s.arrival[i]).to_be_bytes());
                let drop = s.drop_window(i).map_or(u64::MAX, |d| d as u64);
                bytes.extend_from_slice(&drop.to_be_bytes());
            }
            assert_eq!(s.digest(), sha256(&bytes));
        }
    }

    #[test]
    fn windows_past_u32_draw_below_the_never_marker() {
        let s = ArrivalSchedule::derive(0, 48, 4_000_000_000_000);
        assert!(s.arrival.iter().all(|&a| a < ArrivalSchedule::NEVER));
        let drops = s.drop.iter().filter(|&&d| d != ArrivalSchedule::NEVER);
        assert!(drops.count() > 0);
    }

    #[test]
    fn drop_before_or_at_arrival_removes_the_contribution() {
        let mut s = ArrivalSchedule::derive(1, 4, 3);
        s.arrival = vec![1, 1, 1, 1];
        s.drop = vec![ArrivalSchedule::NEVER, 0, 1, 2];
        assert!(s.contributes(0));
        assert!(!s.contributes(1)); // dropped before arriving
        assert!(!s.contributes(2)); // dropped in the arrival window
        assert!(s.contributes(3)); // dropped after uploading
        assert_eq!(s.survivors(), vec![0, 3]);
    }
}
