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
//!   certificate, initial committee key sharing), runs the verify phase
//!   per window on that window's arrivals only, and folds their BGV
//!   ⊞-partials into a checkpointed accumulator via the sharded chunk
//!   kernels (`arboretum_bgv::par_sum_chunks_sharded`);
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
//! count, shard count, fold chunk width, and network fabric. One-window
//! ≡ batch holds by construction (they are the same code); the test
//! batteries in `crates/runtime/tests/stream_props.rs` and
//! `stream_determinism.rs` guard partition invariance.

use arboretum_bgv::{
    decrypt as bgv_decrypt, encode_coeffs, encrypt as bgv_encrypt, Ciphertext, RnsPoly,
};
use arboretum_crypto::group::{scalar_from_hash, GroupElem, Scalar};
use arboretum_crypto::pedersen::PedersenParams;
use arboretum_crypto::sha256::{domain_tag, seed_draw, sha256, Digest};
use arboretum_dp::budget::BudgetLedger;
use arboretum_field::fixed::Fix;
use arboretum_mpc::engine::MpcEngine;
use arboretum_mpc::fixp::{inject_with_cost, FunctionalityCost};
use arboretum_net::wire::{message_to_vsr_batch, vsr_batch_to_message};
use arboretum_net::{FabricKind, Message};
use arboretum_par::{par_map_arc_sharded, ShardedPool};
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
use std::sync::Arc;

use crate::adversary::{
    ciphertext_digest, forge_one_hot, Adversary, AggregatorBehavior, CommitteeBehavior, Detection,
    DetectionKind, DeviceBehavior, Subject,
};
use crate::audit::{
    adversarial_audit, audit, challenges_per_device, collate_detection, StepLog, DROPPED_MARKER,
};
use crate::executor::{Deployment, ExecError, ExecutionConfig, ExecutionReport, QueryCert};
use crate::mpc_eval::{MVal, MechStyle, MpcEvaluator};
use crate::setup::{build_session_setup_observed, SessionSetup, SetupCounters};

/// ⊞-fold fan-in per accumulator chunk. Chunk width never changes
/// results (modular addition is exact), only scheduling.
pub const DEFAULT_STREAM_CHUNK: usize = 32;

/// Checkpoint wire-format version. Version 1 carried per-shard pool
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrivalSchedule {
    /// The seed everything was derived from (0 for explicit partitions).
    pub seed: u64,
    /// Deployment size the schedule covers.
    pub n_devices: usize,
    /// Number of ingestion windows in the epoch (≥ 1).
    pub n_windows: usize,
    /// Per device: the window it arrives (uploads) in.
    pub arrival: Vec<usize>,
    /// Per device: the window it drops in, if it ever drops.
    pub drop: Vec<Option<usize>>,
}

impl ArrivalSchedule {
    /// The one-window schedule in which every device arrives and none
    /// drops: a batch query.
    pub fn all_at_once(n_devices: usize) -> Self {
        Self {
            seed: 0,
            n_devices,
            n_windows: 1,
            arrival: vec![0; n_devices],
            drop: vec![None; n_devices],
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
        let w = n_windows as u64;
        let mut arrival = Vec::with_capacity(n_devices);
        let mut drop = Vec::with_capacity(n_devices);
        for i in 0..n_devices as u64 {
            arrival.push((seed_draw(seed, b"arrival", i) % w) as usize);
            let churns = seed_draw(seed, b"drop", i) % 100 < 25;
            drop.push(if churns {
                Some((seed_draw(seed, b"drop-window", i) % w) as usize)
            } else {
                None
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
    /// Panics if `windows` is empty, a device index is out of range, or
    /// a device is listed twice.
    pub fn from_partition(windows: &[Vec<usize>], n_devices: usize) -> Self {
        assert!(!windows.is_empty(), "need at least one window");
        let mut arrival = vec![0usize; n_devices];
        let mut drop: Vec<Option<usize>> = vec![Some(0); n_devices];
        for (w, devices) in windows.iter().enumerate() {
            for &d in devices {
                assert!(d < n_devices, "device {d} out of range");
                assert!(
                    drop[d] == Some(0) && arrival[d] == 0,
                    "device {d} listed twice"
                );
                arrival[d] = w;
                drop[d] = None;
            }
        }
        // `arrival[d] == 0 && drop[d].is_none()` is ambiguous for a
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

    /// Whether device `i` ever contributes an upload.
    pub fn contributes(&self, i: usize) -> bool {
        self.drop[i].is_none_or(|d| d > self.arrival[i])
    }

    /// The devices uploading in window `w`, ascending by registry index.
    pub fn window(&self, w: usize) -> Vec<usize> {
        (0..self.n_devices)
            .filter(|&i| self.arrival[i] == w && self.contributes(i))
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
    /// is a typed error instead of silent divergence.
    pub fn digest(&self) -> Digest {
        let mut bytes = Vec::with_capacity(24 + self.n_devices * 16);
        bytes.extend_from_slice(&self.seed.to_be_bytes());
        bytes.extend_from_slice(&(self.n_devices as u64).to_be_bytes());
        bytes.extend_from_slice(&(self.n_windows as u64).to_be_bytes());
        for i in 0..self.n_devices {
            bytes.extend_from_slice(&(self.arrival[i] as u64).to_be_bytes());
            bytes.extend_from_slice(&self.drop[i].map_or(u64::MAX, |d| d as u64).to_be_bytes());
        }
        sha256(&bytes)
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
    /// Uploads accepted by the verify phase this window.
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
    lease: Option<&'a ShardedPool>,
    owned_pool: Option<ShardedPool>,
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
    step_results: Vec<Vec<u8>>,
    shares: Vec<VShare>,
    commitments: Vec<GroupElem>,
    key_secret: Scalar,
    cert: QueryCert,
    detections: Vec<Detection>,
    checkpoints: Vec<WindowCheckpoint>,

    /// Consulted once, at the first fold (see
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
    /// mismatches.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        plan: &'a Plan,
        logical: &'a LogicalPlan,
        deployment: &'a Deployment,
        cfg: &'a ExecutionConfig,
        schedule: &'a ArrivalSchedule,
        setup: Option<&'a SessionSetup>,
        lease: Option<&'a ShardedPool>,
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
        // ---- Setup (§5.1–§5.2): cached in a session catalog, or built
        // inline (sortition, BGV keygen from the `cfg.seed` stream,
        // keygen-MPC metering observed by the adversary's sink). ----
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let setup = match setup {
            Some(s) if s.committee_size != m => {
                return Err(ExecError::Unsupported(format!(
                    "session setup seated committees of {}, config wants {m}",
                    s.committee_size
                )));
            }
            Some(s) => Cow::Borrowed(s),
            None => Cow::Owned(build_session_setup_observed(
                deployment,
                m,
                cfg.seed,
                &mut rng,
                FabricKind::resolve(cfg.fabric, FabricKind::Sim),
                adversary.and_then(|a| a.traffic_sink()),
            )?),
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
                (d, deployment.registry.device(d).keypair.sign(signed))
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

        // Sharded pools: leased from the caller's pool bank, or owned by
        // this epoch.
        let owned_pool = match lease {
            Some(_) => None,
            None => Some(cfg.par.sharded_pool()),
        };
        Ok(Self {
            plan,
            logical,
            deployment,
            cfg,
            schedule,
            setup,
            lease,
            owned_pool,
            adversary,
            malicious,
            next_window: 0,
            acc: None,
            accepted_count: 0,
            rejected_count: 0,
            verify_ops: 0,
            aggregate_ops: 0,
            step_results: Vec::new(),
            shares: sharing.shares,
            commitments: sharing.commitments,
            key_secret,
            cert,
            detections,
            checkpoints: Vec::new(),
            agg_behavior: None,
            ok_steps: Vec::new(),
            cheat_cts: Vec::new(),
        })
    }

    /// The window the executor will ingest next.
    pub fn next_window(&self) -> usize {
        self.next_window
    }

    /// Ingests the next window: verifies this window's arrivals, folds
    /// the accepted ⊞-partials into the accumulator, and (unless this
    /// was the final window) runs the VSR key handoff to the next
    /// window's committee, logging it as an audited step.
    ///
    /// # Errors
    ///
    /// [`ExecError::EpochClosed`] once every window was ingested, and
    /// other [`ExecError`]s for protocol failures (e.g. a handoff
    /// left fewer than t+1 valid batches).
    pub fn ingest_next(&mut self) -> Result<&WindowCheckpoint, ExecError> {
        let w = self.next_window;
        if w >= self.schedule.n_windows {
            return Err(ExecError::EpochClosed);
        }
        let adversary = self.adversary;
        let arrivals = self.schedule.window(w);
        let ctx = Arc::clone(&self.setup.ctx);
        let pk = &self.setup.pk;
        let shard_set: &ShardedPool = match self.lease {
            Some(p) => p,
            None => self.owned_pool.as_ref().expect("constructed without lease"),
        };

        // ---- Phase A (parallel, pure per device): arrivals build
        // their uploads — the claimed values plus a proof of
        // well-formedness. Behaviors are resolved serially up front (an
        // adversary overrides the legacy malicious-fraction draw, which
        // maps to the same two behaviors the executor always
        // simulated), so the proving closure stays a pure function of
        // its job; proving RNGs are seeded from the *global* registry
        // index, so a device's upload is byte-identical no matter which
        // window, shard or thread it lands on. ----
        let one_hot_schema = self.deployment.schema.one_hot;
        let (schema_lo, schema_hi) = (self.deployment.schema.lo, self.deployment.schema.hi);
        // At most 63 from an `i64` span. Above `zkp::MAX_RANGE_BITS` (60)
        // no proof exists: `prove_range` refuses, so uploads carry none
        // (`RangeProofMissing`), and `verify_range_detailed` answers
        // `RangeStructure` to anything presented as one.
        let range_bits = {
            let span = (schema_hi - schema_lo).max(1) as u64;
            64 - span.leading_zeros()
        };
        let behaviors: Vec<DeviceBehavior> = arrivals
            .iter()
            .map(|&i| match adversary {
                Some(adv) => adv.device_behavior(w, i),
                None if self.malicious[i] => {
                    if one_hot_schema {
                        DeviceBehavior::TruncatedProof
                    } else {
                        DeviceBehavior::OutOfRangeValue
                    }
                }
                None => DeviceBehavior::Honest,
            })
            .collect();
        let jobs: Vec<(usize, Vec<i64>, DeviceBehavior)> = arrivals
            .iter()
            .zip(behaviors.iter())
            .map(|(&i, &b)| (i, self.deployment.db[i].clone(), b))
            .collect();
        let jobs = Arc::new(jobs);
        let pp = PedersenParams::standard();
        let upload_seed = self.cfg.seed ^ domain_tag(b"phase-a-uploads");
        let uploads: Vec<Upload> =
            par_map_arc_sharded(shard_set, &jobs, move |_, (global_i, row, behavior)| {
                let mut dev_rng = StdRng::seed_from_u64(upload_seed ^ mix(*global_i as u64));
                let bits: Vec<u64> = row.iter().map(|&v| v as u64).collect();
                if !one_hot_schema {
                    // Numerical inputs: per-field range proofs (§5.3's
                    // "1,000 years old" defense).
                    let effective_row: Vec<i64> = if *behavior == DeviceBehavior::OutOfRangeValue {
                        row.iter()
                            .map(|&v| v + (schema_hi - schema_lo + 1))
                            .collect()
                    } else {
                        row.clone()
                    };
                    let mut proofs: Option<Vec<_>> = effective_row
                        .iter()
                        .map(|&v| {
                            let shifted = v.checked_sub(schema_lo).filter(|&s| s >= 0)? as u64;
                            prove_range(&pp, shifted, range_bits, &mut dev_rng)
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
                // The device's row with the first coordinate equal to
                // `from` claimed as `to` instead.
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
                        // A malicious client cannot produce a valid
                        // proof for a non-one-hot vector; it sends a
                        // proof for different data, tampered so
                        // verification fails.
                        let p = prove_one_hot(&pp, &bits, &mut dev_rng).ok();
                        Upload::OneHot {
                            bits: bad,
                            proof: p.map(|mut p| {
                                p.bit_proofs.pop();
                                p
                            }),
                        }
                    }
                    DeviceBehavior::TamperSigmaProof => {
                        let p = prove_one_hot(&pp, &bits, &mut dev_rng).ok().map(|mut p| {
                            if let Some(bp) = p.bit_proofs.first_mut() {
                                bp.z0 += Scalar::ONE;
                            }
                            p
                        });
                        Upload::OneHot { bits, proof: p }
                    }
                    DeviceBehavior::MalformedOneHot => {
                        // Claims two categories with a best-effort
                        // forged proof: every coordinate is still a
                        // bit, so the first failure is the
                        // coordinate-sum proof.
                        let bad = claim(0, 1);
                        let proof = forge_one_hot(&pp, &bad, &mut dev_rng);
                        Upload::OneHot {
                            bits: bad,
                            proof: Some(proof),
                        }
                    }
                    DeviceBehavior::OutOfRangeValue => {
                        // Claims a coordinate of 2; the forged bit
                        // proof at the hot coordinate cannot verify.
                        let bad = claim(1, 2);
                        let proof = forge_one_hot(&pp, &bad, &mut dev_rng);
                        Upload::OneHot {
                            bits: bad,
                            proof: Some(proof),
                        }
                    }
                    DeviceBehavior::Honest | DeviceBehavior::WrongBgvCiphertext => {
                        let p = prove_one_hot(&pp, &bits, &mut dev_rng).ok();
                        Upload::OneHot { bits, proof: p }
                    }
                }
            });

        // ---- Phase B (parallel, pure): the aggregator verifies this
        // window's proofs across the device shards. Verification
        // touches no RNG, so the verdict vector — and everything
        // downstream — is identical at any shard and thread count.
        // `None` = accept; `Some(kind)` = reject for that typed
        // reason. ----
        let uploads = Arc::new(uploads);
        self.verify_ops += uploads.len() as u64;
        let verdicts: Vec<Option<DetectionKind>> =
            par_map_arc_sharded(shard_set, &uploads, move |_, upload| match upload {
                Upload::OneHot { proof, .. } => match proof {
                    None => Some(DetectionKind::OneHotStructure),
                    Some(p) => match verify_one_hot_detailed(&pp, p) {
                        Ok(()) => None,
                        Err(OneHotVerifyError::Structure) => Some(DetectionKind::OneHotStructure),
                        Err(OneHotVerifyError::BitProof(index)) => {
                            Some(DetectionKind::OneHotBitProof { index })
                        }
                        Err(OneHotVerifyError::SumProof) => Some(DetectionKind::OneHotSumProof),
                    },
                },
                Upload::Ranges { vals, proofs } => match proofs {
                    None => Some(DetectionKind::RangeProofMissing),
                    Some(ps) if ps.len() != vals.len() => Some(DetectionKind::RangeStructure),
                    Some(ps) => ps.iter().enumerate().find_map(|(field, p)| {
                        match verify_range_detailed(&pp, p, range_bits) {
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
                },
            });

        // The aggregator hook is consulted exactly once, at the last
        // deterministic serial point before the first ⊞ fold.
        let agg_behavior = *self.agg_behavior.get_or_insert_with(|| {
            adversary.map_or(AggregatorBehavior::Honest, |a| a.aggregator_behavior())
        });

        // ---- Phase C (serial, pure per device): accepted arrivals go
        // through the sampling decision (§6's secrecy of the sample)
        // and encrypt, each from its own derived stream (seeded by
        // global index), so both are window-placement invariant. ----
        let mut window_accepted = 0usize;
        let mut window_rejected = 0usize;
        let mut cts: Vec<Ciphertext> = Vec::new();
        let encrypt_seed = self.cfg.seed ^ domain_tag(b"stream-encrypt");
        for (((&i, upload), verdict), &behavior) in arrivals
            .iter()
            .zip(uploads.iter())
            .zip(&verdicts)
            .zip(&behaviors)
        {
            let mut reject = |kind: DetectionKind| {
                window_rejected += 1;
                self.detections.push(Detection {
                    window: w,
                    subject: Subject::Device(i),
                    kind,
                });
            };
            if let Some(kind) = verdict {
                reject(kind.clone());
                continue;
            }
            if let Some(phi) = self.logical.certificate.sampling_rate {
                // 53 uniform bits → [0, 1), so φ = 1 keeps every device.
                let r = seed_draw(self.cfg.seed, b"stream-sample", i as u64) >> 11;
                if r as f64 / (1u64 << 53) as f64 >= phi {
                    self.step_results
                        .push(format!("input-{i}-binned-out").into_bytes());
                    continue;
                }
            }
            let vals = match upload {
                Upload::OneHot { bits, .. } => bits,
                Upload::Ranges { vals, .. } => vals,
            };
            let mut enc_rng = StdRng::seed_from_u64(encrypt_seed ^ mix(i as u64));
            let msg =
                encode_coeffs(&ctx, vals).map_err(|e| ExecError::Unsupported(e.to_string()))?;
            let ct = bgv_encrypt(&ctx, pk, &msg, &mut enc_rng);
            if behavior == DeviceBehavior::WrongBgvCiphertext {
                // The validated upload binds the device to `vals`; this
                // device instead submits a ciphertext of different
                // data. The aggregator cross-checks the digest of the
                // submitted ciphertext against the one recomputed from
                // the upload.
                let mut wrong = vals.clone();
                wrong[0] = wrong[0].wrapping_add(1);
                let wrong_msg = encode_coeffs(&ctx, &wrong)
                    .map_err(|e| ExecError::Unsupported(e.to_string()))?;
                let submitted = bgv_encrypt(&ctx, pk, &wrong_msg, &mut enc_rng);
                if ciphertext_digest(&submitted) != ciphertext_digest(&ct) {
                    reject(DetectionKind::CiphertextMismatch);
                    continue;
                }
            }
            window_accepted += 1;
            // Behaviors that perturb the *published* log need
            // ciphertexts the ⊞ kernels consume by value, so the
            // cheat's raw material is cloned up front.
            match agg_behavior {
                AggregatorBehavior::WrongPartialSum if self.cheat_cts.is_empty() => {
                    self.cheat_cts.push(ct.clone());
                }
                AggregatorBehavior::DropUpload { .. } => self.cheat_cts.push(ct.clone()),
                _ => {}
            }
            self.ok_steps.push(self.step_results.len());
            self.step_results.push(format!("input-{i}-ok").into_bytes());
            cts.push(ct);
        }
        self.accepted_count += window_accepted;
        self.rejected_count += window_rejected;

        // ---- Fold this window's partials into the accumulator on the
        // sharded pools. BGV ⊞ is associative row-wise modular
        // addition, so the chunked merges are bitwise identical to a
        // serial fold for every shard and thread count (see
        // `arboretum_bgv::batch`). ----
        let mut partials: Vec<Ciphertext> = Vec::with_capacity(cts.len() + 1);
        if let Some(acc) = self.acc.take() {
            partials.push(acc);
        }
        partials.extend(cts);
        let adds = partials.len().saturating_sub(1) as u64;
        if !partials.is_empty() {
            while partials.len() > 1 {
                partials = arboretum_bgv::par_sum_chunks_sharded(
                    shard_set,
                    &ctx,
                    partials,
                    DEFAULT_STREAM_CHUNK,
                );
            }
            self.acc = Some(partials.remove(0));
            self.aggregate_ops += adds;
        }
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
        self.step_results.push(fold_step);

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
        self.checkpoints.push(checkpoint);
        self.next_window += 1;
        Ok(self.checkpoints.last().expect("just pushed"))
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
            // Meter the broadcast the way the fabrics would frame it.
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
        self.step_results.push(step);
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
        let mut mpc = MpcEngine::new_on(
            m,
            t,
            true,
            self.cfg.seed ^ domain_tag(b"mechanism-mpc"),
            FabricKind::resolve(self.cfg.fabric, FabricKind::Sim),
        );
        // Message-observing callback for adaptive adversaries.
        // Read-only, so a sink never changes outputs or metrics.
        mpc.set_frame_sink(adversary.and_then(|a| a.traffic_sink()));
        // Charge the distributed-decryption cost.
        inject_with_cost(
            &mut mpc,
            Fix::ZERO,
            FunctionalityCost {
                mults: 64,
                rounds: 4,
            },
        );
        self.step_results.push(b"decrypt-to-shares".to_vec());

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
        self.step_results.push(b"mechanism-vignettes".to_vec());

        // ---- Output committee releases; aggregator logs steps (§5.5). ----
        self.step_results.push(
            outputs
                .iter()
                .flat_map(|o| o.to_be_bytes())
                .collect::<Vec<u8>>(),
        );
        let log = StepLog::new(std::mem::take(&mut self.step_results));
        let root = log.root();
        let k = challenges_per_device(log.len(), n as u64, self.cfg.p_max);
        let honest: Vec<Vec<u8>> = (0..log.len()).map(|i| log.respond(i).0).collect();
        let mut audit_rng = StdRng::seed_from_u64(self.cfg.seed ^ domain_tag(b"stream-audit"));
        let mut audit_ok = true;
        for _ in 0..n.min(50) {
            if !audit(&log, &root, k, |i| honest[i].clone(), &mut audit_rng) {
                audit_ok = false;
            }
        }
        if let Some(kind) = self.aggregator_audit(&total_ct, agg_step, &honest, k) {
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

        // Elapsed-time estimate under the configured heterogeneity
        // models (reference per-multiplication cost from the §7.5
        // calibration).
        let compute = self
            .cfg
            .compute
            .clone()
            .unwrap_or_else(|| arboretum_mpc::network::ComputeModel::uniform(m));
        let per_mult_secs = 9.0e-4; // 73.8 s / ~80k mults, the §7.5 anchor.
        let mpc_elapsed_estimate_secs =
            mpc.net
                .elapsed_secs(&self.cfg.latency, &compute, per_mult_secs);

        let budget_after = self.cert.budget_after;
        Ok(StreamReport {
            report: ExecutionReport {
                outputs,
                certificate: self.cert,
                rejected_inputs: self.rejected_count,
                accepted_inputs: self.accepted_count,
                mpc_metrics: metrics,
                audit_ok,
                mpc_elapsed_estimate_secs,
                budget_after,
                verify_ops: self.verify_ops,
                aggregate_ops: self.aggregate_ops,
                setup: setup_counters,
            },
            checkpoints: self.checkpoints,
            detections: self.detections,
        })
    }

    /// The adversarial aggregator (§5.3): the cheat perturbs what the
    /// server *publishes* — log, root, or challenge responses — while
    /// the honest values stay in the pipeline, so the run detects and
    /// recovers: outputs, budget, and the honest audit verdict remain
    /// bitwise identical to an honest replay, plus at most one typed
    /// detection, returned here. The device audit draws from its own
    /// derived RNG stream.
    fn aggregator_audit(
        &self,
        total_ct: &Ciphertext,
        agg_step: usize,
        honest: &[Vec<u8>],
        k: usize,
    ) -> Option<DetectionKind> {
        let behavior = self.agg_behavior.unwrap_or(AggregatorBehavior::Honest);
        let ok_steps = &self.ok_steps;
        behavior.expected_kind(ok_steps, agg_step, honest.len())?;
        let ctx = &self.setup.ctx;
        let n_windows = self.schedule.n_windows;
        let forged_agg_step = |forged: &Ciphertext| {
            let mut contents = fold_label(n_windows - 1);
            contents.extend_from_slice(&ciphertext_digest(forged));
            contents
        };
        let mut published_steps = honest.to_vec();
        // Responder state for post-commitment cheats: a tampered tree
        // (ForgedLeaf) or an alternating second answer (Equivocation).
        let mut tampered: Option<(usize, StepLog)> = None;
        let mut equivocation: Option<(usize, StepLog)> = None;
        match behavior {
            AggregatorBehavior::WrongPartialSum => {
                let extra = self.cheat_cts.first()?;
                let forged = arboretum_bgv::scheme::add(ctx, total_ct, extra);
                published_steps[agg_step] = forged_agg_step(&forged);
            }
            AggregatorBehavior::DropUpload { draw } => {
                let j = (draw % ok_steps.len() as u64) as usize;
                let victim_ct = self.cheat_cts.get(j)?;
                let victim_step = ok_steps[j];
                let mut dropped = honest[victim_step]
                    .strip_suffix(b"-ok")
                    .expect("ok-step contents end in -ok")
                    .to_vec();
                dropped.extend_from_slice(DROPPED_MARKER);
                published_steps[victim_step] = dropped;
                let forged = arboretum_bgv::scheme::sub(ctx, total_ct, victim_ct);
                published_steps[agg_step] = forged_agg_step(&forged);
            }
            AggregatorBehavior::ForgedLeaf { draw } => {
                let step = (draw % honest.len() as u64) as usize;
                let mut forged_steps = honest.to_vec();
                forged_steps[step].extend_from_slice(b"-forged");
                tampered = Some((step, StepLog::new(forged_steps)));
            }
            // Perturbs the root below, once the log it should commit is
            // built.
            AggregatorBehavior::ForgedRoot => {}
            AggregatorBehavior::ReorderedSteps { draw } => {
                let j = (draw % (ok_steps.len() - 1) as u64) as usize;
                published_steps.swap(ok_steps[j], ok_steps[j + 1]);
            }
            AggregatorBehavior::EquivocatingResponses { draw } => {
                let step = (draw % honest.len() as u64) as usize;
                let mut forged_steps = honest.to_vec();
                forged_steps[step].extend_from_slice(b"-equivocated");
                equivocation = Some((step, StepLog::new(forged_steps)));
            }
            AggregatorBehavior::Honest => unreachable!("expected_kind is None for Honest"),
        }
        let published = StepLog::new(published_steps);
        let mut published_root = published.root();
        if behavior == AggregatorBehavior::ForgedRoot {
            published_root[0] ^= 0x01;
        }
        let mut equiv_hits = 0usize;
        let respond = |i: usize| {
            if let Some((step, forged)) = &tampered {
                if i == *step {
                    return forged.respond(i);
                }
            }
            if let Some((step, forged)) = &equivocation {
                if i == *step {
                    equiv_hits += 1;
                    if equiv_hits.is_multiple_of(2) {
                        return forged.respond(i);
                    }
                }
            }
            published.respond(i)
        };
        let mut audit_rng = StdRng::seed_from_u64(self.cfg.seed ^ domain_tag(b"aggregator-audit"));
        let records = adversarial_audit(
            honest.len(),
            &published_root,
            self.deployment.db.len().min(50),
            k,
            respond,
            |i| honest[i].clone(),
            &mut audit_rng,
        );
        collate_detection(&records)
    }

    /// Serializes the resumable mid-stream state: accumulator
    /// ciphertext (as wire `CtChunk` frames), committee shares and
    /// commitments (as a wire `VsrSubshares` frame), counters, step
    /// log, and per-window checkpoints, bound to the schedule digest.
    /// The bytes are a function of the epoch so far — identical at every
    /// thread count, shard count and fabric — so a log can hash them.
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
        for step in &self.step_results {
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
        let mut step_results = Vec::with_capacity(n_steps);
        for _ in 0..n_steps {
            let len = get_u32(bytes, &mut pos)? as usize;
            step_results.push(take(bytes, &mut pos, len)?.to_vec());
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
        if step_results.len() < next_window {
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
        self.step_results = step_results;
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
    pool: Option<&ShardedPool>,
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

fn get_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, ExecError> {
    let b = take(bytes, pos, 4)?;
    Ok(u32::from_be_bytes(b.try_into().expect("took 4 bytes")))
}

fn get_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, ExecError> {
    let b = take(bytes, pos, 8)?;
    Ok(u64::from_be_bytes(b.try_into().expect("took 8 bytes")))
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
    match take(bytes, pos, 1)?[0] {
        0 => Ok(None),
        1 => Ok(Some(
            take(bytes, pos, 32)?.try_into().expect("took 32 bytes"),
        )),
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
        b.arrival[7] = (b.arrival[7] + 1) % b.n_windows;
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        c.drop[0] = Some(0);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn drop_before_or_at_arrival_removes_the_contribution() {
        let mut s = ArrivalSchedule::derive(1, 4, 3);
        s.arrival = vec![1, 1, 1, 1];
        s.drop = vec![None, Some(0), Some(1), Some(2)];
        assert!(s.contributes(0));
        assert!(!s.contributes(1)); // dropped before arriving
        assert!(!s.contributes(2)); // dropped in the arrival window
        assert!(s.contributes(3)); // dropped after uploading
        assert_eq!(s.survivors(), vec![0, 3]);
    }
}
