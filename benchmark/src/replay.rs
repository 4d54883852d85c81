//! Replays one query's phases through the layer crates' public
//! functions, each under a span, on the same generated inputs the
//! facade call just ran on: setup build → per window (prove → verify →
//! encode+encrypt → ⊞-fold → VSR handoff) → decrypt → `MpcEvaluator` →
//! audit. The replay is where the per-layer times come from; nothing
//! end-to-end is measured here.

use arboretum::bgv::{self, Ciphertext};
use arboretum::crypto::pedersen::PedersenParams;
use arboretum::field::fixed::Fix;
use arboretum::field::FGold;
use arboretum::lang::ast::{Builtin, Expr, Stmt};
use arboretum::mpc::engine::MpcEngine;
use arboretum::mpc::fixp::{inject_with_cost, FunctionalityCost};
use arboretum::net::wire::vsr_batch_to_message;
use arboretum::net::{FabricKind, Message};
use arboretum::par::ParConfig;
use arboretum::planner::plan::PhysOp;
use arboretum::runtime::adversary::ciphertext_digest;
use arboretum::runtime::audit::{audit, challenges_per_device, StepLog};
use arboretum::runtime::mpc_eval::{MVal, MechStyle, MpcEvaluator};
use arboretum::runtime::setup::{build_session_setup_on, SessionSetup};
use arboretum::vsr::{
    combine_batches, combine_commitments, feldman_share, reconstruct, redistribute_share,
    SubshareBatch,
};
use arboretum::zkp::onehot::{prove_one_hot, verify_one_hot_detailed};
use arboretum::{Deployment, ExecutionConfig, PreparedQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;

use std::collections::{BTreeMap, HashMap};

use crate::trace::Tracer;

/// The phases a replay attributes time to, in pipeline order: the span
/// name and the per-layer metric that reports its share of the op.
pub const PHASES: [(&str, &str); 9] = [
    ("runtime.setup_build", "phase.setup_build_share"),
    ("zkp.prove", "phase.prove_share"),
    ("zkp.verify", "phase.verify_share"),
    ("bgv.encrypt", "phase.encrypt_share"),
    ("bgv.aggregate", "phase.aggregate_share"),
    ("vsr.handoff", "phase.handoff_share"),
    ("bgv.decrypt", "phase.decrypt_share"),
    ("mpc.eval", "phase.mpc_share"),
    ("runtime.audit", "phase.audit_share"),
];

/// What to replay.
pub struct QueryReplay<'a> {
    /// The deployment the facade ran on.
    pub deployment: &'a Deployment,
    /// The prepared query the facade ran.
    pub prepared: &'a PreparedQuery,
    /// The execution configuration the facade ran under.
    pub cfg: &'a ExecutionConfig,
    /// Device indices per ingestion window; one window is the one-shot
    /// path. A key handoff follows every window (the one-shot path
    /// hands the key from the keygen to the decryption committee).
    pub windows: Vec<Vec<usize>>,
    /// Uploads the facade rejected: that many devices replay the
    /// executor's truncated proof, which fails the structure check.
    pub rejected: usize,
    /// A cached setup (the service path); `None` builds one, as the
    /// one-shot and `run_stream` facades do.
    pub setup: Option<&'a SessionSetup>,
}

/// What the replay of one op measured, beyond its spans.
#[derive(Default)]
pub struct ReplayOutcome {
    /// Wall seconds per phase of [`PHASES`] (absent = did not run).
    pub phase_seconds: BTreeMap<&'static str, f64>,
    /// Queries replayed (each decrypts once).
    pub queries: usize,
    /// Uploads proved and verified.
    pub uploads: usize,
    /// Uploads accepted and encrypted.
    pub accepted: usize,
    /// Homomorphic additions performed.
    pub adds: usize,
    /// Key handoffs performed.
    pub handoffs: usize,
    /// Bytes the handoffs framed onto the committee links.
    pub handoff_bytes: usize,
    /// Bytes of one upload's proof.
    pub proof_bytes: usize,
    /// Frames the committee engine's transport carried for the mechanism.
    pub frames: u64,
    /// Their bytes on the wire, headers included.
    pub framed_bytes: u64,
}

impl ReplayOutcome {
    /// Sum over all phases.
    pub fn total_seconds(&self) -> f64 {
        self.phase_seconds.values().sum()
    }

    /// Adds another query of the same op: times and counts sum.
    pub fn absorb(&mut self, other: Self) {
        for (phase, secs) in other.phase_seconds {
            *self.phase_seconds.entry(phase).or_insert(0.0) += secs;
        }
        self.queries += other.queries;
        self.uploads += other.uploads;
        self.accepted += other.accepted;
        self.adds += other.adds;
        self.handoffs += other.handoffs;
        self.handoff_bytes += other.handoff_bytes;
        self.proof_bytes = other.proof_bytes;
        self.frames += other.frames;
        self.framed_bytes += other.framed_bytes;
    }
}

/// Replays `q` under a `replay` span for op `op`.
///
/// # Panics
///
/// Panics when a layer call fails: the facade call on the same inputs
/// just succeeded, so a failure here is a bug in the replay.
pub fn replay_query(q: &QueryReplay<'_>, op: u64, tracer: &mut Tracer) -> ReplayOutcome {
    let mut out = ReplayOutcome {
        queries: 1,
        ..Default::default()
    };
    tracer.span("replay", op, |t| run_phases(q, op, t, &mut out));
    out
}

fn run_phases(q: &QueryReplay<'_>, op: u64, t: &mut Tracer, out: &mut ReplayOutcome) {
    let mut spent: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut phase = |name: &'static str, secs: f64| *spent.entry(name).or_insert(0.0) += secs;
    let cfg = q.cfg;
    let m = cfg.committee_size;
    let threshold = (m - 1) / 2;
    let fabric = FabricKind::resolve(cfg.fabric, FabricKind::Sim);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let built;
    let setup = match q.setup {
        Some(s) => s,
        None => {
            let (s, secs) = t.span("runtime.setup_build", op, |_| {
                build_session_setup_on(q.deployment, m, cfg.seed, &mut rng, fabric)
                    .expect("setup builds")
            });
            phase("runtime.setup_build", secs);
            built = s;
            &built
        }
    };
    let ctx = &setup.ctx;
    let pp = PedersenParams::standard();
    let pool = ParConfig::serial().with_shards(1).sharded_pool();
    let tree_fanout = q.prepared.plan.vignettes.iter().find_map(|v| match v.op {
        PhysOp::SumTree { fanout } => Some((fanout as usize).max(2)),
        _ => None,
    });

    // The session key, shared among the keygen committee; every window
    // boundary redistributes it to the next committee.
    let key_secret =
        arboretum::crypto::group::scalar_from_hash(&arboretum::crypto::sha256::sha256(
            &setup.sk.s.iter().map(|&c| c as u8).collect::<Vec<u8>>(),
        ));
    let mut sharing = feldman_share(key_secret, threshold, m, &mut rng);

    let mut steps: Vec<Vec<u8>> = Vec::new();
    let mut acc: Option<Ciphertext> = None;
    let mut to_reject = q.rejected;
    for (w, devices) in q.windows.iter().enumerate() {
        let (mut proofs, secs) = t.span("zkp.prove", op, |_| {
            devices
                .iter()
                .map(|&i| {
                    let mut dev_rng = StdRng::seed_from_u64(cfg.seed ^ ((i as u64 + 1) << 20));
                    let bits: Vec<u64> = q.deployment.db[i].iter().map(|&v| v as u64).collect();
                    prove_one_hot(&pp, &bits, &mut dev_rng).expect("row is one-hot")
                })
                .collect::<Vec<_>>()
        });
        phase("zkp.prove", secs);
        out.uploads += proofs.len();
        out.proof_bytes = proofs.last().map_or(out.proof_bytes, |p| p.size_bytes());
        for p in proofs.iter_mut().take(to_reject) {
            p.bit_proofs.pop();
        }
        to_reject = to_reject.saturating_sub(proofs.len());

        let (verdicts, secs) = t.span("zkp.verify", op, |_| {
            proofs
                .iter()
                .map(|p| verify_one_hot_detailed(&pp, p).is_ok())
                .collect::<Vec<bool>>()
        });
        phase("zkp.verify", secs);

        let (cts, secs) = t.span("bgv.encrypt", op, |_| {
            devices
                .iter()
                .zip(&verdicts)
                .filter(|(_, ok)| **ok)
                .map(|(&i, _)| {
                    let vals: Vec<u64> = q.deployment.db[i].iter().map(|&v| v as u64).collect();
                    let msg = bgv::encode_coeffs(ctx, &vals).expect("row fits the ring");
                    bgv::encrypt(ctx, &setup.pk, &msg, &mut rng)
                })
                .collect::<Vec<Ciphertext>>()
        });
        phase("bgv.encrypt", secs);
        steps.extend(
            devices
                .iter()
                .zip(&verdicts)
                .filter(|(_, ok)| **ok)
                .map(|(i, _)| format!("input-{i}-ok").into_bytes()),
        );
        out.accepted += cts.len();

        let had_acc = acc.is_some();
        let folded = cts.len();
        let (sum, secs) = t.span("bgv.aggregate", op, |_| {
            let mut parts: Vec<Ciphertext> = acc.take().into_iter().chain(cts).collect();
            match tree_fanout {
                Some(fanout) => {
                    while parts.len() > 1 {
                        parts = bgv::par_sum_chunks_sharded(&pool, ctx, parts, fanout);
                    }
                    parts.pop()
                }
                None => bgv::par_sum_sharded(&pool, ctx, parts),
            }
        });
        phase("bgv.aggregate", secs);
        out.adds += (folded + usize::from(had_acc)).saturating_sub(1);
        acc = sum;
        if let Some(ct) = &acc {
            let mut step = b"aggregator-sum".to_vec();
            step.extend_from_slice(&ciphertext_digest(ct));
            steps.push(step);
        }

        // No boundary follows a stream's last window; the one-shot path
        // hands the key from the keygen to the decryption committee.
        if w + 1 == q.windows.len() && q.windows.len() > 1 {
            continue;
        }
        let mut framed = 0;
        let (next, secs) = t.span("vsr.handoff", op, |_| {
            let batches: Vec<SubshareBatch> = sharing
                .shares
                .iter()
                .map(|s| {
                    let batch = redistribute_share(s, threshold, m, &mut rng);
                    framed += vsr_batch_to_message(&batch).encode_frame().len();
                    batch
                })
                .collect();
            let shares = combine_batches(&batches, &sharing.commitments, threshold, m)
                .expect("honest batches combine");
            let chosen: Vec<&SubshareBatch> = batches.iter().take(threshold + 1).collect();
            let commitments = combine_commitments(&chosen);
            framed += Message::Commitments(commitments.clone())
                .encode_frame()
                .len();
            (shares, commitments)
        });
        out.handoff_bytes += framed;
        phase("vsr.handoff", secs);
        sharing.shares = next.0;
        sharing.commitments = next.1;
        out.handoffs += 1;
    }
    let recovered = reconstruct(&sharing.shares, threshold).expect("shares reconstruct");
    assert_eq!(recovered, key_secret, "replayed key handoff lost the key");

    let total = acc.expect("at least one accepted upload");
    let categories = q.deployment.schema.row_width;
    let (counts, secs) = t.span("bgv.decrypt", op, |_| bgv::decrypt(ctx, &setup.sk, &total));
    phase("bgv.decrypt", secs);
    steps.push(b"decrypt-to-shares".to_vec());

    let program = &q.prepared.logical.program;
    let (sum_var, resume_at) = program
        .stmts
        .iter()
        .enumerate()
        .find_map(|(i, s)| match s {
            Stmt::Assign(name, Expr::Call(Builtin::Sum, _)) => Some((name.clone(), i + 1)),
            _ => None,
        })
        .expect("query aggregates with sum(db)");
    let style = if q
        .prepared
        .plan
        .vignettes
        .iter()
        .any(|v| matches!(v.op, PhysOp::ExpSample))
    {
        MechStyle::ExpSample
    } else {
        MechStyle::Gumbel
    };
    let ((outputs, transport), secs) = t.span("mpc.eval", op, |_| {
        let mut mpc = MpcEngine::new_on(m, threshold, true, cfg.seed ^ 0x6d70_6321, fabric);
        inject_with_cost(
            &mut mpc,
            Fix::ZERO,
            FunctionalityCost {
                mults: 64,
                rounds: 4,
            },
        );
        let shares = counts[..categories]
            .iter()
            .map(|&c| mpc.dealer_share(FGold::from_i64(c as i64)))
            .collect();
        let env = HashMap::from([(sum_var, MVal::SharedArr(shares))]);
        let mut eval_rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed);
        let mut evaluator = MpcEvaluator::new(&mut mpc, &mut eval_rng, env, style);
        evaluator
            .block(&program.stmts[resume_at..])
            .expect("mechanism evaluates");
        let outputs = evaluator.outputs;
        (outputs, mpc.transport_metrics())
    });
    phase("mpc.eval", secs);
    steps.push(b"mechanism-vignettes".to_vec());
    steps.push(outputs.iter().flat_map(|o| o.to_be_bytes()).collect());
    out.frames = transport.frames;
    out.framed_bytes = transport.framed_bytes_total;

    let n = q.deployment.db.len();
    let ((), secs) = t.span("runtime.audit", op, |_| {
        let log = StepLog::new(steps);
        let root = log.root();
        let k = challenges_per_device(log.len(), n as u64, cfg.p_max);
        let honest: Vec<Vec<u8>> = (0..log.len()).map(|i| log.respond(i).0).collect();
        for _ in 0..n.min(50) {
            assert!(
                audit(&log, &root, k, |i| honest[i].clone(), &mut rng),
                "replayed audit failed"
            );
        }
    });
    phase("runtime.audit", secs);
    out.phase_seconds = spent;
}
