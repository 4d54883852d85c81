//! Physical plans: vignettes, placement, and per-vignette scoring.
//!
//! A physical plan is a sequence of *vignettes* (§4.4), each assigned to
//! the aggregator, to (parallel) committees of participant devices, or to
//! individual participants. Encryption requirements follow §4.5: data
//! derived from `db` is AHE-encrypted while only added, FHE-encrypted
//! when multiplied or compared outside an MPC, and secret-shared inside
//! committee vignettes. Scoring computes the six metrics of §4.2 from the
//! calibrated cost model.

use crate::cost::{CostModel, Metrics};

/// Cryptosystem protecting a vignette's data (§4.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Cleartext (released or public data).
    Clear,
    /// Additively homomorphic encryption.
    Ahe,
    /// Fully homomorphic encryption.
    Fhe,
    /// Secret shares inside an MPC.
    Shares,
}

/// Where a vignette runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Location {
    /// The (untrusted) aggregator.
    Aggregator,
    /// `count` parallel committees of participant devices.
    Committees(u64),
    /// `count` individual participant devices.
    Participants(u64),
}

/// Committee roles, for reporting per-committee-type costs (Figure 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommitteeRole {
    /// Key generation (and budget check).
    KeyGen,
    /// Distributed decryption to secret shares.
    Decryption,
    /// Everything else: noising, comparisons, score preparation.
    Operations,
}

/// A concrete, instantiated operation.
#[derive(Clone, Debug, PartialEq)]
pub enum PhysOp {
    /// Committee generates the AHE/FHE keypair and checks the budget.
    KeyGen,
    /// Every participant encrypts its one-hot input and attaches a ZKP;
    /// the aggregator distributes the public key / query certificate.
    EncryptInputs,
    /// Aggregator verifies all input ZKPs.
    VerifyInputs,
    /// Aggregator sums all input ciphertexts (AHE adds).
    AggregatorSum,
    /// Participants sum ciphertexts in a tree of the given fanout.
    SumTree {
        /// Children per tree node.
        fanout: u64,
    },
    /// Aggregator ingests uploads in `windows` streaming windows,
    /// folding each window's ⊞-partials into a checkpointed
    /// accumulator with a committee VSR handoff at every boundary
    /// (`runtime::stream`).
    WindowedIngest {
        /// Number of ingestion windows in the epoch.
        windows: u64,
    },
    /// Aggregator evaluates score preparation under FHE.
    ScorePrepFhe {
        /// Arithmetic (mul-grade) operations per category.
        ops_per_category: u64,
        /// Comparison-grade gadgets per category.
        cmps_per_category: u64,
    },
    /// Committees evaluate score preparation in MPC, `chunk` categories
    /// per committee.
    ScorePrepMpc {
        /// Arithmetic operations per category.
        ops_per_category: u64,
        /// Categories handled per committee.
        chunk: u64,
    },
    /// Committees decrypt the aggregate into secret shares, `batch`
    /// categories per committee.
    DecryptShares {
        /// Categories per committee.
        batch: u64,
    },
    /// Committees add noise to shared scores, `batch` samples per
    /// committee.
    NoiseGen {
        /// Gumbel (exponential mechanism) vs Laplace.
        gumbel: bool,
        /// Noise samples per committee.
        batch: u64,
    },
    /// Committees run an argmax tournament over shared scores.
    ArgMaxTree {
        /// Scores compared per committee (tree fanout).
        fanout: u64,
        /// Tournament passes (k for top-k).
        passes: u64,
    },
    /// The exponentiate-and-sample `em` instantiation (Figure 4 left):
    /// FHE exponentiation on the aggregator plus a sequential sampling
    /// scan in one committee.
    ExpSample,
    /// Cleartext post-processing on the aggregator.
    PostProcess {
        /// Operation count.
        ops: u64,
    },
    /// The output committee reconstructs and releases the result.
    OutputRelease,
}

/// A vignette: an operation bound to a location.
#[derive(Clone, Debug, PartialEq)]
pub struct Vignette {
    /// The operation.
    pub op: PhysOp,
    /// Where it runs.
    pub location: Location,
    /// The protecting cryptosystem.
    pub scheme: Scheme,
    /// Role label for committee vignettes.
    pub role: Option<CommitteeRole>,
}

/// A complete physical plan with its derived statistics.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The vignettes in execution order.
    pub vignettes: Vec<Vignette>,
    /// Population size `N`.
    pub n: u64,
    /// Number of categories.
    pub categories: u64,
    /// Total committees across all vignettes.
    pub total_committees: u64,
    /// Minimum committee size for this plan (§5.1).
    pub committee_size: u64,
    /// The plan's scored metrics.
    pub metrics: Metrics,
}

impl PhysOp {
    /// Number of committees this operation seats.
    pub fn committees(&self, categories: u64) -> u64 {
        match self {
            Self::KeyGen | Self::OutputRelease | Self::ExpSample => 1,
            Self::DecryptShares { batch } => categories.div_ceil(*batch),
            Self::NoiseGen { batch, .. } => categories.div_ceil(*batch),
            Self::ArgMaxTree { fanout, passes } => {
                let per_pass =
                    (categories.saturating_sub(1)).div_ceil(fanout.saturating_sub(1).max(1));
                per_pass.max(1) * passes
            }
            Self::ScorePrepMpc { chunk, .. } => categories.div_ceil(*chunk),
            _ => 0,
        }
    }

    /// Default role for committee operations.
    pub fn role(&self) -> Option<CommitteeRole> {
        match self {
            Self::KeyGen => Some(CommitteeRole::KeyGen),
            Self::DecryptShares { .. } => Some(CommitteeRole::Decryption),
            Self::NoiseGen { .. }
            | Self::ArgMaxTree { .. }
            | Self::ScorePrepMpc { .. }
            | Self::ExpSample
            | Self::OutputRelease => Some(CommitteeRole::Operations),
            _ => None,
        }
    }

    /// Per-committee-member cost `(seconds, bytes sent)` for committee
    /// operations, `(0, 0)` otherwise.
    pub fn member_cost(&self, cm: &CostModel, categories: u64, m: u64) -> (f64, f64) {
        let ms = cm.m_scale(m);
        let ds = cm.degree_scale(categories);
        match self {
            Self::KeyGen => (
                cm.mpc_keygen_secs_42 * ms * ds,
                cm.mpc_keygen_bytes_42 * ms * ds,
            ),
            Self::DecryptShares { batch } => (
                cm.mpc_setup_secs + cm.mpc_decrypt_secs * ms * ds,
                cm.mpc_setup_bytes
                    + cm.mpc_decrypt_bytes * ms * ds
                    + cm.vsr_bytes_factor * m as f64 * 8.0 * *batch as f64,
            ),
            Self::NoiseGen { gumbel, batch } => {
                let (s, b) = if *gumbel {
                    (cm.mpc_gumbel_secs_42, cm.mpc_gumbel_bytes)
                } else {
                    (cm.mpc_laplace_secs_42, cm.mpc_laplace_bytes)
                };
                (
                    cm.mpc_setup_secs + s * ms * *batch as f64,
                    cm.mpc_setup_bytes
                        + b * ms * *batch as f64
                        + cm.vsr_bytes_factor * m as f64 * 8.0 * *batch as f64,
                )
            }
            Self::ArgMaxTree { fanout, .. } => {
                let cmps = fanout.saturating_sub(1).max(1) as f64;
                (
                    cm.mpc_setup_secs + cmps * cm.mpc_compare_secs * ms,
                    cm.mpc_setup_bytes
                        + cmps * cm.mpc_compare_bytes * ms
                        + cm.vsr_bytes_factor * m as f64 * 16.0,
                )
            }
            Self::ScorePrepMpc {
                ops_per_category,
                chunk,
            } => {
                let ops = (*ops_per_category * *chunk) as f64;
                (
                    cm.mpc_setup_secs + ops * 0.05 * ms,
                    cm.mpc_setup_bytes
                        + ops * 0.2e6 * ms
                        + cm.vsr_bytes_factor * m as f64 * 8.0 * *chunk as f64,
                )
            }
            Self::ExpSample => {
                // Sequential sampling scan: one comparison per category.
                (
                    cm.mpc_setup_secs + categories as f64 * cm.mpc_compare_secs * ms,
                    cm.mpc_setup_bytes + categories as f64 * cm.mpc_compare_bytes * ms,
                )
            }
            Self::OutputRelease => (cm.mpc_setup_secs + 1.0, cm.mpc_setup_bytes),
            _ => (0.0, 0.0),
        }
    }
}

/// Scores one vignette into the six metrics.
pub fn vignette_metrics(v: &Vignette, cm: &CostModel, n: u64, categories: u64, m: u64) -> Metrics {
    let nf = n as f64;
    let ct = cm.ct_bytes(categories);
    let blocks = cm.ct_blocks(categories);
    let ds = cm.degree_scale(categories);
    let mut out = Metrics::default();
    match &v.op {
        PhysOp::EncryptInputs => {
            let secs = (cm.bgv_encrypt_secs * ds + cm.prove_secs(categories)) * blocks;
            let bytes = (ct + cm.zkp_bytes) * blocks;
            out.part_exp_secs = secs;
            out.part_max_secs = secs;
            out.part_exp_bytes = bytes;
            out.part_max_bytes = bytes;
            // Aggregator distributes the public key / certificate to all.
            out.agg_bytes = nf * ct * blocks;
        }
        PhysOp::VerifyInputs => {
            out.agg_secs = nf * cm.zkp_verify_secs;
        }
        PhysOp::AggregatorSum => {
            // Per upload: deserialize/ingest plus the homomorphic add.
            out.agg_secs = nf * (cm.agg_ingest_secs + cm.bgv_add_secs * ds) * blocks;
            // One-shot ingestion is a single window.
            out.window_agg_secs = out.agg_secs;
        }
        PhysOp::SumTree { fanout } => {
            let inputs = nf * blocks;
            let nodes = (inputs / (*fanout as f64 - 1.0).max(1.0)).ceil();
            let node_secs = *fanout as f64 * cm.bgv_add_secs * ds + 0.01;
            let node_bytes = ct; // Upload of the partial sum.
            out.part_exp_secs = nodes / nf * node_secs;
            out.part_exp_bytes = nodes / nf * node_bytes;
            out.part_max_secs = node_secs;
            out.part_max_bytes = node_bytes;
            // The aggregator relays every child ciphertext to its node.
            out.agg_bytes = nodes * *fanout as f64 * ct;
            // Tree levels overlap (`par_sum_chunks` runs every level
            // on the same pool), so the relay makespan is the leaf level
            // plus one pipelined slot per interior level — not the
            // sequential node total.
            let f = (*fanout as f64).max(2.0);
            let leaf_nodes = (inputs / f).ceil();
            let mut level = leaf_nodes;
            let mut depth = 1.0;
            while level > 1.0 {
                level = (level / f).ceil();
                depth += 1.0;
            }
            out.agg_secs = (leaf_nodes + depth - 1.0) * 1.0e-5;
            out.window_agg_secs = out.agg_secs;
        }
        PhysOp::WindowedIngest { windows } => {
            let w = (*windows).max(1) as f64;
            // Same ⊞-fold work as `AggregatorSum` in total...
            let total = nf * (cm.agg_ingest_secs + cm.bgv_add_secs * ds) * blocks;
            let boundaries = w - 1.0;
            // ...plus a checkpoint per window and a VSR handoff per
            // boundary.
            out.agg_secs =
                total + w * cm.stream_checkpoint_secs + boundaries * cm.stream_handoff_secs;
            out.window_agg_secs = total / w + cm.stream_checkpoint_secs + cm.stream_handoff_secs;
            // Boundary handoffs relay each member's resharing batch
            // (ciphertext-sized, ×vsr_bytes_factor) through the
            // aggregator mailbox.
            out.agg_bytes = boundaries * m as f64 * cm.vsr_bytes_factor * ct;
        }
        PhysOp::ScorePrepFhe {
            ops_per_category,
            cmps_per_category,
        } => {
            out.agg_secs = categories as f64
                * (*ops_per_category as f64 * cm.bgv_mul_secs * ds
                    + *cmps_per_category as f64 * cm.fhe_gadget_secs);
        }
        PhysOp::ExpSample => {
            // FHE exponentiation of every category on the aggregator...
            out.agg_secs = categories as f64 * cm.fhe_gadget_secs;
            // ...plus the committee scan.
            let (secs, bytes) = v.op.member_cost(cm, categories, m);
            let prob = m as f64 / nf;
            out.part_exp_secs = prob * secs;
            out.part_exp_bytes = prob * bytes;
            out.part_max_secs = secs;
            out.part_max_bytes = bytes;
            out.agg_bytes = m as f64 * bytes;
        }
        PhysOp::PostProcess { ops } => {
            out.agg_secs = *ops as f64 * 1.0e-8;
        }
        PhysOp::KeyGen
        | PhysOp::DecryptShares { .. }
        | PhysOp::NoiseGen { .. }
        | PhysOp::ArgMaxTree { .. }
        | PhysOp::ScorePrepMpc { .. }
        | PhysOp::OutputRelease => {
            let committees = v.op.committees(categories) as f64;
            let (secs, bytes) = v.op.member_cost(cm, categories, m);
            let prob = committees * m as f64 / nf;
            out.part_exp_secs = prob.min(1.0) * secs;
            out.part_exp_bytes = prob.min(1.0) * bytes;
            out.part_max_secs = secs;
            out.part_max_bytes = bytes;
            // All committee traffic is relayed through the aggregator
            // ("mailbox", §5.4).
            out.agg_bytes = committees * m as f64 * bytes;
            out.agg_secs += committees * m as f64 * 1.0e-5;
        }
    }
    out
}

/// Scores a vignette sequence whose committees all have `committee_size`
/// members: the per-vignette metrics combined in execution order.
pub fn score(
    vignettes: &[Vignette],
    cm: &CostModel,
    n: u64,
    categories: u64,
    committee_size: u64,
) -> Metrics {
    vignettes
        .iter()
        .map(|v| vignette_metrics(v, cm, n, categories, committee_size))
        .fold(Metrics::default(), Metrics::combine)
}

/// Assembles and scores a plan from vignettes. `committee_size` is the
/// §5.1 minimum for the plan's total committee count, which the caller
/// (the search's size memo) has already worked out.
pub fn assemble(
    vignettes: Vec<Vignette>,
    cm: &CostModel,
    n: u64,
    categories: u64,
    committee_size: u64,
) -> Plan {
    let total_committees = vignettes.iter().map(|v| v.op.committees(categories)).sum();
    let metrics = score(&vignettes, cm, n, categories, committee_size);
    Plan {
        vignettes,
        n,
        categories,
        total_committees,
        committee_size,
        metrics,
    }
}

impl Plan {
    /// Fraction of participants serving on any committee.
    pub fn committee_fraction(&self) -> f64 {
        (self.total_committees * self.committee_size) as f64 / self.n as f64
    }

    /// A structural identity for the plan: an FNV-1a hash over the
    /// vignette sequence (ops, placements, schemes) plus `n` and the
    /// category count. Two plans with the same signature chose the
    /// same physical alternatives in the same order — the determinism
    /// tests use this to check that thread count never changes *which*
    /// plan the search returns, not just its cost.
    pub fn signature(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&self.n.to_le_bytes());
        eat(&self.categories.to_le_bytes());
        for v in &self.vignettes {
            eat(format!("{v:?}").as_bytes());
        }
        h
    }

    /// Per-member cost `(seconds, bytes)` of the most expensive vignette
    /// with the given role (for Figure 7), if any.
    pub fn role_member_cost(&self, role: CommitteeRole, cm: &CostModel) -> Option<(f64, f64)> {
        self.vignettes
            .iter()
            .filter(|v| v.role == Some(role))
            .map(|v| v.op.member_cost(cm, self.categories, self.committee_size))
            .max_by(|a, b| a.0.total_cmp(&b.0))
    }
}

/// Builds a vignette with its default role.
pub fn vignette(op: PhysOp, location: Location, scheme: Scheme) -> Vignette {
    let role = op.role();
    Vignette {
        op,
        location,
        scheme,
        role,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arboretum_sortition::size::{min_committee_size, SortitionParams};

    fn cm() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn committee_counting_matches_paper_shape() {
        // topK-like: C = 2^15 categories, k = 5, decrypt batch 100,
        // per-category noise, fanout-3 argmax.
        let c = 1u64 << 15;
        let dec = PhysOp::DecryptShares { batch: 100 };
        let noise = PhysOp::NoiseGen {
            gumbel: true,
            batch: 1,
        };
        let amax = PhysOp::ArgMaxTree {
            fanout: 3,
            passes: 5,
        };
        assert_eq!(dec.committees(c), 328);
        assert_eq!(noise.committees(c), 32_768);
        assert_eq!(amax.committees(c), 81_920);
        // Total ≈ the paper's 115,334 operations+decryption committees.
        let total = dec.committees(c) + noise.committees(c) + amax.committees(c) + 1;
        assert!(
            (110_000..120_000).contains(&total),
            "total committees {total}"
        );
    }

    #[test]
    fn keygen_member_cost_matches_paper() {
        // "roughly 700 MB of traffic and 14 minutes of computation" at
        // m = 42, full degree (§7.2).
        let (secs, bytes) = PhysOp::KeyGen.member_cost(&cm(), 1 << 15, 42);
        assert!((13.0 * 60.0..15.0 * 60.0).contains(&secs), "secs {secs}");
        assert!((6.5e8..7.5e8).contains(&bytes), "bytes {bytes}");
    }

    #[test]
    fn expected_cost_scales_inversely_with_n() {
        let v = vignette(
            PhysOp::NoiseGen {
                gumbel: true,
                batch: 1,
            },
            Location::Committees(1),
            Scheme::Shares,
        );
        let small = vignette_metrics(&v, &cm(), 1 << 20, 1024, 40);
        let large = vignette_metrics(&v, &cm(), 1 << 30, 1024, 40);
        assert!(small.part_exp_secs > large.part_exp_secs * 100.0);
        // Max cost is independent of N.
        assert_eq!(small.part_max_secs, large.part_max_secs);
    }

    #[test]
    fn sum_tree_trades_aggregator_time_for_bytes() {
        let n = 1u64 << 30;
        let c = 1u64 << 15;
        let agg = vignette(PhysOp::AggregatorSum, Location::Aggregator, Scheme::Ahe);
        let tree = vignette(
            PhysOp::SumTree { fanout: 64 },
            Location::Participants(n / 64),
            Scheme::Ahe,
        );
        let ma = vignette_metrics(&agg, &cm(), n, c, 40);
        let mt = vignette_metrics(&tree, &cm(), n, c, 40);
        assert!(mt.agg_secs < ma.agg_secs / 100.0, "tree offloads compute");
        assert!(mt.agg_bytes > ma.agg_bytes, "tree costs forwarding bytes");
        assert!(mt.part_exp_secs > ma.part_exp_secs, "participants pay");
    }

    #[test]
    fn sum_tree_relay_is_pipelined_not_sequential() {
        let n = 1u64 << 30;
        let c = 1u64 << 15;
        let tree = vignette(
            PhysOp::SumTree { fanout: 64 },
            Location::Participants(n / 64),
            Scheme::Ahe,
        );
        let mt = vignette_metrics(&tree, &cm(), n, c, 40);
        // Sequential relay over every node would cost nodes × 10 µs;
        // the pipelined makespan is bounded below by the leaf level and
        // above by the old sequential model.
        let nodes = ((n as f64) / 63.0).ceil();
        let leaves = ((n as f64) / 64.0).ceil();
        assert!(mt.agg_secs < nodes * 1.0e-5, "{}", mt.agg_secs);
        assert!(mt.agg_secs >= leaves * 1.0e-5, "{}", mt.agg_secs);
    }

    #[test]
    fn windowed_ingest_amortizes_per_window_cost() {
        let n = 1u64 << 20;
        let c = 1u64 << 10;
        let one_shot = vignette(PhysOp::AggregatorSum, Location::Aggregator, Scheme::Ahe);
        let windowed = vignette(
            PhysOp::WindowedIngest { windows: 8 },
            Location::Aggregator,
            Scheme::Ahe,
        );
        let ma = vignette_metrics(&one_shot, &cm(), n, c, 40);
        let mw = vignette_metrics(&windowed, &cm(), n, c, 40);
        // Whole-epoch aggregator time gains checkpoint + handoff
        // overhead...
        assert!(mw.agg_secs > ma.agg_secs);
        // ...but the per-window budget drops by roughly the window
        // count.
        assert!(mw.window_agg_secs < ma.window_agg_secs / 4.0);
        // Every boundary relays VSR resharing traffic through the
        // aggregator mailbox; one-shot ingestion relays none.
        assert!(mw.agg_bytes > 0.0);
        assert_eq!(ma.agg_bytes, 0.0);
        // A single window degenerates to the batch row plus exactly one
        // checkpoint.
        let single = vignette(
            PhysOp::WindowedIngest { windows: 1 },
            Location::Aggregator,
            Scheme::Ahe,
        );
        let ms = vignette_metrics(&single, &cm(), n, c, 40);
        assert!((ms.agg_secs - ma.agg_secs - cm().stream_checkpoint_secs).abs() < 1e-9);
        assert_eq!(ms.agg_bytes, 0.0);
    }

    #[test]
    fn larger_noise_batches_cut_expected_raise_max() {
        let n = 1u64 << 30;
        let c = 1u64 << 15;
        let small_batch = vignette(
            PhysOp::NoiseGen {
                gumbel: true,
                batch: 1,
            },
            Location::Committees(c),
            Scheme::Shares,
        );
        let big_batch = vignette(
            PhysOp::NoiseGen {
                gumbel: true,
                batch: 64,
            },
            Location::Committees(c / 64),
            Scheme::Shares,
        );
        let ms = vignette_metrics(&small_batch, &cm(), n, c, 40);
        let mb = vignette_metrics(&big_batch, &cm(), n, c, 40);
        assert!(
            mb.part_max_secs > ms.part_max_secs * 10.0,
            "batching raises worst-case member cost"
        );
        assert!(
            mb.part_exp_secs < ms.part_exp_secs,
            "batching amortizes setup and lowers expected cost"
        );
    }

    #[test]
    fn assemble_scores_at_the_size_it_is_given() {
        let sp = SortitionParams::default();
        let c = 1u64 << 15;
        let few = assemble(
            vec![vignette(
                PhysOp::KeyGen,
                Location::Committees(1),
                Scheme::Shares,
            )],
            &cm(),
            1 << 30,
            c,
            min_committee_size(1, &sp).unwrap(),
        );
        let vignettes = vec![
            vignette(PhysOp::KeyGen, Location::Committees(1), Scheme::Shares),
            vignette(
                PhysOp::NoiseGen {
                    gumbel: true,
                    batch: 1,
                },
                Location::Committees(c),
                Scheme::Shares,
            ),
        ];
        let m = min_committee_size(c + 1, &sp).unwrap();
        let many = assemble(vignettes.clone(), &cm(), 1 << 30, c, m);
        assert_eq!(many.total_committees, c + 1);
        assert_eq!(many.committee_size, m);
        assert_eq!(many.metrics, score(&vignettes, &cm(), 1 << 30, c, m));
        assert!(many.committee_size >= few.committee_size);
        assert!(many.total_committees > few.total_committees);
        assert!(many.committee_fraction() < 0.01);
        // A larger committee costs every member more.
        let larger = assemble(vignettes, &cm(), 1 << 30, c, m + 10);
        assert!(larger.metrics.part_max_secs > many.metrics.part_max_secs);
    }
}
