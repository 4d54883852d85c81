//! The cost model (§4.6) and the six optimization metrics (§4.2).
//!
//! The paper builds its cost model by benchmarking each building block
//! (FHE operations, MPC start-up, incremental MPC costs, ZKP proving and
//! verification) on a reference platform, then scoring a plan by summing
//! the per-operation costs. We do exactly that: the constants below are
//! anchored to the paper's published measurements where available (BGV
//! keygen committee ≈ 700 MB / 14 min at m = 42, Gumbel-noise MPC ≈
//! 73.8 s at m = 42, RSA-2048 ≈ 767 µs, G16 verification ≈ 3 ms) and to
//! micro-benchmarks of this workspace's own substrates elsewhere (see
//! `crates/bench`). As §4.6 notes, the model need not be exact — it only
//! has to order candidates correctly.

/// The six metrics of §4.2, plus the streaming refinement of the
/// aggregator-time metric.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Aggregator computation time (core-seconds).
    pub agg_secs: f64,
    /// Aggregator bytes sent.
    pub agg_bytes: f64,
    /// Expected per-participant computation (seconds).
    pub part_exp_secs: f64,
    /// Maximum per-participant computation (seconds).
    pub part_max_secs: f64,
    /// Expected per-participant bytes sent.
    pub part_exp_bytes: f64,
    /// Maximum per-participant bytes sent.
    pub part_max_bytes: f64,
    /// Aggregator core-seconds attributable to a single ingestion
    /// window of the aggregation stage. For whole-epoch plans this
    /// equals the stage's `agg_secs`; windowed ingestion amortizes the
    /// same total over `w` windows plus per-window checkpoint and
    /// handoff overheads.
    pub window_agg_secs: f64,
}

impl Metrics {
    /// Component-wise sum, except the max metrics which take the max.
    pub fn combine(mut self, other: Self) -> Self {
        self.agg_secs += other.agg_secs;
        self.agg_bytes += other.agg_bytes;
        self.part_exp_secs += other.part_exp_secs;
        self.part_exp_bytes += other.part_exp_bytes;
        self.window_agg_secs += other.window_agg_secs;
        // A device serves on at most one committee per query (§5.1), so
        // worst-case cost is the worst single role, not a sum.
        self.part_max_secs = self.part_max_secs.max(other.part_max_secs);
        self.part_max_bytes = self.part_max_bytes.max(other.part_max_bytes);
        self
    }

    /// Reads the metric selected by a [`Goal`].
    pub fn get(&self, goal: Goal) -> f64 {
        match goal {
            Goal::AggSecs => self.agg_secs,
            Goal::AggBytes => self.agg_bytes,
            Goal::ParticipantExpectedSecs => self.part_exp_secs,
            Goal::ParticipantMaxSecs => self.part_max_secs,
            Goal::ParticipantExpectedBytes => self.part_exp_bytes,
            Goal::ParticipantMaxBytes => self.part_max_bytes,
        }
    }
}

/// Which metric to minimize.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Goal {
    /// Aggregator computation time.
    AggSecs,
    /// Aggregator bytes sent.
    AggBytes,
    /// Expected participant computation time.
    ParticipantExpectedSecs,
    /// Maximum participant computation time.
    ParticipantMaxSecs,
    /// Expected participant bytes sent.
    ParticipantExpectedBytes,
    /// Maximum participant bytes sent.
    ParticipantMaxBytes,
}

/// Upper limits on each metric (`None` = unconstrained).
#[derive(Clone, Copy, Debug, Default)]
pub struct Limits {
    /// Aggregator core-seconds.
    pub agg_secs: Option<f64>,
    /// Aggregator bytes sent.
    pub agg_bytes: Option<f64>,
    /// Expected participant seconds.
    pub part_exp_secs: Option<f64>,
    /// Maximum participant seconds.
    pub part_max_secs: Option<f64>,
    /// Expected participant bytes.
    pub part_exp_bytes: Option<f64>,
    /// Maximum participant bytes.
    pub part_max_bytes: Option<f64>,
    /// Aggregator core-seconds per ingestion window (streaming
    /// deployments with a fixed per-window compute budget).
    pub window_agg_secs: Option<f64>,
}

impl Limits {
    /// The evaluation defaults of §7.2: participants may send up to 4 GB
    /// and compute up to 20 minutes. The aggregator cap is set to 20,000
    /// core-hours — §7.2 quotes "1,000 core hours", but the paper's own
    /// Figure 8(b) shows aggregator loads up to ~15 hours × 1,000 cores,
    /// so the operative envelope is tens of thousands of core-hours;
    /// Figure 10's explicit `A ∈ {1000, 5000}` sweeps use the tighter
    /// values directly.
    pub fn paper_defaults() -> Self {
        Self {
            agg_secs: Some(20_000.0 * 3600.0),
            agg_bytes: None,
            part_exp_secs: None,
            part_max_secs: Some(20.0 * 60.0),
            part_exp_bytes: None,
            part_max_bytes: Some(4.0e9),
            window_agg_secs: None,
        }
    }

    /// Whether `m` violates any limit.
    pub fn violated_by(&self, m: &Metrics) -> bool {
        fn over(limit: Option<f64>, v: f64) -> bool {
            limit.is_some_and(|l| v > l)
        }
        over(self.agg_secs, m.agg_secs)
            || over(self.agg_bytes, m.agg_bytes)
            || over(self.part_exp_secs, m.part_exp_secs)
            || over(self.part_max_secs, m.part_max_secs)
            || over(self.part_exp_bytes, m.part_exp_bytes)
            || over(self.part_max_bytes, m.part_max_bytes)
            || over(self.window_agg_secs, m.window_agg_secs)
    }
}

/// Calibrated per-primitive costs on the reference platform.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// BGV ciphertext bytes per slot (135-bit modulus ≈ 17 bytes, two
    /// polynomials).
    pub ct_bytes_per_slot: f64,
    /// BGV encryption seconds per ciphertext at full degree `2^15`.
    pub bgv_encrypt_secs: f64,
    /// BGV homomorphic addition, seconds per ciphertext pair.
    pub bgv_add_secs: f64,
    /// BGV ciphertext multiplication (with relinearization), seconds.
    pub bgv_mul_secs: f64,
    /// FHE evaluation of one exponential / comparison-grade gadget per
    /// category, seconds (TFHE-style circuits are far slower than adds).
    pub fhe_gadget_secs: f64,
    /// G16 proof verification, seconds (including the signature check
    /// that prevents proof replay, §6).
    pub zkp_verify_secs: f64,
    /// Aggregator per-upload ingest cost, seconds: deserializing and
    /// accumulating one ~1 MB ciphertext upload end-to-end.
    pub agg_ingest_secs: f64,
    /// G16 base proving cost, seconds.
    pub zkp_prove_base_secs: f64,
    /// G16 proving cost per constraint, seconds.
    pub zkp_prove_per_constraint_secs: f64,
    /// Serialized proof + signature bytes.
    pub zkp_bytes: f64,
    /// MPC committee setup (join, triple-gen base) per member, seconds.
    pub mpc_setup_secs: f64,
    /// MPC setup traffic per member, bytes.
    pub mpc_setup_bytes: f64,
    /// Distributed BGV keygen at `m = 42`, full degree: seconds.
    pub mpc_keygen_secs_42: f64,
    /// Distributed BGV keygen traffic per member at `m = 42`, bytes.
    pub mpc_keygen_bytes_42: f64,
    /// Distributed decryption per ciphertext per member, seconds.
    pub mpc_decrypt_secs: f64,
    /// Distributed decryption traffic per member per ciphertext, bytes.
    pub mpc_decrypt_bytes: f64,
    /// One Gumbel noise sample in MPC at `m = 42`, seconds (§7.5: 73.8 s).
    pub mpc_gumbel_secs_42: f64,
    /// Gumbel MPC traffic per member, bytes.
    pub mpc_gumbel_bytes: f64,
    /// One Laplace sample in MPC (one logarithm instead of two).
    pub mpc_laplace_secs_42: f64,
    /// Laplace MPC traffic per member, bytes.
    pub mpc_laplace_bytes: f64,
    /// One secure comparison in MPC, seconds.
    pub mpc_compare_secs: f64,
    /// Comparison traffic per member, bytes.
    pub mpc_compare_bytes: f64,
    /// VSR handoff per member per secret of ciphertext size, bytes.
    pub vsr_bytes_factor: f64,
    /// Streaming: serializing one accumulator checkpoint (ciphertext
    /// digest + counters), seconds per window.
    pub stream_checkpoint_secs: f64,
    /// Streaming: one committee VSR handoff across a window boundary,
    /// aggregator-relayed, seconds per boundary.
    pub stream_handoff_secs: f64,
    /// Reference full ring degree.
    pub full_degree: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            ct_bytes_per_slot: 2.0 * 17.0,
            bgv_encrypt_secs: 0.08,
            bgv_add_secs: 2.0e-5,
            bgv_mul_secs: 0.5,
            fhe_gadget_secs: 20.0,
            zkp_verify_secs: 0.007,
            agg_ingest_secs: 0.01,
            zkp_prove_base_secs: 0.5,
            zkp_prove_per_constraint_secs: 2.0e-5,
            zkp_bytes: 192.0,
            mpc_setup_secs: 20.0,
            mpc_setup_bytes: 10.0e6,
            mpc_keygen_secs_42: 840.0,
            mpc_keygen_bytes_42: 700.0e6,
            mpc_decrypt_secs: 2.0,
            mpc_decrypt_bytes: 2.0e6,
            mpc_gumbel_secs_42: 73.8,
            mpc_gumbel_bytes: 30.0e6,
            mpc_laplace_secs_42: 36.0,
            mpc_laplace_bytes: 15.0e6,
            mpc_compare_secs: 3.0,
            mpc_compare_bytes: 2.0e6,
            vsr_bytes_factor: 2.0,
            stream_checkpoint_secs: 0.05,
            stream_handoff_secs: 0.2,
            full_degree: (1 << 15) as f64,
        }
    }
}

impl CostModel {
    /// Ring degree used for `categories` slots: enough slots, at least
    /// `2^12` for RLWE security, at most `2^15`.
    pub fn ring_degree(&self, categories: u64) -> f64 {
        let needed = (categories.max(1) as f64).log2().ceil().exp2();
        needed.clamp((1u64 << 12) as f64, self.full_degree)
    }

    /// Serialized ciphertext bytes for `categories` categories.
    pub fn ct_bytes(&self, categories: u64) -> f64 {
        self.ring_degree(categories) * self.ct_bytes_per_slot
    }

    /// Number of ciphertexts needed to hold `categories` values.
    pub fn ct_blocks(&self, categories: u64) -> f64 {
        (categories as f64 / self.full_degree).ceil().max(1.0)
    }

    /// Degree scale factor relative to the full ring.
    pub fn degree_scale(&self, categories: u64) -> f64 {
        self.ring_degree(categories) / self.full_degree
    }

    /// Committee-size scale factor relative to the `m = 42` benchmarks
    /// (SPDZ-wise traffic and time grow roughly linearly in `m`).
    pub fn m_scale(&self, m: u64) -> f64 {
        m as f64 / 42.0
    }

    /// G16 constraints for a one-hot statement over `categories`.
    pub fn one_hot_constraints(&self, categories: u64) -> f64 {
        2.0 * categories as f64 + 600.0
    }

    /// ZKP proving time for one participant input.
    pub fn prove_secs(&self, categories: u64) -> f64 {
        self.zkp_prove_base_secs
            + self.one_hot_constraints(categories) * self.zkp_prove_per_constraint_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_combine_sums_and_maxes() {
        let a = Metrics {
            agg_secs: 1.0,
            agg_bytes: 10.0,
            part_exp_secs: 0.1,
            part_max_secs: 100.0,
            part_exp_bytes: 5.0,
            part_max_bytes: 50.0,
            window_agg_secs: 0.5,
        };
        let b = Metrics {
            agg_secs: 2.0,
            agg_bytes: 20.0,
            part_exp_secs: 0.2,
            part_max_secs: 30.0,
            part_exp_bytes: 6.0,
            part_max_bytes: 500.0,
            window_agg_secs: 0.25,
        };
        let c = a.combine(b);
        assert_eq!(c.agg_secs, 3.0);
        assert_eq!(c.agg_bytes, 30.0);
        assert!((c.part_exp_secs - 0.3).abs() < 1e-12);
        assert_eq!(c.part_max_secs, 100.0);
        assert_eq!(c.part_max_bytes, 500.0);
        assert_eq!(c.window_agg_secs, 0.75);
    }

    #[test]
    fn limits_detect_violations() {
        let l = Limits::paper_defaults();
        let ok = Metrics::default();
        assert!(!l.violated_by(&ok));
        let bad = Metrics {
            part_max_secs: 21.0 * 60.0,
            ..Metrics::default()
        };
        assert!(l.violated_by(&bad));
        let bad = Metrics {
            agg_secs: 20_001.0 * 3600.0,
            ..Metrics::default()
        };
        assert!(l.violated_by(&bad));
        // The per-window cap is unconstrained by default but enforced
        // when set.
        let windowed = Metrics {
            window_agg_secs: 2.0,
            ..Metrics::default()
        };
        assert!(!l.violated_by(&windowed));
        let capped = Limits {
            window_agg_secs: Some(1.0),
            ..Limits::paper_defaults()
        };
        assert!(capped.violated_by(&windowed));
    }

    #[test]
    fn ring_degree_clamps() {
        let cm = CostModel::default();
        assert_eq!(cm.ring_degree(1), 4096.0);
        assert_eq!(cm.ring_degree(41_683), 32_768.0);
        assert_eq!(cm.ring_degree(1 << 15), 32_768.0);
        assert_eq!(cm.ring_degree(5_000), 8_192.0);
    }

    #[test]
    fn multi_block_ciphertexts_above_full_degree() {
        // The zip-code query (C = 41,683) exceeds the 2^15-slot ring:
        // two ciphertext blocks per participant.
        let cm = CostModel::default();
        assert_eq!(cm.ct_blocks(41_683), 2.0);
        assert_eq!(cm.ct_blocks(1 << 15), 1.0);
        assert_eq!(cm.ct_blocks(1), 1.0);
        assert_eq!(cm.ct_blocks((1 << 16) + 1), 3.0);
    }

    #[test]
    fn degree_scale_tracks_categories() {
        let cm = CostModel::default();
        assert_eq!(cm.degree_scale(1 << 15), 1.0);
        assert_eq!(cm.degree_scale(1), 0.125);
        assert!(cm.degree_scale(5000) < 1.0);
    }

    #[test]
    fn prove_secs_grows_with_categories() {
        let cm = CostModel::default();
        assert!(cm.prove_secs(41_683) > cm.prove_secs(10));
        // Still seconds-scale even for zip codes.
        assert!(cm.prove_secs(41_683) < 10.0);
    }

    #[test]
    fn paper_anchor_points() {
        let cm = CostModel::default();
        // Full-degree ciphertext ≈ 1.1 MB ("about 1.1 MB, the size of a
        // small image file", §7.2).
        let ct = cm.ct_bytes(1 << 15);
        assert!((1.0e6..1.3e6).contains(&ct), "ct bytes {ct}");
        // Minimum ciphertext ≈ 139 kB (the 132 kB lower end of Fig. 6a).
        let small = cm.ct_bytes(1);
        assert!((1.2e5..1.6e5).contains(&small), "small ct {small}");
        // A billion uploads (verify + ingest) on 1,000 cores stays under
        // the "below 10 hours" claim of §7.2.
        let per_core_hours = 1e9 * (cm.zkp_verify_secs + cm.agg_ingest_secs) / 3600.0 / 1000.0;
        assert!(per_core_hours < 10.0, "{per_core_hours} h");
        // With the A = 1000 core-hour cap of Figure 10, verification alone
        // stops fitting between 2^28 and 2^29 participants (the paper's
        // red line "stops after N = 2^28").
        let cap = 1000.0 * 3600.0;
        assert!((1u64 << 28) as f64 * cm.zkp_verify_secs <= cap);
        assert!((1u64 << 29) as f64 * cm.zkp_verify_secs > cap);
    }
}
