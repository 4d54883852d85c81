//! The benchmark's names: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root says the
//! same, and says why each workload exists; a unit test keeps the two
//! equal.

/// How long one run measures when `--seconds` is not given; also
/// `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 17;

/// The workloads, in the order a full pass runs them.
pub const WORKLOADS: [&str; 6] = [
    "ingest_wide",
    "ingest_narrow",
    "stream_churn",
    "mechanism_mpc",
    "plan_corpus",
    "service_mix",
];

/// One metric of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// The name the binary prints.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end: the share of the parent's median it may worsen by.
    /// Per-layer: unused.
    pub bound: f64,
    /// A count made by the program that repeats exactly for one
    /// `(workload, seed)`; `compare` asserts these are identical.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: "lower",
        bound: 0.0,
        exact: true,
    }
}

/// What a user of the system sees; every workload reports every one.
///
/// The timing bounds are the driver's maximum, not ISSUE 11's 10–15 %:
/// ten runs of unchanged code spread by up to 9 % when the host changes
/// state between them (README, "Noise on this host"), and the driver
/// asks for a spread under a third of the bound.
pub static END_TO_END: [MetricSpec; 3] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("query_latency_min_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.1),
];

/// Single-layer probes; a workload that does not exercise a layer
/// reports 0 for it.
pub static PER_LAYER: [MetricSpec; 61] = [
    layer("field.ntt_forward_ns", "ns", "lower"),
    layer("field.negacyclic_mul_ns", "ns", "lower"),
    layer("crypto.pedersen_commit_ns", "ns", "lower"),
    layer("crypto.fixed_base_exp_ns", "ns", "lower"),
    layer("crypto.multiexp_ns_per_pair", "ns", "lower"),
    layer("crypto.sha256_ns_per_block", "ns", "lower"),
    layer("zkp.prove_onehot_us", "us", "lower"),
    layer("zkp.verify_onehot_us", "us", "lower"),
    count("zkp.proof_bytes", "bytes"),
    count("zkp.verify_ops", "count"),
    count("zkp.rejected", "count"),
    layer("bgv.keygen_us", "us", "lower"),
    layer("bgv.encrypt_us", "us", "lower"),
    layer("bgv.add_us", "us", "lower"),
    layer("bgv.decrypt_us", "us", "lower"),
    count("bgv.ciphertext_bytes", "bytes"),
    count("bgv.aggregate_ops", "count"),
    layer("sortition.registry_us_per_device", "us", "lower"),
    layer("sortition.select_us_per_device", "us", "lower"),
    layer("vsr.handoff_us", "us", "lower"),
    count("vsr.handoffs", "count"),
    count("vsr.handoff_bytes", "bytes"),
    count("mpc.rounds", "count"),
    count("mpc.bytes", "bytes"),
    count("mpc.triples", "count"),
    count("mpc.field_mults", "count"),
    layer("mpc.eval_s", "s", "lower"),
    count("net.frames", "count"),
    count("net.framed_bytes", "bytes"),
    layer("net.evented_ns_per_frame", "ns", "lower"),
    layer("lang.parse_s", "s", "lower"),
    layer("lang.certify_s", "s", "lower"),
    layer("planner.extract_s", "s", "lower"),
    layer("planner.search_s", "s", "lower"),
    count("planner.candidates", "count"),
    count("planner.prefixes", "count"),
    count("planner.pruned", "count"),
    layer("planner.cache_hit_share", "share", "higher"),
    layer("dp.ledger_charge_us", "us", "lower"),
    layer("runtime.setup_build_s", "s", "lower"),
    layer("runtime.audit_s", "s", "lower"),
    layer("runtime.stream_over_batch", "ratio", "lower"),
    layer("runtime.unattributed_share", "share", "lower"),
    layer("runtime.uploads_per_s", "1/s", "higher"),
    layer("runtime.queries_per_s", "1/s", "higher"),
    layer("runtime.latency_p50_s", "s", "lower"),
    layer("runtime.latency_tail_s", "s", "lower"),
    layer("runtime.latency_tail_pct", "pct", "higher"),
    layer("service.amortized_over_oneshot", "ratio", "lower"),
    layer("service.setup_ops_per_query", "count", "lower"),
    layer("phase.setup_build_share", "share", "lower"),
    layer("phase.prove_share", "share", "lower"),
    layer("phase.verify_share", "share", "lower"),
    layer("phase.encrypt_share", "share", "lower"),
    layer("phase.aggregate_share", "share", "lower"),
    layer("phase.handoff_share", "share", "lower"),
    layer("phase.decrypt_share", "share", "lower"),
    layer("phase.mpc_share", "share", "lower"),
    layer("phase.audit_share", "share", "lower"),
    layer("trace.overhead_share", "share", "lower"),
    count("trace.spans_per_op", "count"),
];

/// The end-to-end or per-layer spec called `name`.
pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS {
            assert!(well_formed(name, 64, "_.-"), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(m.name, 64, "_.-"), "{}", m.name);
            assert!(well_formed(m.unit, 16, "_/%.-"), "{}", m.unit);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let committed = include_str!("../../BENCHMARK.json");
        // The file is hand-kept, a workload or metric a line.
        let mut expected: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{w}\", \"why\": "))
            .collect();
        for m in &END_TO_END {
            expected.push(format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            ));
        }
        for m in &PER_LAYER {
            expected.push(format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            ));
        }
        let listed: Vec<&str> = committed
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .filter(|l| l.starts_with("{\"name\": "))
            .collect();
        assert_eq!(listed.len(), expected.len());
        for (line, want) in listed.iter().zip(&expected) {
            assert!(line.starts_with(want.as_str()), "{line} is not {want}");
        }
        assert!(committed.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
        assert!(committed.len() <= 64 * 1024);
    }
}
