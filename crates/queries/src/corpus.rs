//! The query corpus of Table 2.
//!
//! All ten evaluation queries, written in Arboretum's language exactly as
//! an analyst would write them (against a logical centralized `db`).
//! Sources are generated per category count so that literal sensitivities
//! and loop bounds match the schema, mirroring §7.1's settings: `C = 1`
//! for `hypotest` and `cms`, `C = 10` for `k-medians`, `C = 115` for
//! `bayes`, and `C = 2^15` for the categorical queries.

use arboretum_lang::ast::{DbSchema, Program};
use arboretum_lang::parser::parse;
use arboretum_lang::privacy::CertifyConfig;

/// One evaluation query: name, source, schema, and metadata.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Short name (Table 2, column 1).
    pub name: &'static str,
    /// What the query computes (Table 2, column 2).
    pub action: &'static str,
    /// The generated source text.
    pub source: String,
    /// Database schema.
    pub schema: DbSchema,
    /// Certification configuration (median/auction declare their own
    /// sensitivities, CertiPriv-style; see §4.2).
    pub certify: CertifyConfig,
    /// Source lines reported in the paper's Table 2.
    pub paper_lines: usize,
    /// Whether the paper lists this as a *new* query (first six rows).
    pub is_new: bool,
}

impl QuerySpec {
    /// Parses the source.
    ///
    /// # Panics
    ///
    /// Panics if the generated source fails to parse (a corpus bug).
    pub fn program(&self) -> Program {
        parse(&self.source).unwrap_or_else(|e| panic!("{} does not parse: {e}", self.name))
    }

    /// Source line count of the generated query.
    pub fn line_count(&self) -> usize {
        self.source.lines().filter(|l| !l.trim().is_empty()).count()
    }
}

fn trusting() -> CertifyConfig {
    CertifyConfig {
        trust_declared_sensitivity: true,
        ..Default::default()
    }
}

/// `top1`: most frequent item (Figure 3).
pub fn top1(n: u64, categories: usize) -> QuerySpec {
    QuerySpec {
        name: "top1",
        action: "Most frequent item",
        source: "aggr = sum(db);\nresult = em(aggr, 0.1);\noutput(result);\n".into(),
        schema: DbSchema::one_hot(n, categories),
        certify: CertifyConfig::default(),
        paper_lines: 3,
        is_new: true,
    }
}

/// `topK`: top-k selection (Durfee–Rogers one-shot noise).
pub fn top_k(n: u64, categories: usize, k: usize) -> QuerySpec {
    QuerySpec {
        name: "topK",
        action: "Top-K selection",
        source: format!(
            "aggr = sum(db);\n\
             top = emTopK(aggr, {k}, 0.1);\n\
             for i = 0 to {last} do\n\
               output(top[i]);\n\
             endfor\n",
            last = k - 1
        ),
        schema: DbSchema::one_hot(n, categories),
        certify: CertifyConfig::default(),
        paper_lines: 8,
        is_new: true,
    }
}

/// `gap`: exponential mechanism with free gap (Ding et al.).
pub fn gap(n: u64, categories: usize) -> QuerySpec {
    QuerySpec {
        name: "gap",
        action: "Exp. mechanism with gap",
        source: "aggr = sum(db);\n\
                 rg = emGap(aggr, 0.1);\n\
                 winner = rg[0];\n\
                 margin = rg[1];\n\
                 output(winner);\n\
                 output(margin);\n"
            .into(),
        schema: DbSchema::one_hot(n, categories),
        certify: CertifyConfig::default(),
        paper_lines: 8,
        is_new: true,
    }
}

/// `auction`: unbounded auction (McSherry–Talwar): each participant's
/// one-hot row encodes its bid bucket; the mechanism picks the revenue-
/// maximizing price.
pub fn auction(n: u64, categories: usize) -> QuerySpec {
    let c = categories;
    QuerySpec {
        name: "auction",
        action: "Unbounded auction",
        source: format!(
            "aggr = sum(db);\n\
             above[{last}] = aggr[{last}];\n\
             for i = 1 to {last} do\n\
               above[{last} - i] = above[{c} - i] + aggr[{last} - i];\n\
             endfor\n\
             for r = 0 to {last} do\n\
               score[r] = r * above[r];\n\
             endfor\n\
             winner = em(score, {last}, 0.1);\n\
             output(winner);\n",
            last = c - 1
        ),
        schema: DbSchema::one_hot(n, categories),
        certify: trusting(),
        paper_lines: 7,
        is_new: true,
    }
}

/// `hypotest`: differentially private simple hypothesis testing
/// (Canonne et al.): release a noisy count and decide by threshold.
pub fn hypotest(n: u64) -> QuerySpec {
    let threshold = n / 2;
    QuerySpec {
        name: "hypotest",
        action: "Hypothesis testing",
        source: format!(
            "aggr = sum(db);\n\
             count = aggr[0];\n\
             noisy = laplace(count, 1, 0.1);\n\
             thr = {threshold};\n\
             if noisy > thr then\n\
               decision = 1;\n\
             else\n\
               decision = 0;\n\
             endif\n\
             output(decision);\n\
             output(noisy);\n"
        ),
        schema: DbSchema::one_hot(n, 1),
        certify: CertifyConfig::default(),
        paper_lines: 12,
        is_new: true,
    }
}

/// `secrecy`: secrecy-of-the-sample count (Balle et al. amplification).
pub fn secrecy(n: u64, categories: usize) -> QuerySpec {
    QuerySpec {
        name: "secrecy",
        action: "Secrecy of sample",
        source: "sdb = sampleUniform(0.01);\n\
                 aggr = sum(sdb);\n\
                 noised = laplace(aggr, 1, 1.0);\n\
                 output(noised);\n"
            .into(),
        schema: DbSchema::one_hot(n, categories),
        certify: CertifyConfig::default(),
        paper_lines: 16,
        is_new: true,
    }
}

/// `median`: DP median over a one-hot value domain (Böhler–Kerschbaum
/// reimplemented with rank-distance quality scores; see [44, §E]).
pub fn median(n: u64, categories: usize) -> QuerySpec {
    let c = categories;
    QuerySpec {
        name: "median",
        action: "Median",
        source: format!(
            "aggr = sum(db);\n\
             cum[0] = aggr[0];\n\
             for i = 1 to {last} do\n\
               cum[i] = cum[i - 1] + aggr[i];\n\
             endfor\n\
             total = cum[{last}];\n\
             half = total / 2;\n\
             for i = 0 to {last} do\n\
               if cum[i] > half then\n\
                 d[i] = cum[i] - half;\n\
               else\n\
                 d[i] = half - cum[i];\n\
               endif\n\
               score[i] = 0 - d[i];\n\
             endfor\n\
             result = em(score, 1, 0.1);\n\
             output(result);\n",
            last = c - 1
        ),
        schema: DbSchema::one_hot(n, categories),
        certify: trusting(),
        paper_lines: 39,
        is_new: false,
    }
}

/// `cms`: count-mean sketch (the Honeycrisp query).
pub fn cms(n: u64) -> QuerySpec {
    QuerySpec {
        name: "cms",
        action: "Count-mean sketch",
        source: "sketch = sum(db);\n\
                 noised = laplace(sketch, 1, 0.1);\n\
                 output(noised);\n"
            .into(),
        schema: DbSchema::one_hot(n, 1),
        certify: CertifyConfig::default(),
        paper_lines: 5,
        is_new: false,
    }
}

/// `bayes`: naive-Bayes training (the Orchard query): per feature-class
/// counts with Laplace noise, released for model fitting.
pub fn bayes(n: u64, categories: usize) -> QuerySpec {
    QuerySpec {
        name: "bayes",
        action: "Naive Bayes",
        source: format!(
            "counts = sum(db);\n\
             noised = laplace(counts, 1, 0.1);\n\
             for i = 0 to {last} do\n\
               output(noised[i]);\n\
             endfor\n",
            last = categories - 1
        ),
        schema: DbSchema::one_hot(n, categories),
        certify: CertifyConfig::default(),
        paper_lines: 16,
        is_new: false,
    }
}

/// `k-medians`: one round of DP k-medians (the Orchard query): noisy
/// per-cluster counts and coordinate sums, medians recomputed in
/// post-processing. A noisy count divides as at least 1: releases sit on
/// the integer grid, so an empty cluster's noisy count is often exactly
/// 0 (and can be negative).
pub fn k_medians(n: u64, k: usize) -> QuerySpec {
    QuerySpec {
        name: "k-medians",
        action: "K-Medians",
        source: format!(
            "counts = sum(db);\n\
             for j = 0 to {last} do\n\
               nc = laplace(counts[j], 1, 0.05);\n\
               ns = laplace(counts[{k} + j], 1000, 0.05);\n\
               med[j] = ns / clip(nc, 1, {n});\n\
               output(med[j]);\n\
             endfor\n",
            last = k - 1
        ),
        // Rows hold a one-hot cluster indicator plus a clipped coordinate
        // contribution; width 2k.
        schema: DbSchema::numeric(n, 2 * k, 0, 1000),
        certify: trusting(),
        paper_lines: 30,
        is_new: false,
    }
}

/// `quantile`: the paper's noted extension of `median` (§7) — select the
/// bucket holding the `num/den` quantile (den must be a power of two so
/// the rank target divides securely).
///
/// # Panics
///
/// Panics unless `0 < num < den` and `den` is a power of two.
pub fn quantile(n: u64, categories: usize, num: u64, den: u64) -> QuerySpec {
    assert!(
        den.is_power_of_two() && num > 0 && num < den,
        "bad quantile {num}/{den}"
    );
    let c = categories;
    QuerySpec {
        name: "quantile",
        action: "Quantile (median extension)",
        source: format!(
            "aggr = sum(db);\n\
             cum[0] = aggr[0];\n\
             for i = 1 to {last} do\n\
               cum[i] = cum[i - 1] + aggr[i];\n\
             endfor\n\
             total = cum[{last}];\n\
             target = total * {num} / {den};\n\
             for i = 0 to {last} do\n\
               if cum[i] > target then\n\
                 d[i] = cum[i] - target;\n\
               else\n\
                 d[i] = target - cum[i];\n\
               endif\n\
               score[i] = 0 - d[i];\n\
             endfor\n\
             result = em(score, {num}, 0.1);\n\
             output(result);\n",
            last = c - 1
        ),
        schema: DbSchema::one_hot(n, categories),
        certify: trusting(),
        paper_lines: 39,
        is_new: true,
    }
}

/// All ten queries with the paper's §7.1 parameters.
pub fn all_queries(n: u64) -> Vec<QuerySpec> {
    let big_c = 1usize << 15;
    vec![
        top1(n, big_c),
        top_k(n, big_c, 5),
        gap(n, big_c),
        auction(n, big_c),
        hypotest(n),
        secrecy(n, big_c),
        median(n, big_c),
        cms(n),
        bayes(n, 115),
        k_medians(n, 10),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use arboretum_lang::privacy::certify;
    use arboretum_planner::logical::extract;

    #[test]
    fn all_queries_parse() {
        for q in all_queries(1 << 20) {
            let p = q.program();
            assert!(p.stmt_count() > 0, "{}", q.name);
        }
    }

    #[test]
    fn all_queries_certify() {
        for q in all_queries(1 << 20) {
            let cert = certify(&q.program(), &q.schema, q.certify)
                .unwrap_or_else(|e| panic!("{} fails certification: {e}", q.name));
            assert!(cert.cost.epsilon > 0.0, "{}", q.name);
            assert!(
                cert.cost.epsilon <= 1.0,
                "{}: eps {}",
                q.name,
                cert.cost.epsilon
            );
        }
    }

    #[test]
    fn all_queries_extract_logical_plans() {
        for q in all_queries(1 << 20) {
            let lp = extract(&q.program(), &q.schema, q.certify)
                .unwrap_or_else(|e| panic!("{}: {e}", q.name));
            assert!(!lp.ops.is_empty(), "{}", q.name);
        }
    }

    #[test]
    fn new_queries_flagged_like_table2() {
        let qs = all_queries(1 << 20);
        let new: Vec<&str> = qs.iter().filter(|q| q.is_new).map(|q| q.name).collect();
        assert_eq!(
            new,
            ["top1", "topK", "gap", "auction", "hypotest", "secrecy"]
        );
    }

    #[test]
    fn queries_are_concise_like_table2() {
        // Table 2's point: queries are a handful of lines. Our generated
        // sources should be within ~2x of the paper's counts.
        for q in all_queries(1 << 20) {
            let lines = q.line_count();
            assert!(
                lines <= 2 * q.paper_lines + 4,
                "{}: {lines} lines vs paper {}",
                q.name,
                q.paper_lines
            );
        }
    }

    #[test]
    fn exponential_queries_need_comparisons() {
        for q in all_queries(1 << 16) {
            let lp = extract(&q.program(), &q.schema, q.certify).unwrap();
            let needs = lp.needs_comparisons();
            let expected = matches!(q.name, "top1" | "topK" | "gap" | "auction" | "median");
            assert_eq!(needs, expected, "{}", q.name);
        }
    }

    #[test]
    fn quantile_extension_certifies_and_plans() {
        let q = quantile(1 << 20, 16, 3, 4);
        let cert = certify(&q.program(), &q.schema, q.certify).unwrap();
        assert!(cert.cost.epsilon > 0.0);
        let lp = extract(&q.program(), &q.schema, q.certify).unwrap();
        assert!(lp.needs_comparisons());
    }

    #[test]
    fn secrecy_amplifies() {
        let q = secrecy(1 << 20, 16);
        let cert = certify(&q.program(), &q.schema, q.certify).unwrap();
        assert_eq!(cert.sampling_rate, Some(0.01));
        assert!(
            cert.cost.epsilon < 0.1,
            "amplified eps {}",
            cert.cost.epsilon
        );
    }

    #[test]
    fn sampled_interpretation_runs() {
        // The secrecy query also runs in the reference interpreter.
        use arboretum_lang::interp::{Interp, Value};
        let q = secrecy(0, 4);
        let db: Vec<Vec<i64>> = (0..4000)
            .map(|i| {
                let mut row = vec![0i64; 4];
                row[i % 4] = 1;
                row
            })
            .collect();
        let out = Interp::new(&db, 5).run(&q.program()).unwrap();
        assert_eq!(out.len(), 1);
        match &out[0] {
            Value::FixArray(v) => assert_eq!(v.len(), 4),
            other => panic!("unexpected output {other:?}"),
        }
    }
}
