//! Plan caching keyed on the full query signature.
//!
//! A standing service sees the same analyst queries over and over —
//! the longitudinal "monthly top-1" stream of §5 re-plans an identical
//! program every month. Certification and branch-and-bound search are
//! pure functions of `(source, schema, certify config, planner
//! config)`, so a [`PlanCache`] memoizes the whole
//! parse → certify → plan pipeline on that exact signature.
//!
//! The key is the *exact* rendering of every planning input — no
//! hashing, so two distinct signatures can never collide and serve the
//! wrong plan. Every [`PlannerConfig`] field is part of the key;
//! execution-pool shape is not a planning input (it lives in the
//! runtime's `ExecutionConfig`), so a service may run a cached plan on
//! any pool shape.

use std::collections::BTreeMap;
use std::sync::Arc;

use arboretum_lang::ast::DbSchema;
use arboretum_lang::parser::{parse, ParseError};
use arboretum_lang::privacy::CertifyConfig;

use crate::logical::{extract, ExtractError, LogicalPlan};
use crate::plan::Plan;
use crate::search::{plan as search_plan, PlanError, PlanStats, PlannerConfig};

/// The exact cache key for one planning request.
///
/// Built from the query source plus the `Debug` renderings of the
/// schema, certifier config, and every planner-config field.
/// Derived `Debug` on these types prints every field (floats
/// roundtrip-faithfully), so equal keys imply equal planning inputs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct QuerySignature(String);

impl QuerySignature {
    /// Computes the signature of a planning request.
    pub fn new(
        source: &str,
        schema: &DbSchema,
        certify: &CertifyConfig,
        cfg: &PlannerConfig,
    ) -> Self {
        let mut key = String::new();
        key.push_str("source=");
        key.push_str(source);
        key.push_str("\x1fschema=");
        key.push_str(&format!("{schema:?}"));
        key.push_str("\x1fcertify=");
        key.push_str(&format!("{certify:?}"));
        key.push_str("\x1fn=");
        key.push_str(&format!("{:?}", cfg.n));
        key.push_str("\x1fgoal=");
        key.push_str(&format!("{:?}", cfg.goal));
        key.push_str("\x1flimits=");
        key.push_str(&format!("{:?}", cfg.limits));
        key.push_str("\x1fsortition=");
        key.push_str(&format!("{:?}", cfg.sortition));
        key.push_str("\x1fcost_model=");
        key.push_str(&format!("{:?}", cfg.cost_model));
        key.push_str("\x1fheuristics=");
        key.push_str(&format!("{:?}", cfg.use_heuristics));
        key.push_str("\x1fstream_windows=");
        key.push_str(&format!("{:?}", cfg.stream_windows));
        Self(key)
    }

    /// The rendered key.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// A fully prepared query: the certified logical plan, the chosen
/// physical plan, and the search statistics of the run that produced
/// it.
#[derive(Clone, Debug)]
pub struct CachedPlan {
    /// The certified logical plan.
    pub logical: LogicalPlan,
    /// The chosen physical plan.
    pub plan: Plan,
    /// Statistics from the search that produced the plan (cache hits
    /// reuse the original run's stats).
    pub stats: PlanStats,
}

/// Errors from the cached prepare pipeline.
#[derive(Debug)]
pub enum PlanCacheError {
    /// The source failed to parse.
    Parse(ParseError),
    /// Certification / logical extraction failed.
    Extract(ExtractError),
    /// Physical planning failed.
    Plan(PlanError),
}

impl std::fmt::Display for PlanCacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Parse(e) => write!(f, "parse: {e}"),
            Self::Extract(e) => write!(f, "certify: {e}"),
            Self::Plan(e) => write!(f, "plan: {e}"),
        }
    }
}

impl std::error::Error for PlanCacheError {}

/// A memo table over the parse → certify → plan pipeline.
#[derive(Debug, Default)]
pub struct PlanCache {
    entries: BTreeMap<QuerySignature, Arc<CachedPlan>>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares a query, reusing the cached result when the full
    /// signature matches a previous call.
    ///
    /// # Errors
    ///
    /// Returns [`PlanCacheError`] at the first failing pipeline stage;
    /// failures are not cached.
    pub fn prepare(
        &mut self,
        source: &str,
        schema: &DbSchema,
        certify: CertifyConfig,
        cfg: &PlannerConfig,
    ) -> Result<Arc<CachedPlan>, PlanCacheError> {
        let sig = QuerySignature::new(source, schema, &certify, cfg);
        if let Some(entry) = self.entries.get(&sig) {
            self.hits += 1;
            return Ok(Arc::clone(entry));
        }
        self.misses += 1;
        let program = parse(source).map_err(PlanCacheError::Parse)?;
        let logical = extract(&program, schema, certify).map_err(PlanCacheError::Extract)?;
        let (plan, stats) = search_plan(&logical, cfg).map_err(PlanCacheError::Plan)?;
        let entry = Arc::new(CachedPlan {
            logical,
            plan,
            stats,
        });
        self.entries.insert(sig, Arc::clone(&entry));
        Ok(entry)
    }

    /// Cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Requests answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Requests that ran the full pipeline.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Goal;

    const SRC: &str = "aggr = sum(db);\nr = em(aggr, 1.0);\noutput(r);";

    #[test]
    fn hit_returns_the_same_plan() {
        let schema = DbSchema::one_hot(1 << 20, 8);
        let cfg = PlannerConfig::paper_defaults(1 << 20);
        let mut cache = PlanCache::new();
        let a = cache
            .prepare(SRC, &schema, CertifyConfig::default(), &cfg)
            .unwrap();
        let b = cache
            .prepare(SRC, &schema, CertifyConfig::default(), &cfg)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second prepare must be a cache hit");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_signatures_miss() {
        let schema = DbSchema::one_hot(1 << 20, 8);
        let cfg = PlannerConfig::paper_defaults(1 << 20);
        let mut cache = PlanCache::new();
        cache
            .prepare(SRC, &schema, CertifyConfig::default(), &cfg)
            .unwrap();
        // Different source.
        cache
            .prepare(
                "aggr = sum(db);\nr = em(aggr, 2.0);\noutput(r);",
                &schema,
                CertifyConfig::default(),
                &cfg,
            )
            .unwrap();
        // Different schema.
        cache
            .prepare(
                SRC,
                &DbSchema::one_hot(1 << 20, 16),
                CertifyConfig::default(),
                &cfg,
            )
            .unwrap();
        // Different goal.
        let alt = PlannerConfig {
            goal: Goal::AggSecs,
            ..PlannerConfig::paper_defaults(1 << 20)
        };
        cache
            .prepare(SRC, &schema, CertifyConfig::default(), &alt)
            .unwrap();
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn failures_are_not_cached() {
        let schema = DbSchema::one_hot(1 << 20, 8);
        let cfg = PlannerConfig::paper_defaults(1 << 20);
        let mut cache = PlanCache::new();
        assert!(cache
            .prepare("not a query !!!", &schema, CertifyConfig::default(), &cfg)
            .is_err());
        assert!(cache.is_empty());
    }
}
