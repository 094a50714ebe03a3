//! # plt-query — query language and cost-based planner over mined results
//!
//! ROADMAP open item 4: instead of hard-coded endpoints, a small text
//! query language over one mined generation:
//!
//! ```text
//! SUPPORT OF {1,2}
//! TOP 20 WHERE support >= 0.01 AND prefix LIKE {3,*}
//! RULES WHERE confidence >= 0.8 AND lift > 1.2
//! MINE COND {1} TOP 10
//! ```
//!
//! Expressions are [parsed](parse()) into an [AST](ast::Query),
//! normalized, and [planned](plan::plan) into one of four physical
//! operators — canonical-key point lookup (Lemma 4.1.2), extension-index
//! traversal (Lemma 4.1.3) with top-k early termination, ordered
//! rule-index scan, or on-demand conditional mining — plus the
//! brute-force [`FullScan`](plan::PhysOp::FullScan) that doubles as the
//! differential-testing oracle. Costs come from the [`Snapshot`]'s
//! cardinalities; normalized ASTs key a [generation-aware LRU plan
//! cache](cache::PlanCache). Every operator returns rows identical to
//! the naive scan — `tests/query_equivalence.rs` proves it plan by plan
//! on the same [`Snapshot`] index plt-serve serves from.
//!
//! ```
//! use plt_core::construct::{construct, ConstructOptions};
//! use plt_core::{ConditionalMiner, Miner};
//! use plt_query::{run, Snapshot};
//! use plt_rules::RuleConfig;
//!
//! let db = vec![vec![1, 2, 3], vec![1, 2], vec![1, 2], vec![2, 3]];
//! let plt = construct(&db, 2, ConstructOptions::conditional()).unwrap();
//! let result = ConditionalMiner::default().mine(&db, 2);
//! let snap = Snapshot::build(1, plt, &result, RuleConfig::default());
//!
//! let (rows, prov) = run("SUPPORT OF {1,2}", &snap, &mut plt_obs::Obs::none()).unwrap();
//! assert_eq!(rows.len(), 1);
//! assert_eq!(prov.plan.op.as_str(), "index_point");
//! ```

pub mod ast;
pub mod cache;
pub mod exec;
pub mod parse;
pub mod plan;
pub mod snapshot;
pub mod source;

pub use ast::{CmpOp, Field, Num, PatElem, Pred, Query, QueryKind, Tier};
pub use cache::{CacheCounters, PlanCache};
pub use exec::{ApproxMeta, NaiveExecutor, Rows};
pub use parse::{parse, MAX_PRED_DEPTH, MAX_QUERY_BYTES};
pub use plan::{applicable_ops, PhysOp, Plan};
pub use snapshot::{Recommendation, Snapshot, SupportAnswer, SupportSource};
pub use source::SupportSketch;

use plt_core::error::Result;
use plt_obs::Obs;

/// How a query's plan was obtained — returned alongside the rows so
/// callers (the serve endpoint, `--explain`) can surface provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Provenance {
    pub plan: Plan,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Whether the query *asked* for the approximate tier (`APPROX`),
    /// regardless of whether a sketch ended up answering it.
    pub approx_requested: bool,
    /// Whether the answer is approximate. An `APPROX`-tier query whose
    /// planner still picked an exact operator reports `false` (the
    /// answer is trivially within any bound).
    pub approx: bool,
    /// The guaranteed absolute error bound when `approx` is true.
    pub error_bound: Option<plt_core::item::Support>,
}

/// The obs counter name for a chosen operator.
fn plan_counter(op: PhysOp) -> &'static str {
    match op {
        PhysOp::IndexPoint => "query.plan.index_point",
        PhysOp::ExtTraverse => "query.plan.ext_traverse",
        PhysOp::RuleScan => "query.plan.rule_scan",
        PhysOp::CondMine => "query.plan.cond_mine",
        PhysOp::FullScan => "query.plan.full_scan",
        PhysOp::SketchProbe => "query.plan.sketch_probe",
    }
}

fn parse_normalized(expr: &str, obs: &mut Obs) -> Result<Query> {
    obs.counter("query.requests", 1);
    match parse::parse(expr) {
        Ok(q) => Ok(q.normalize()),
        Err(e) => {
            obs.counter("query.parse_errors", 1);
            Err(e)
        }
    }
}

fn execute_planned(
    q: &Query,
    src: &Snapshot,
    plan: Plan,
    cache_hit: bool,
    obs: &mut Obs,
) -> Result<(Rows, Provenance)> {
    obs.counter(plan_counter(plan.op), 1);
    if q.tier.is_approx() {
        obs.counter("approx.requests", 1);
    }
    let t = obs.start();
    let (rows, meta) = exec::execute(plan.op, q, src)?;
    obs.stop("query/execute", t);
    match meta {
        Some(_) => obs.counter("approx.sketch_answers", 1),
        // An APPROX-tier request answered by an exact operator: count
        // the honest fallback so operators can see sketch coverage.
        None if q.tier.is_approx() => obs.counter("approx.exact_fallbacks", 1),
        None => {}
    }
    Ok((
        rows,
        Provenance {
            plan,
            cache_hit,
            approx_requested: q.tier.is_approx(),
            approx: meta.is_some(),
            error_bound: meta.map(|m| m.error_bound),
        },
    ))
}

/// Parses, plans, and executes one expression. The one-stop entry point
/// when no plan cache is in play.
pub fn run(expr: &str, src: &Snapshot, obs: &mut Obs) -> Result<(Rows, Provenance)> {
    let q = parse_normalized(expr, obs)?;
    let plan = plan::plan(&q, src, None)?;
    execute_planned(&q, src, plan, false, obs)
}

/// Like [`run`], but consults `cache` (keyed by the printed normalized
/// AST, scoped to the snapshot's generation) before planning.
pub fn run_cached(
    expr: &str,
    src: &Snapshot,
    cache: &PlanCache,
    obs: &mut Obs,
) -> Result<(Rows, Provenance)> {
    let q = parse_normalized(expr, obs)?;
    let generation = src.generation();
    let key = q.to_string(); // q is normalized: its printed form IS the key
    if let Some(plan) = cache.lookup(&key, generation) {
        obs.counter("query.plan_cache.hits", 1);
        return execute_planned(&q, src, plan, true, obs);
    }
    obs.counter("query.plan_cache.misses", 1);
    let plan = plan::plan(&q, src, None)?;
    cache.insert(key, generation, plan);
    execute_planned(&q, src, plan, false, obs)
}

/// Test-only override hook: parse and execute with a forced physical
/// operator (erroring if it does not apply). The differential suite
/// uses this to drive every operator over the same query.
pub fn run_forced(expr: &str, src: &Snapshot, op: PhysOp) -> Result<(Rows, Provenance)> {
    let mut obs = Obs::none();
    let q = parse_normalized(expr, &mut obs)?;
    let plan = plan::plan(&q, src, Some(op))?;
    execute_planned(&q, src, plan, false, &mut obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::snapshot;
    use plt_obs::MetricsRecorder;

    #[test]
    fn run_answers_and_reports_provenance() {
        let src = snapshot(2);
        let mut rec = MetricsRecorder::new();
        let (rows, prov) = run("SUPPORT OF {0,1,2}", &src, &mut Obs::new(&mut rec)).unwrap();
        assert_eq!(
            rows,
            Rows::Support {
                items: vec![0, 1, 2],
                support: 3,
                frequent: true,
            }
        );
        assert_eq!(prov.plan.op, PhysOp::IndexPoint);
        assert!(!prov.cache_hit);
        assert_eq!(rec.counter_value("query.requests"), 1);
        assert_eq!(rec.counter_value("query.plan.index_point"), 1);
        assert_eq!(rec.span_count("query/execute"), 1);
    }

    #[test]
    fn parse_errors_are_counted_and_typed() {
        let src = snapshot(2);
        let mut rec = MetricsRecorder::new();
        let err = run("SUPPORT OF {}", &src, &mut Obs::new(&mut rec)).unwrap_err();
        assert!(err.to_string().starts_with("query: "));
        assert_eq!(rec.counter_value("query.parse_errors"), 1);
        assert_eq!(rec.span_count("query/execute"), 0);
    }

    #[test]
    fn cached_runs_hit_on_normalized_equivalence() {
        let src = snapshot(2);
        let cache = PlanCache::new(8);
        let mut obs = Obs::none();
        let (rows1, p1) = run_cached(
            "TOP 5 WHERE contains {1} AND support >= 2",
            &src,
            &cache,
            &mut obs,
        )
        .unwrap();
        assert!(!p1.cache_hit);
        // Different spelling, same normal form: plan-cache hit, same rows.
        let (rows2, p2) = run_cached(
            "top 5 where SUPPORT >= 2 and CONTAINS {1}",
            &src,
            &cache,
            &mut obs,
        )
        .unwrap();
        assert!(p2.cache_hit);
        assert_eq!(p1.plan, p2.plan);
        assert_eq!(rows1, rows2);
        assert_eq!(cache.counters().hits, 1);
    }

    #[test]
    fn approx_tier_reports_provenance_and_counters() {
        use crate::snapshot::tests::snapshot_with_sketch;
        // Sketch attached, probe forced: approximate provenance.
        let src = snapshot_with_sketch(2, 8, 0.2);
        let (rows, prov) =
            run_forced("SUPPORT OF {0,1} APPROX", &src, PhysOp::SketchProbe).unwrap();
        assert_eq!(rows.kind(), "support");
        assert!(prov.approx);
        assert!(prov.error_bound.is_some());
        // No sketch: the APPROX request falls back to an exact operator
        // and says so, both in provenance and in the counters.
        let bare = snapshot(2);
        let mut rec = MetricsRecorder::new();
        let (_, prov) = run("SUPPORT OF {0,1} APPROX", &bare, &mut Obs::new(&mut rec)).unwrap();
        assert!(!prov.approx);
        assert_eq!(prov.error_bound, None);
        assert_eq!(rec.counter_value("approx.requests"), 1);
        assert_eq!(rec.counter_value("approx.exact_fallbacks"), 1);
        assert_eq!(rec.counter_value("approx.sketch_answers"), 0);
    }

    #[test]
    fn tiers_key_the_plan_cache_separately() {
        let src = snapshot(2);
        let cache = PlanCache::new(8);
        let mut obs = Obs::none();
        let (_, p1) = run_cached("SUPPORT OF {0,1}", &src, &cache, &mut obs).unwrap();
        assert!(!p1.cache_hit);
        // Same shape under APPROX: distinct cache entry, not a hit.
        let (_, p2) = run_cached("SUPPORT OF {0,1} APPROX", &src, &cache, &mut obs).unwrap();
        assert!(!p2.cache_hit);
        // Re-running each spelling hits its own entry.
        let (_, p3) = run_cached("support of {1,0} approx", &src, &cache, &mut obs).unwrap();
        assert!(p3.cache_hit);
        let (_, p4) = run_cached("SUPPORT OF {0,1} EXACT", &src, &cache, &mut obs).unwrap();
        assert!(p4.cache_hit);
    }

    #[test]
    fn forced_runs_agree_with_the_planner() {
        let src = snapshot(2);
        let mut obs = Obs::none();
        for expr in [
            "SUPPORT OF {0,1}",
            "TOP 4 WHERE size >= 2",
            "RULES WHERE confidence >= 0.6 TOP 5",
            "MINE COND {1} TOP 8",
        ] {
            let (chosen_rows, _) = run(expr, &src, &mut obs).unwrap();
            let q = parse(expr).unwrap().normalize();
            for &op in applicable_ops(&q) {
                let (rows, prov) = run_forced(expr, &src, op).unwrap();
                assert_eq!(rows, chosen_rows, "{expr} via {}", op.as_str());
                assert_eq!(prov.plan.op, op);
            }
        }
    }
}
