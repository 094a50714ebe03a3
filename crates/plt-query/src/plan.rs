//! The cost-based planner: logical query → physical operator.
//!
//! Each query shape admits several physical operators (see the table in
//! `DESIGN.md` §13); the planner estimates each candidate's cost from
//! the snapshot's cardinalities and picks the cheapest, breaking ties
//! toward the earlier (more specialized) candidate. All candidates
//! return identical rows — the choice affects time, never results —
//! which is what lets `tests/query_equivalence.rs` force each operator
//! in turn and compare.

use plt_core::error::{PltError, Result};

use crate::ast::{Query, QueryKind, Tier};
use crate::snapshot::Snapshot;

/// A physical operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhysOp {
    /// Canonical-key point lookup on the snapshot index (Lemma 4.1.2),
    /// oracle fallback for infrequent sets. `SUPPORT OF` only.
    IndexPoint,
    /// Best-first traversal of the extension index (Lemma 4.1.3) with
    /// top-k early termination. `TOP` and `MINE COND`.
    ExtTraverse,
    /// Ordered scan of the precomputed rule index with confidence-bound
    /// early termination. `RULES` only.
    RuleScan,
    /// On-demand conditional mining of the sub-PLT rooted at the
    /// condition. `MINE COND` only.
    CondMine,
    /// Brute-force scan — the universal fallback and the differential
    /// oracle.
    FullScan,
    /// Bounded-error probe of the snapshot's attached indicator sketch.
    /// `SUPPORT OF` under the `APPROX` tier only — never a candidate
    /// for exact-tier queries, so the all-operators-agree invariant is
    /// untouched.
    SketchProbe,
}

impl PhysOp {
    pub fn as_str(self) -> &'static str {
        match self {
            PhysOp::IndexPoint => "index_point",
            PhysOp::ExtTraverse => "ext_traverse",
            PhysOp::RuleScan => "rule_scan",
            PhysOp::CondMine => "cond_mine",
            PhysOp::FullScan => "full_scan",
            PhysOp::SketchProbe => "sketch_probe",
        }
    }
}

/// A compiled plan: the chosen operator and its estimated cost (in
/// abstract "row touches", comparable only within one planning call).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    pub op: PhysOp,
    pub cost: f64,
}

/// The physical operators applicable to a query, most specialized
/// first. `FullScan` applies to everything and is always last.
/// `SketchProbe` joins the candidate set only for `SUPPORT OF` under
/// the `APPROX` tier; every other shape answers exactly even when the
/// tier permits approximation (the response then honestly reports
/// `approx: false`).
pub fn applicable_ops(q: &Query) -> &'static [PhysOp] {
    match (&q.kind, q.tier.is_approx()) {
        (QueryKind::Support { .. }, true) => {
            &[PhysOp::SketchProbe, PhysOp::IndexPoint, PhysOp::FullScan]
        }
        (QueryKind::Support { .. }, false) => &[PhysOp::IndexPoint, PhysOp::FullScan],
        (QueryKind::Top { .. }, _) => &[PhysOp::ExtTraverse, PhysOp::FullScan],
        (QueryKind::Rules { .. }, _) => &[PhysOp::RuleScan, PhysOp::FullScan],
        (QueryKind::MineCond { .. }, _) => {
            &[PhysOp::ExtTraverse, PhysOp::CondMine, PhysOp::FullScan]
        }
    }
}

/// Estimated cost of running `op` on `q` against a snapshot with the
/// given cardinalities. See `DESIGN.md` §13 for the model's derivation.
fn cost_of(op: PhysOp, q: &Query, src: &Snapshot) -> f64 {
    let n_sets = src.num_itemsets() as f64;
    let n_rules = src.num_rules() as f64;
    let n_vectors = src.plt().num_vectors() as f64;
    // Average children per traversal node; floor 2 keeps sparse indexes
    // from looking free.
    let fanout = (n_sets / (src.num_roots().max(1) as f64)).max(2.0);
    match (op, &q.kind) {
        (PhysOp::SketchProbe, QueryKind::Support { .. }) => match src.sketch() {
            // The probe scans the retained sample once. Unusable when no
            // sketch is attached, or when the query demands a tighter
            // bound than the sketch guarantees.
            Some(sketch) => match q.tier {
                Tier::Approx { eps: Some(e) } if sketch.epsilon() > e => f64::INFINITY,
                _ => sketch.cost() as f64,
            },
            None => f64::INFINITY,
        },
        (PhysOp::IndexPoint, QueryKind::Support { items }) => {
            if q.tier.is_approx() {
                // Under APPROX the point lookup competes with the sketch.
                // Its table lookup is near-free on index hits, but misses
                // fall back to a full oracle scan of the PLT vectors;
                // without membership knowledge, charge the expectation at
                // even odds so large snapshots prefer the sketch.
                items.len() as f64 + 0.5 * n_vectors
            } else {
                items.len() as f64
            }
        }
        (PhysOp::FullScan, QueryKind::Support { .. }) => n_vectors,
        (PhysOp::ExtTraverse, QueryKind::Top { k, filter }) => {
            // Filtered traversals expand past non-passing nodes, so a
            // filter inflates the frontier estimate.
            let selectivity = if filter.is_some() { 4.0 } else { 1.0 };
            ((*k as f64) + 1.0) * fanout * selectivity
        }
        (PhysOp::FullScan, QueryKind::Top { .. }) => n_sets,
        (PhysOp::RuleScan, QueryKind::Rules { filter, .. }) => {
            // A top-level confidence bound c lets the scan stop after
            // roughly the (1 - c) fraction of the confidence-sorted
            // index (clamped: even c = 1.0 reads some prefix).
            match filter.as_ref().and_then(crate::exec::confidence_bound) {
                Some((c, _)) => n_rules * (1.0 - c).clamp(0.02, 1.0),
                None => n_rules,
            }
        }
        (PhysOp::FullScan, QueryKind::Rules { .. }) => n_rules,
        (PhysOp::ExtTraverse, QueryKind::MineCond { k, .. }) => {
            let k_eff = k.map(|k| k as f64).unwrap_or(n_sets);
            (k_eff + 1.0) * fanout
        }
        (PhysOp::CondMine, QueryKind::MineCond { cond, .. }) => {
            // Rebuild cost scales with the conditional database size
            // (= support of the condition), plus a fixed mining setup.
            src.support(cond).support as f64 * 4.0 + 16.0
        }
        (PhysOp::FullScan, QueryKind::MineCond { .. }) => n_sets,
        // Planner never pairs other combinations; make them unattractive
        // rather than unrepresentable so the force hook stays simple.
        _ => f64::INFINITY,
    }
}

/// Validates `q` against the snapshot at plan time, so every operator
/// fails identically on invalid input. Only `MINE COND` conditions are
/// checked: naming an item the ranking has never seen is a user error
/// (`SUPPORT OF` an unknown item legitimately answers 0, and filter
/// items that never match simply select nothing).
fn validate(q: &Query, src: &Snapshot) -> Result<()> {
    if let QueryKind::MineCond { cond, .. } = &q.kind {
        let plt = src.plt();
        for &item in cond {
            if plt.ranking().rank(item).is_none() {
                return Err(PltError::Query {
                    message: format!("unknown item {item} in MINE COND (infrequent or never seen)"),
                });
            }
        }
    }
    Ok(())
}

/// Plans `q` (already normalized) against `src`. With `force`, the
/// given operator is used if applicable (the test-only override hook);
/// otherwise the cheapest candidate wins, ties going to the earlier
/// (more specialized) one.
pub fn plan(q: &Query, src: &Snapshot, force: Option<PhysOp>) -> Result<Plan> {
    validate(q, src)?;
    let candidates = applicable_ops(q);
    if let Some(op) = force {
        if !candidates.contains(&op) {
            return Err(PltError::Query {
                message: format!("operator {} does not apply to `{q}`", op.as_str()),
            });
        }
        return Ok(Plan {
            op,
            cost: cost_of(op, q, src),
        });
    }
    let mut best: Option<Plan> = None;
    for &op in candidates {
        let cost = cost_of(op, q, src);
        // Strict `<`: ties go to the earlier (more specialized) candidate.
        let improves = match best {
            Some(b) => cost < b.cost,
            None => true,
        };
        if improves {
            best = Some(Plan { op, cost });
        }
    }
    Ok(best.expect("every query shape has at least FullScan"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CmpOp, Field, Num, Pred};
    use crate::snapshot::tests::snapshot;

    #[test]
    fn planner_prefers_the_specialized_operator() {
        let src = snapshot(2);
        let p = plan(
            &Query::exact(QueryKind::Support { items: vec![0, 1] }),
            &src,
            None,
        )
        .unwrap();
        assert_eq!(p.op, PhysOp::IndexPoint);
        let top = Query::exact(QueryKind::Top { k: 3, filter: None });
        let p = plan(&top, &src, None).unwrap();
        // Tiny snapshot: either way is fine, but the cost must be finite
        // and the op applicable.
        assert!(p.cost.is_finite());
        assert!(applicable_ops(&top).contains(&p.op));
        let p = plan(
            &Query::exact(QueryKind::Rules {
                filter: Some(Pred::Cmp {
                    field: Field::Confidence,
                    op: CmpOp::Ge,
                    value: Num::Frac(0.9),
                }),
                k: None,
            }),
            &src,
            None,
        )
        .unwrap();
        assert_eq!(p.op, PhysOp::RuleScan);
    }

    #[test]
    fn confidence_bound_discounts_rule_scan() {
        let src = snapshot(2);
        let bounded = plan(
            &Query::exact(QueryKind::Rules {
                filter: Some(Pred::Cmp {
                    field: Field::Confidence,
                    op: CmpOp::Ge,
                    value: Num::Frac(0.9),
                }),
                k: None,
            }),
            &src,
            None,
        )
        .unwrap();
        let unbounded = plan(
            &Query::exact(QueryKind::Rules {
                filter: None,
                k: None,
            }),
            &src,
            None,
        )
        .unwrap();
        assert!(bounded.cost < unbounded.cost);
    }

    #[test]
    fn force_hook_respects_applicability() {
        let src = snapshot(2);
        let q = Query::exact(QueryKind::MineCond {
            cond: vec![0],
            k: Some(5),
        });
        for op in [PhysOp::ExtTraverse, PhysOp::CondMine, PhysOp::FullScan] {
            assert_eq!(plan(&q, &src, Some(op)).unwrap().op, op);
        }
        let err = plan(&q, &src, Some(PhysOp::RuleScan)).unwrap_err();
        assert!(err.to_string().contains("does not apply"));
    }

    #[test]
    fn unknown_cond_item_is_rejected_at_plan_time() {
        let src = snapshot(2);
        let q = Query::exact(QueryKind::MineCond {
            cond: vec![99],
            k: None,
        });
        for force in [None, Some(PhysOp::ExtTraverse), Some(PhysOp::CondMine)] {
            let err = plan(&q, &src, force).unwrap_err();
            assert!(err.to_string().contains("unknown item 99"), "{err}");
        }
    }

    #[test]
    fn sketch_probe_is_approx_tier_only() {
        let src = snapshot(2);
        let kind = QueryKind::Support { items: vec![0, 1] };
        let exact = Query::exact(kind.clone());
        assert!(!applicable_ops(&exact).contains(&PhysOp::SketchProbe));
        let approx = Query::approx(kind.clone(), None);
        assert!(applicable_ops(&approx).contains(&PhysOp::SketchProbe));
        // Forcing the probe on an exact-tier query is a typed error.
        let err = plan(&exact, &src, Some(PhysOp::SketchProbe)).unwrap_err();
        assert!(err.to_string().contains("does not apply"));
        // Without an attached sketch the probe costs infinity, so the
        // planner falls back to an exact operator even under APPROX.
        let p = plan(&approx, &src, None).unwrap();
        assert_ne!(p.op, PhysOp::SketchProbe);
        assert!(p.cost.is_finite());
    }

    #[test]
    fn sketch_probe_wins_on_large_snapshots_and_respects_eps() {
        use crate::snapshot::tests::snapshot_with_sketch;
        // Sketch of 8 rows, epsilon 0.1, against a snapshot whose oracle
        // fallback dwarfs it.
        let src = snapshot_with_sketch(2, 8, 0.1);
        let kind = QueryKind::Support { items: vec![0, 1] };
        let p = plan(&Query::approx(kind.clone(), None), &src, None).unwrap();
        // Tiny table: index_point may still win on cost; the probe must
        // at least be plannable via force.
        assert!(applicable_ops(&Query::approx(kind.clone(), None)).contains(&PhysOp::SketchProbe));
        assert!(p.cost.is_finite());
        let forced = plan(
            &Query::approx(kind.clone(), None),
            &src,
            Some(PhysOp::SketchProbe),
        )
        .unwrap();
        assert_eq!(forced.op, PhysOp::SketchProbe);
        // A bound tighter than the sketch guarantees prices it out.
        let tight = Query::approx(kind, Some(0.01));
        let p = plan(&tight, &src, None).unwrap();
        assert_ne!(p.op, PhysOp::SketchProbe);
    }
}
