//! Physical operators and the naive full-scan oracle.
//!
//! Every operator in [`execute`] must return results **identical** to
//! [`NaiveExecutor`] — same rows, same order, same tie-breaking — which
//! is what `tests/query_equivalence.rs` proves by differential testing.
//! Canonical row orders:
//!
//! * itemsets: support descending, then size ascending, then
//!   lexicographic ascending;
//! * rules: `plt_rules::sort_rules` order (confidence desc, lift desc,
//!   support desc, antecedent/consequent lex).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet};

use plt_core::error::{PltError, Result};
use plt_core::item::{Item, Itemset, ItemsetRef, Support};
use plt_rules::Rule;
use plt_shard::MinerBuilder;

use crate::ast::{CmpOp, Field, PatElem, Pred, Query, QueryKind};
use crate::plan::PhysOp;
use crate::snapshot::Snapshot;

/// Metadata accompanying an approximate answer: the executed operator
/// guarantees the reported support is within `error_bound` of truth.
/// Exact operators return `None` in its place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxMeta {
    /// Guaranteed absolute error bound, in transactions.
    pub error_bound: Support,
}

/// Result rows of one query.
#[derive(Debug, Clone, PartialEq)]
pub enum Rows {
    /// `SUPPORT OF` — one exact answer.
    Support {
        items: Vec<Item>,
        support: Support,
        frequent: bool,
    },
    /// `TOP` / `MINE COND` — itemsets in canonical order.
    Itemsets(Vec<(Itemset, Support)>),
    /// `RULES` — rules in standard quality order.
    Rules(Vec<Rule>),
}

impl Rows {
    /// The row-kind tag used in wire responses.
    pub fn kind(&self) -> &'static str {
        match self {
            Rows::Support { .. } => "support",
            Rows::Itemsets(_) => "itemsets",
            Rows::Rules(_) => "rules",
        }
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        match self {
            Rows::Support { .. } => 1,
            Rows::Itemsets(v) => v.len(),
            Rows::Rules(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Evaluates an itemset predicate. Rule-only fields (`confidence`,
/// `lift`) never pass here — the parser rejects them in itemset
/// queries, and a hand-built AST using them simply matches nothing.
pub fn eval_itemset(pred: &Pred, itemset: ItemsetRef<'_>, support: Support, n: u64) -> bool {
    match pred {
        Pred::And(a, b) => {
            eval_itemset(a, itemset, support, n) && eval_itemset(b, itemset, support, n)
        }
        Pred::Or(a, b) => {
            eval_itemset(a, itemset, support, n) || eval_itemset(b, itemset, support, n)
        }
        Pred::Not(p) => !eval_itemset(p, itemset, support, n),
        Pred::Cmp { field, op, value } => match field {
            Field::Support => op.holds(support, value.as_support(n)),
            Field::Size => op.holds(itemset.len() as f64, value.as_f64()),
            Field::Confidence | Field::Lift => false,
        },
        Pred::PrefixLike(pattern) => {
            let items = itemset.items();
            items.len() >= pattern.len()
                && pattern.iter().zip(items).all(|(pat, &item)| match pat {
                    PatElem::Item(want) => *want == item,
                    PatElem::Any => true,
                })
        }
        Pred::Contains(required) => required.iter().all(|&i| itemset.contains(i)),
    }
}

/// Evaluates a rule predicate. Itemset-only atoms (`size`, `prefix
/// LIKE`, `contains`) never pass here for the same reason as above.
pub fn eval_rule(pred: &Pred, rule: &Rule, n: u64) -> bool {
    match pred {
        Pred::And(a, b) => eval_rule(a, rule, n) && eval_rule(b, rule, n),
        Pred::Or(a, b) => eval_rule(a, rule, n) || eval_rule(b, rule, n),
        Pred::Not(p) => !eval_rule(p, rule, n),
        Pred::Cmp { field, op, value } => match field {
            Field::Support => op.holds(rule.support, value.as_support(n)),
            Field::Confidence => op.holds(rule.confidence, value.as_f64()),
            Field::Lift => op.holds(rule.lift, value.as_f64()),
            Field::Size => false,
        },
        Pred::PrefixLike(_) | Pred::Contains(_) => false,
    }
}

/// Sorts itemset rows into the canonical order.
pub fn canonical_sort(rows: &mut [(Itemset, Support)]) {
    rows.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then(a.0.len().cmp(&b.0.len()))
            .then(a.0.cmp(&b.0))
    });
}

/// The full-scan oracle: answers every query by brute force over every
/// itemset in support order / the rule list / the PLT, with no index
/// shortcuts.
/// This is both the `FullScan` physical operator and the ground truth
/// the differential tests compare every other operator against.
pub struct NaiveExecutor;

impl NaiveExecutor {
    /// Runs `q` (already normalized) against `src` by exhaustive scan.
    pub fn run(src: &Snapshot, q: &Query) -> Rows {
        let n = src.num_transactions();
        match &q.kind {
            QueryKind::Support { items } => {
                // Count matching vectors directly off the PLT: the sum of
                // frequencies of vectors whose rank sets cover the items.
                let plt = src.plt();
                let ranks: Option<Vec<u32>> =
                    items.iter().map(|&i| plt.ranking().rank(i)).collect();
                let support = match ranks {
                    None => 0, // an unranked item appears in no stored vector
                    Some(want) => plt
                        .iter()
                        .filter(|(pv, _)| {
                            let have = pv.ranks();
                            want.iter().all(|r| have.contains(r))
                        })
                        .map(|(_, entry)| entry.freq)
                        .sum(),
                };
                Rows::Support {
                    items: items.clone(),
                    support,
                    frequent: support >= src.min_support() && !items.is_empty(),
                }
            }
            QueryKind::Top { k, filter } => {
                let rows = src
                    .ranked()
                    .filter(|&(set, sup)| match filter {
                        Some(p) => eval_itemset(p, set, sup, n),
                        None => true,
                    })
                    .take(*k)
                    .map(|(set, sup)| (set.to_itemset(), sup))
                    .collect();
                Rows::Itemsets(rows)
            }
            QueryKind::Rules { filter, k } => {
                let rows = src
                    .rules()
                    .iter()
                    .filter(|r| match filter {
                        Some(p) => eval_rule(p, r, n),
                        None => true,
                    })
                    .take(k.unwrap_or(usize::MAX))
                    .cloned()
                    .collect();
                Rows::Rules(rows)
            }
            QueryKind::MineCond { cond, k } => {
                let rows = src
                    .ranked()
                    .filter(|(set, _)| cond.iter().all(|&i| set.contains(i)))
                    .take(k.unwrap_or(usize::MAX))
                    .map(|(set, sup)| (set.to_itemset(), sup))
                    .collect();
                Rows::Itemsets(rows)
            }
        }
    }
}

/// Executes `q` (already normalized) with the given physical operator.
/// Returns the rows plus, for approximate operators, the metadata
/// stating the guaranteed error bound (`None` from exact operators).
///
/// Returns `PltError::Query` if the operator does not apply to this
/// query shape (the planner never produces such a pairing; the error
/// protects the test-only force hook).
pub fn execute(op: PhysOp, q: &Query, src: &Snapshot) -> Result<(Rows, Option<ApproxMeta>)> {
    let exact = |rows: Rows| (rows, None);
    match (op, &q.kind) {
        (PhysOp::FullScan, _) => Ok(exact(NaiveExecutor::run(src, q))),
        (PhysOp::IndexPoint, QueryKind::Support { items }) => {
            let a = src.support(items);
            Ok(exact(Rows::Support {
                items: items.clone(),
                support: a.support,
                frequent: a.frequent,
            }))
        }
        (PhysOp::SketchProbe, QueryKind::Support { items }) => {
            let Some(sketch) = src.sketch() else {
                return Err(PltError::Query {
                    message: "sketch_probe needs a snapshot with an attached sketch".into(),
                });
            };
            let (support, error_bound) = sketch.estimate(items);
            Ok((
                Rows::Support {
                    items: items.clone(),
                    support,
                    frequent: support >= src.min_support() && !items.is_empty(),
                },
                Some(ApproxMeta { error_bound }),
            ))
        }
        (PhysOp::ExtTraverse, QueryKind::Top { k, filter }) => {
            let seeds: Vec<(Itemset, Support)> = src
                .all_extensions(&[])
                .iter()
                .map(|&(item, sup)| (Itemset::from_sorted(vec![item]), sup))
                .collect();
            Ok(exact(Rows::Itemsets(ext_traverse(
                src,
                seeds,
                filter.as_ref(),
                *k,
            ))))
        }
        (PhysOp::ExtTraverse, QueryKind::MineCond { cond, k }) => {
            let a = src.support(cond);
            if !a.frequent {
                // Anti-monotone: no frequent superset of an infrequent set.
                return Ok(exact(Rows::Itemsets(Vec::new())));
            }
            let seed = (Itemset::new(cond.clone()), a.support);
            Ok(exact(Rows::Itemsets(ext_traverse(
                src,
                vec![seed],
                None,
                k.unwrap_or(usize::MAX),
            ))))
        }
        (PhysOp::RuleScan, QueryKind::Rules { filter, k }) => {
            Ok(exact(Rows::Rules(rule_scan(src, filter.as_ref(), *k))))
        }
        (PhysOp::CondMine, QueryKind::MineCond { cond, k }) => {
            Ok(exact(Rows::Itemsets(cond_mine(src, cond, *k)?)))
        }
        (op, _) => Err(PltError::Query {
            message: format!("operator {} does not apply to `{q}`", op.as_str()),
        }),
    }
}

/// Best-first traversal of the extension index (Lemma 4.1.3) with top-k
/// early termination.
///
/// The frontier is a max-heap on support. Children are supersets, so
/// their support never exceeds their parent's — nodes therefore pop in
/// non-increasing support order. Every popped node is expanded (a node
/// failing the filter can still have passing descendants), but only
/// passing nodes are collected. Once `k` rows are collected and the
/// popped support drops *strictly* below the k-th collected support, no
/// remaining node can enter the top k (equal-support nodes still
/// compete on the size/lex tie-break, hence the strict comparison) and
/// the traversal stops. The collected rows are then canonically sorted
/// to settle ties and truncated to `k`.
fn ext_traverse(
    src: &Snapshot,
    seeds: Vec<(Itemset, Support)>,
    filter: Option<&Pred>,
    k: usize,
) -> Vec<(Itemset, Support)> {
    if k == 0 {
        return Vec::new();
    }
    let n = src.num_transactions();
    let mut heap: BinaryHeap<(Support, Reverse<Itemset>)> = BinaryHeap::new();
    let mut visited: HashSet<Itemset> = HashSet::new();
    for (set, sup) in seeds {
        if visited.insert(set.clone()) {
            heap.push((sup, Reverse(set)));
        }
    }
    let mut passing: Vec<(Itemset, Support)> = Vec::new();
    while let Some((sup, Reverse(set))) = heap.pop() {
        if passing.len() >= k && sup < passing[k - 1].1 {
            break;
        }
        let passes = match filter {
            Some(p) => eval_itemset(p, ItemsetRef::from_sorted(set.items()), sup, n),
            None => true,
        };
        if passes {
            passing.push((set.clone(), sup));
        }
        for &(item, child_sup) in src.all_extensions(set.items()) {
            let child = set.with(item);
            if visited.insert(child.clone()) {
                heap.push((child_sup, Reverse(child)));
            }
        }
    }
    canonical_sort(&mut passing);
    passing.truncate(k);
    passing
}

/// Ordered scan of the rule index with early termination.
///
/// Rules are stored confidence-descending, so a `confidence >=/> c`
/// conjunct at the top level of the filter turns into a stop condition:
/// once the scan passes below `c`, no later rule can satisfy that
/// conjunct. Collection also stops as soon as `k` rows pass (the scan
/// order *is* the output order).
fn rule_scan(src: &Snapshot, filter: Option<&Pred>, k: Option<usize>) -> Vec<Rule> {
    let n = src.num_transactions();
    let bound = filter.and_then(confidence_bound);
    let k = k.unwrap_or(usize::MAX);
    let mut out = Vec::new();
    for rule in src.rules() {
        if let Some((c, strict)) = bound {
            if rule.confidence < c || (strict && rule.confidence <= c) {
                break;
            }
        }
        let passes = match filter {
            Some(p) => eval_rule(p, rule, n),
            None => true,
        };
        if passes {
            out.push(rule.clone());
            if out.len() >= k {
                break;
            }
        }
    }
    out
}

/// Extracts a confidence lower bound `(c, strict)` from the top-level
/// AND chain of a rule filter, if one exists. Only `>=`/`>` atoms
/// directly under ANDs count — anything under OR/NOT is not a safe
/// stop condition.
pub(crate) fn confidence_bound(pred: &Pred) -> Option<(f64, bool)> {
    match pred {
        Pred::And(a, b) => match (confidence_bound(a), confidence_bound(b)) {
            (Some(x), Some(y)) => Some(if x.0 > y.0 || (x.0 == y.0 && x.1) {
                x
            } else {
                y
            }),
            (x, y) => x.or(y),
        },
        Pred::Cmp {
            field: Field::Confidence,
            op: CmpOp::Ge,
            value,
        } => Some((value.as_f64(), false)),
        Pred::Cmp {
            field: Field::Confidence,
            op: CmpOp::Gt,
            value,
        } => Some((value.as_f64(), true)),
        _ => None,
    }
}

/// On-demand conditional mining of the sub-PLT rooted at `cond`
/// (the paper's conditional-database step, run at query time).
///
/// The conditional database is every stored vector whose rank set
/// covers `cond`, expanded by its frequency. For any itemset `Y` over
/// that database, `support_cond(Y) = support(Y ∪ cond)`, so re-mining
/// it at the global threshold yields exactly the frequent supersets of
/// `cond` (different `Y` collapsing to the same `Y ∪ cond` carry equal
/// supports, so the dedup below is lossless).
fn cond_mine(src: &Snapshot, cond: &[Item], k: Option<usize>) -> Result<Vec<(Itemset, Support)>> {
    let plt = src.plt();
    let min_support = src.min_support();
    let Some(cond_ranks) = cond
        .iter()
        .map(|&i| plt.ranking().rank(i))
        .collect::<Option<Vec<u32>>>()
    else {
        return Ok(Vec::new()); // an unranked item is infrequent: nothing to mine
    };
    let mut db: Vec<Vec<Item>> = Vec::new();
    for (pv, entry) in plt.iter() {
        let have = pv.ranks();
        if cond_ranks.iter().all(|r| have.contains(r)) {
            let tx = plt.ranking().items_for_ranks(&have);
            for _ in 0..entry.freq {
                db.push(tx.clone());
            }
        }
    }
    if (db.len() as u64) < min_support {
        return Ok(Vec::new()); // cond itself is infrequent
    }
    let miner = MinerBuilder::new().min_support(min_support).build_miner();
    let result = miner.mine(&db, min_support);
    let cond_set = Itemset::new(cond.to_vec());
    let mut merged: BTreeMap<Itemset, Support> = BTreeMap::new();
    for (itemset, support) in result.iter() {
        let mut union = itemset.items().to_vec();
        for &c in cond_set.items() {
            if !itemset.contains(c) {
                union.push(c);
            }
        }
        merged.insert(Itemset::new(union), support);
    }
    let mut rows: Vec<(Itemset, Support)> = merged.into_iter().collect();
    canonical_sort(&mut rows);
    rows.truncate(k.unwrap_or(usize::MAX));
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Num;
    use crate::snapshot::tests::{snapshot, snapshot_with_sketch};

    fn assert_op_matches_naive(src: &Snapshot, q: &Query, op: PhysOp) {
        let naive = NaiveExecutor::run(src, q);
        let (got, meta) = execute(op, q, src).unwrap();
        assert_eq!(got, naive, "{} disagrees with naive on `{q}`", op.as_str());
        assert_eq!(meta, None, "exact operator {} returned meta", op.as_str());
    }

    #[test]
    fn index_point_matches_naive_support() {
        let src = snapshot(2);
        for items in [vec![0], vec![0, 1], vec![0, 1, 2], vec![0, 2, 3], vec![99]] {
            let q = Query::exact(QueryKind::Support { items });
            assert_op_matches_naive(&src, &q, PhysOp::IndexPoint);
        }
    }

    #[test]
    fn sketch_probe_answers_within_its_stated_bound() {
        let src = snapshot_with_sketch(2, 8, 0.2);
        for items in [vec![0], vec![0, 1], vec![0, 1, 2], vec![0, 2, 3], vec![99]] {
            let q = Query::approx(QueryKind::Support { items }, None);
            let naive = NaiveExecutor::run(&src, &q);
            let (got, meta) = execute(PhysOp::SketchProbe, &q, &src).unwrap();
            let meta = meta.expect("sketch probe must state a bound");
            let (
                Rows::Support { support: exact, .. },
                Rows::Support {
                    support: approx, ..
                },
            ) = (&naive, &got)
            else {
                panic!("support rows expected");
            };
            assert!(
                exact.abs_diff(*approx) <= meta.error_bound,
                "estimate {approx} of {exact} exceeds bound {}",
                meta.error_bound
            );
        }
        // No sketch attached → typed error, not a panic.
        let bare = snapshot(2);
        let q = Query::approx(QueryKind::Support { items: vec![0] }, None);
        let err = execute(PhysOp::SketchProbe, &q, &bare).unwrap_err();
        assert!(err.to_string().contains("attached sketch"));
    }

    #[test]
    fn ext_traverse_matches_naive_top() {
        let src = snapshot(2);
        let filters = [
            None,
            Some(Pred::Cmp {
                field: Field::Size,
                op: CmpOp::Ge,
                value: Num::Abs(2),
            }),
            Some(Pred::And(
                Box::new(Pred::Cmp {
                    field: Field::Support,
                    op: CmpOp::Ge,
                    value: Num::Frac(0.4),
                }),
                Box::new(Pred::Contains(vec![1])),
            )),
            Some(Pred::PrefixLike(vec![PatElem::Any, PatElem::Item(1)])),
            Some(Pred::Not(Box::new(Pred::Contains(vec![2])))),
        ];
        for k in [1, 2, 3, 10, 100] {
            for filter in &filters {
                let q = Query::exact(QueryKind::Top {
                    k,
                    filter: filter.clone(),
                });
                assert_op_matches_naive(&src, &q, PhysOp::ExtTraverse);
            }
        }
    }

    #[test]
    fn mine_cond_operators_match_naive() {
        let src = snapshot(2);
        for cond in [vec![0], vec![1], vec![0, 1], vec![2, 3], vec![5], vec![99]] {
            for k in [None, Some(1), Some(3), Some(100)] {
                let q = Query::exact(QueryKind::MineCond {
                    cond: cond.clone(),
                    k,
                });
                assert_op_matches_naive(&src, &q, PhysOp::ExtTraverse);
                assert_op_matches_naive(&src, &q, PhysOp::CondMine);
            }
        }
    }

    #[test]
    fn rule_scan_matches_naive() {
        let src = snapshot(2);
        let filters = [
            None,
            Some(Pred::Cmp {
                field: Field::Confidence,
                op: CmpOp::Ge,
                value: Num::Frac(0.8),
            }),
            Some(Pred::And(
                Box::new(Pred::Cmp {
                    field: Field::Confidence,
                    op: CmpOp::Gt,
                    value: Num::Frac(0.7),
                }),
                Box::new(Pred::Cmp {
                    field: Field::Lift,
                    op: CmpOp::Gt,
                    value: Num::Frac(1.0),
                }),
            )),
            // OR means no safe early-stop; must still agree.
            Some(Pred::Or(
                Box::new(Pred::Cmp {
                    field: Field::Confidence,
                    op: CmpOp::Ge,
                    value: Num::Frac(0.9),
                }),
                Box::new(Pred::Cmp {
                    field: Field::Support,
                    op: CmpOp::Ge,
                    value: Num::Abs(3),
                }),
            )),
        ];
        for k in [None, Some(1), Some(2), Some(50)] {
            for filter in &filters {
                let q = Query::exact(QueryKind::Rules {
                    filter: filter.clone(),
                    k,
                });
                assert_op_matches_naive(&src, &q, PhysOp::RuleScan);
            }
        }
    }

    #[test]
    fn mismatched_operator_is_a_typed_error() {
        let src = snapshot(2);
        let q = Query::exact(QueryKind::Support { items: vec![0] });
        let err = execute(PhysOp::RuleScan, &q, &src).unwrap_err();
        assert!(err.to_string().contains("does not apply"));
    }

    #[test]
    fn confidence_bound_extraction() {
        let ge = Pred::Cmp {
            field: Field::Confidence,
            op: CmpOp::Ge,
            value: Num::Frac(0.8),
        };
        let gt = Pred::Cmp {
            field: Field::Confidence,
            op: CmpOp::Gt,
            value: Num::Frac(0.9),
        };
        assert_eq!(confidence_bound(&ge), Some((0.8, false)));
        let and = Pred::And(Box::new(ge.clone()), Box::new(gt.clone()));
        assert_eq!(confidence_bound(&and), Some((0.9, true)));
        // Under OR or NOT the bound is not safe.
        let or = Pred::Or(Box::new(ge.clone()), Box::new(gt));
        assert_eq!(confidence_bound(&or), None);
        assert_eq!(confidence_bound(&Pred::Not(Box::new(ge))), None);
    }
}
