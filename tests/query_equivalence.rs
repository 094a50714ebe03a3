//! Differential proof for the query layer: every physical operator the
//! planner can choose — point lookup in the result's table, extension-index
//! traversal, rule-index scan, on-demand conditional mining — and the
//! planner's own choice all return rows **identical** to the naive
//! full-scan oracle ([`NaiveExecutor`]), including top-k tie-break
//! order, across a ≥256-case property sweep over skewed and duplicated
//! datasets crossed with several support thresholds. Every case runs
//! against a [`Snapshot`], the same index plt-serve answers from, and
//! each `SUPPORT OF` probe also checks the snapshot's index/oracle
//! split: the index answers exactly the frequent, fully ranked sets.
//! A second sweep checks the snapshot's own orders (top-k, extension
//! lists, point lookups, roots) against references built from the
//! mining result's rows alone.
//!
//! Operators are driven individually through the test-only plan
//! override hook (`run_forced`); the vendored proptest shim does not
//! shrink, so failures are reported with the full database, the
//! threshold, and the query expression — everything needed to replay
//! the case by hand.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use plt::core::construct::{construct, ConstructOptions};
use plt::core::{ConditionalMiner, Item, Itemset, Miner, Support};
use plt::query::{
    applicable_ops, parse, run, run_forced, NaiveExecutor, QueryKind, Recommendation, Rows,
    Snapshot, SupportSource,
};
use plt::rules::{Rule, RuleConfig};
use proptest::prelude::*;

/// Tiny deterministic generator (xorshift64*) so each proptest case —
/// which only draws primitives — can expand into a whole workload.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Builds a transaction database. `shape` 0 is uniform-sparse; 1 and 2
/// add the adversarial structure the sweep is about: a triangular item
/// skew (low-numbered items dominate, so supports collide and tie-break
/// order actually matters) and, for shapes 1-2, verbatim duplicated
/// transactions (one third of rows replay an earlier one).
fn gen_db(rng: &mut Rng, shape: u8, n_tx: usize, n_items: u32) -> Vec<Vec<u32>> {
    let mut db: Vec<Vec<u32>> = Vec::with_capacity(n_tx);
    for t in 0..n_tx {
        if shape != 0 && t > 0 && rng.below(3) == 0 {
            let i = rng.below(t as u64) as usize;
            db.push(db[i].clone());
            continue;
        }
        let len = 1 + rng.below(n_items as u64) as usize;
        let mut tx = BTreeSet::new();
        for _ in 0..len {
            let item = if shape == 0 {
                rng.below(n_items as u64) as u32
            } else {
                // Triangular skew: item i drawn with weight n_items - i.
                let total = (n_items as u64 * (n_items as u64 + 1)) / 2;
                let r = rng.below(total);
                let mut acc = 0;
                let mut pick = n_items - 1;
                for i in 0..n_items {
                    acc += (n_items - i) as u64;
                    if r < acc {
                        pick = i;
                        break;
                    }
                }
                pick
            };
            tx.insert(item);
        }
        db.push(tx.into_iter().collect());
    }
    db
}

fn join(items: &BTreeSet<u32>) -> String {
    items
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// One expression of every query kind (plus filtered variants), with
/// items drawn from a domain slightly wider than the vocabulary so
/// out-of-vocabulary probes are exercised too.
fn gen_queries(rng: &mut Rng, n_items: u32) -> Vec<String> {
    let item = |rng: &mut Rng| rng.below(n_items as u64 + 2) as u32;
    let mut qs = Vec::new();

    let mut probe = BTreeSet::new();
    for _ in 0..1 + rng.below(3) {
        probe.insert(item(rng));
    }
    qs.push(format!("SUPPORT OF {{{}}}", join(&probe)));

    let k = 1 + rng.below(12);
    let a = item(rng);
    qs.push(format!("TOP {k}"));
    qs.push(format!(
        "TOP {k} WHERE support >= {} AND size >= 2",
        1 + rng.below(4)
    ));
    qs.push(format!("TOP {k} WHERE support >= 0.{}", 1 + rng.below(8)));
    qs.push(format!(
        "TOP {k} WHERE contains {{{a}}} OR prefix LIKE {{{a}, *}}"
    ));
    qs.push(format!("TOP {k} WHERE NOT contains {{{a}}}"));

    let c = rng.below(10) as f64 / 10.0;
    qs.push("RULES".to_string());
    qs.push(format!("RULES WHERE confidence >= {c:.1} TOP {k}"));
    qs.push(format!("RULES WHERE confidence > {c:.1} AND lift >= 1.0"));
    // OR blocks the confidence-bound early stop; the scan must notice.
    qs.push(format!("RULES WHERE support >= 2 OR confidence >= {c:.1}"));

    let b = item(rng);
    qs.push(format!("MINE COND {{{b}}}"));
    qs.push(format!("MINE COND {{{b}}} TOP {k}"));
    if a != b {
        let cond = BTreeSet::from([a, b]);
        qs.push(format!("MINE COND {{{}}} TOP {k}", join(&cond)));
    }

    // Top-level `contains` conjuncts, the shape a pushdown would seed
    // its traversal from; either item may be out of vocabulary.
    let (c, d) = (item(rng), item(rng));
    qs.push(format!("TOP {k} WHERE size >= 2 AND contains {{{c}}}"));
    qs.push(format!(
        "TOP {k} WHERE contains {{{c}}} AND contains {{{d}}} AND support >= {}",
        1 + rng.below(4)
    ));
    qs.push(format!(
        "TOP {k} WHERE contains {{{c}}} AND NOT contains {{{d}}}"
    ));
    if c != d {
        qs.push(format!(
            "TOP {k} WHERE contains {{{}}}",
            join(&BTreeSet::from([c, d]))
        ));
    }
    qs
}

/// Runs `expr` through the oracle, the planner, and every applicable
/// forced operator; `Err` carries a replayable description of the first
/// disagreement.
fn check_all_plans(src: &Snapshot, expr: &str) -> Result<(), String> {
    let q = parse(expr)
        .map_err(|e| format!("`{expr}` failed to parse: {e}"))?
        .normalize();
    let ops = applicable_ops(&q);

    // `MINE COND` over an item the ranking has never seen is rejected
    // at plan time with a typed error — by design identically for the
    // planner and for every forced operator.
    let planned = run(expr, src, &mut plt::obs::Obs::none());
    if let Err(e) = &planned {
        let msg = e.to_string();
        if !msg.starts_with("query: ") {
            return Err(format!("planner error on `{expr}` is not typed: {msg}"));
        }
        for &op in ops {
            match run_forced(expr, src, op) {
                Err(forced) if forced.to_string() == msg => {}
                Err(forced) => {
                    return Err(format!(
                        "{} errors differently on `{expr}`: {forced} vs {msg}",
                        op.as_str()
                    ));
                }
                Ok(_) => {
                    return Err(format!(
                        "{} succeeded on `{expr}` where the planner errored: {msg}",
                        op.as_str()
                    ));
                }
            }
        }
        return Ok(());
    }

    let oracle = NaiveExecutor::run(src, &q);
    let (chosen, prov) = planned.unwrap();
    if chosen != oracle {
        return Err(format!(
            "planner choice {} disagrees with oracle on `{expr}`\n  got: {chosen:?}\n want: {oracle:?}",
            prov.plan.op.as_str()
        ));
    }
    if !ops.contains(&prov.plan.op) {
        return Err(format!(
            "planner chose {} for `{expr}`, not in applicable set {:?}",
            prov.plan.op.as_str(),
            ops
        ));
    }

    // The point lookup answers from the index exactly when the set was
    // mined (frequent, every item ranked); everything else must take
    // the oracle fallback, and both must agree with the naive flag.
    if let (QueryKind::Support { items }, Rows::Support { frequent, .. }) = (&q.kind, &oracle) {
        let answer = src.support(items);
        let ranked = items.iter().all(|&i| src.plt().ranking().rank(i).is_some());
        let want = if ranked && *frequent {
            SupportSource::Index
        } else {
            SupportSource::Oracle
        };
        if answer.source != want || answer.frequent != *frequent {
            return Err(format!(
                "snapshot support on `{expr}` answered {answer:?}, want source {want:?} frequent {frequent}"
            ));
        }
    }

    for &op in ops {
        let (rows, forced_prov) =
            run_forced(expr, src, op).map_err(|e| format!("{} on `{expr}`: {e}", op.as_str()))?;
        if forced_prov.plan.op != op {
            return Err(format!(
                "force hook ignored: asked {} got {}",
                op.as_str(),
                forced_prov.plan.op.as_str()
            ));
        }
        if rows != oracle {
            return Err(format!(
                "{} disagrees with oracle on `{expr}`\n  got: {rows:?}\n want: {oracle:?}",
                op.as_str()
            ));
        }
    }
    Ok(())
}

fn build_source(db: &[Vec<u32>], min_support: u64) -> Snapshot {
    build_with_rules(db, min_support, RuleConfig::default())
}

fn build_with_rules(db: &[Vec<u32>], min_support: u64, rules: RuleConfig) -> Snapshot {
    let plt = construct(db, min_support, ConstructOptions::conditional()).unwrap();
    let result = ConditionalMiner::default().mine(db, min_support);
    Snapshot::build(1, plt, &result, rules)
}

/// `Snapshot::recommend` by a naive scan of `rules`: every rule whose
/// antecedent lies in the basket offers its consequent items outside
/// the basket; each item keeps its best offer by (confidence, lift,
/// support), the first in rule order on a tie; the survivors sort by
/// confidence, lift and support (descending), then item, and the first
/// `k` are kept.
fn naive_recommend(rules: &[Rule], basket: &[u32], k: usize) -> Vec<Recommendation> {
    let basket: BTreeSet<u32> = basket.iter().copied().collect();
    let mut best: Vec<Recommendation> = Vec::new();
    for rule in rules {
        if !rule.antecedent.items().iter().all(|i| basket.contains(i)) {
            continue;
        }
        for &item in rule.consequent.items() {
            if basket.contains(&item) {
                continue;
            }
            let offer = Recommendation {
                item,
                confidence: rule.confidence,
                lift: rule.lift,
                support: rule.support,
                because: rule.antecedent.clone(),
            };
            let key = |r: &Recommendation| (r.confidence, r.lift, r.support);
            match best.iter_mut().find(|r| r.item == item) {
                Some(held) if key(&offer) > key(held) => *held = offer,
                Some(_) => {}
                None => best.push(offer),
            }
        }
    }
    best.sort_by(|a, b| {
        b.confidence
            .total_cmp(&a.confidence)
            .then(b.lift.total_cmp(&a.lift))
            .then(b.support.cmp(&a.support))
            .then(a.item.cmp(&b.item))
    });
    best.truncate(k);
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_plan_and_the_planner_agree_with_the_naive_oracle(
        seed in any::<u64>(),
        shape in 0u8..3,
        n_tx in 4usize..48,
        n_items in 3u32..9,
    ) {
        let mut rng = Rng::new(seed);
        let db = gen_db(&mut rng, shape, n_tx, n_items);
        let n = db.len() as u64;
        // Threshold sweep: everything frequent, a mid band, and a high
        // cut where little (sometimes nothing) survives.
        for min_support in [1, 2, (n / 4).max(3)] {
            let src = build_source(&db, min_support);
            for expr in gen_queries(&mut rng, n_items) {
                if let Err(msg) = check_all_plans(&src, &expr) {
                    prop_assert!(
                        false,
                        "shape={shape} min_support={min_support} db={db:?}\n{msg}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `recommend` equals a naive scan of the snapshot's own rules, for
    /// baskets with duplicate and unranked items and every `k` from 0.
    #[test]
    fn prop_recommend_matches_a_naive_rule_scan(
        seed in any::<u64>(),
        shape in 0u8..3,
        n_tx in 4usize..48,
        n_items in 3u32..9,
        confidence in 0u32..10,
    ) {
        let mut rng = Rng::new(seed);
        let db = gen_db(&mut rng, shape, n_tx, n_items);
        let rules = RuleConfig { min_confidence: f64::from(confidence) / 10.0 };
        for min_support in [1, 2, (db.len() as u64 / 4).max(3)] {
            let src = build_with_rules(&db, min_support, rules);
            for _ in 0..8 {
                // Items up to n_items + 1 may be unranked or unseen, and
                // a draw may repeat an item.
                let len = rng.below(n_items as u64 + 2) as usize;
                let basket: Vec<u32> =
                    (0..len).map(|_| rng.below(n_items as u64 + 2) as u32).collect();
                let k = rng.below(6) as usize;
                let got = src.recommend(&basket, k);
                let want = naive_recommend(src.rules(), &basket, k);
                prop_assert!(
                    got == want,
                    "shape={shape} min_support={min_support} confidence={confidence} \
                     basket={basket:?} k={k} db={db:?}\n  got: {got:?}\n want: {want:?}"
                );
            }
        }
    }
}

/// The snapshot's `top_k`, `extensions`, `support` and `num_roots`
/// against references computed from `rows`, the mining result's
/// `sorted()` rows, alone; `Err` names the first disagreement.
fn check_snapshot_orders(
    src: &Snapshot,
    rows: &[(Itemset, Support)],
    rng: &mut Rng,
    n_items: u32,
) -> Result<(), String> {
    // Top-k: the rows stable-sorted by descending support, so ties keep
    // the canonical (size, items) order.
    let max_size = rows.last().map_or(0, |(z, _)| z.len());
    for min_size in 0..=max_size + 1 {
        let mut want: Vec<(Itemset, Support)> = rows
            .iter()
            .filter(|(z, _)| z.len() >= min_size)
            .cloned()
            .collect();
        want.sort_by_key(|&(_, support)| Reverse(support));
        let got = src.top_k(usize::MAX, min_size);
        if got != want {
            return Err(format!(
                "top_k(MAX, {min_size})\n  got: {got:?}\n want: {want:?}"
            ));
        }
    }

    // Extensions: every frequent `x ∪ {e}`, by descending support, then
    // by item. A basket is a set, so any spelling of it extends alike,
    // and one naming an item outside the vocabulary extends to nothing.
    let naive = |basket: &[Item]| -> Vec<(Item, Support)> {
        let x: BTreeSet<Item> = basket.iter().copied().collect();
        let mut want: Vec<(Item, Support)> = rows
            .iter()
            .filter(|(z, _)| z.len() == x.len() + 1 && x.iter().all(|&i| z.contains(i)))
            .map(|(z, support)| {
                let e = z.items().iter().find(|i| !x.contains(i));
                (*e.expect("z has one item beyond x"), *support)
            })
            .collect();
        want.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        want
    };
    let outside = n_items + 1;
    let mut baskets: Vec<Vec<Item>> = vec![Vec::new(), vec![outside]];
    for (x, _) in rows {
        let items = x.items();
        baskets.push(items.to_vec());
        // Reversed, with the first item repeated.
        let mut spelling: Vec<Item> = items.iter().rev().copied().collect();
        spelling.push(items[0]);
        baskets.push(spelling);
        baskets.push([items, &[outside]].concat());
    }
    for _ in 0..8 {
        let len = rng.below(4) as usize;
        baskets.push(
            (0..len)
                .map(|_| rng.below(u64::from(outside) + 1) as Item)
                .collect(),
        );
    }
    for basket in &baskets {
        let (got, want) = (src.extensions(basket, usize::MAX), naive(basket));
        if got != want {
            return Err(format!(
                "extensions({basket:?})\n  got: {got:?}\n want: {want:?}"
            ));
        }
    }

    for (x, support) in rows {
        let answer = src.support(x.items());
        if (answer.support, answer.frequent, answer.source)
            != (*support, true, SupportSource::Index)
        {
            return Err(format!(
                "support({x}) answered {answer:?}, want {support} from the index"
            ));
        }
    }
    let singles = rows.iter().filter(|(z, _)| z.len() == 1).count();
    if src.num_roots() != singles {
        return Err(format!(
            "num_roots() = {}, but {singles} single items are frequent",
            src.num_roots()
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The snapshot's support order, extension lists, point lookups and
    /// root count equal references built from the mining result's rows
    /// alone, independent of the structures the snapshot keeps.
    #[test]
    fn prop_snapshot_orders_match_the_mining_result(
        seed in any::<u64>(),
        shape in 0u8..3,
        n_tx in 4usize..48,
        n_items in 3u32..9,
    ) {
        let mut rng = Rng::new(seed);
        let db = gen_db(&mut rng, shape, n_tx, n_items);
        for min_support in [1, 2, (db.len() as u64 / 4).max(3)] {
            let plt = construct(&db, min_support, ConstructOptions::conditional()).unwrap();
            let result = ConditionalMiner::default().mine(&db, min_support);
            let src = Snapshot::build(1, plt, &result, RuleConfig::default());
            if let Err(msg) = check_snapshot_orders(&src, &result.sorted(), &mut rng, n_items) {
                prop_assert!(
                    false,
                    "shape={shape} min_support={min_support} db={db:?}\n{msg}"
                );
            }
        }
    }
}

/// Degenerate generation: nothing mined at all. Every operator must
/// agree on the empty answers rather than panic on missing indexes.
#[test]
fn all_plans_agree_when_nothing_is_frequent() {
    let db = vec![vec![0, 1], vec![2, 3], vec![4, 5]];
    let src = build_source(&db, 2);
    for expr in [
        "SUPPORT OF {0, 1}",
        "SUPPORT OF {7}",
        "TOP 5",
        "TOP 3 WHERE size >= 2",
        "RULES",
        "RULES WHERE confidence >= 0.5 TOP 2",
        "MINE COND {0}",
        "MINE COND {0, 1} TOP 4",
    ] {
        check_all_plans(&src, expr).unwrap();
    }
}

/// Tie-break regression pinned by hand: equal supports must order by
/// size then lexicographically, and a TOP k cutting through the tie
/// must keep the same prefix under every operator.
#[test]
fn top_k_tie_breaks_identically_across_plans() {
    // Four transactions where {0}, {1}, {0,1}, {2} all tie at support 2.
    let db = vec![vec![0, 1], vec![0, 1], vec![2, 3], vec![2, 4]];
    let src = build_source(&db, 2);
    for k in 1..=6 {
        check_all_plans(&src, &format!("TOP {k}")).unwrap();
        check_all_plans(&src, &format!("MINE COND {{0}} TOP {k}")).unwrap();
    }
}
