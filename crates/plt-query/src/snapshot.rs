//! The immutable query index: a [`Snapshot`] of one mining generation.
//!
//! A snapshot is built once from a PLT and its [`MiningResult`], then
//! shared read-only behind an `Arc` (plt-serve's engine swaps it on
//! every publish). It is what every query executes against: the planner
//! prices operators from its cardinalities and the executor reads its
//! indexes. It keeps the result's own table and indexes its entries by
//! id; it copies no itemset. All per-query work is lookup-shaped:
//!
//! * **Point lookups** binary-search the result's table, which is sorted
//!   by each itemset's one canonical key (Lemma 4.1.2: one itemset, one
//!   position vector, one sorted item list), inside one size group.
//!   Infrequent itemsets fall back to the exact [`SupportOracle`], which
//!   intersects posting lists over the PLT.
//! * **Extensions** use Lemma 4.1.3 in reverse: every frequent `Z` and
//!   item `e ∈ Z` list `(e, support(Z))` under the id of `Z \ {e}`, in
//!   one table of rows by id, so "what extends X?" is one lookup and one
//!   slice.
//! * **Top-k** reads a prefix of the entry ids sorted by support.
//! * **Recommendations** scan precomputed association rules whose
//!   antecedent is contained in the query basket.
//!
//! The canonical orders the executor relies on: [`ranked`](Snapshot::ranked)
//! is support-descending, then size-ascending, then lexicographic;
//! [`rules`](Snapshot::rules) is in `plt_rules::sort_rules` order
//! (confidence desc, lift desc, support desc, antecedent/consequent lex).

use std::collections::HashMap;

use plt_core::item::{Item, Itemset, ItemsetRef, Support};
use plt_core::miner::MiningResult;
use plt_core::query::SupportOracle;
use plt_core::Plt;
use plt_rules::{generate_rules, sort_rules, Rule, RuleConfig};

use crate::source::SupportSketch;

/// Where a support answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupportSource {
    /// Lookup in the frequent-itemset table.
    Index,
    /// Exact fallback through the PLT's support oracle (itemset is
    /// infrequent or mentions unranked items).
    Oracle,
}

impl SupportSource {
    pub fn as_str(self) -> &'static str {
        match self {
            SupportSource::Index => "index",
            SupportSource::Oracle => "oracle",
        }
    }
}

/// A support answer with provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupportAnswer {
    pub support: Support,
    /// Whether the itemset met the mining threshold.
    pub frequent: bool,
    pub source: SupportSource,
}

/// One recommendation produced from the rule index.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Suggested item (not present in the query basket).
    pub item: Item,
    /// The rule that produced it.
    pub confidence: f64,
    pub lift: f64,
    pub support: Support,
    /// The rule antecedent that matched inside the basket.
    pub because: Itemset,
}

/// Immutable, read-optimized index over one mining generation.
#[derive(Debug)]
pub struct Snapshot {
    /// Monotonic publish counter, bumped by the builder.
    generation: u64,
    plt: Plt,
    oracle: SupportOracle,
    /// Every frequent itemset, in the result's canonical (size, items)
    /// order. An itemset's id is its index here.
    result: MiningResult,
    /// Every id, by descending support; ties keep the canonical order,
    /// so they fall by size, then items.
    by_support: Vec<u32>,
    /// `ext[ext_start[i]..ext_start[i + 1]]` are the frequent one-item
    /// extensions `(e, support(X ∪ {e}))` of the itemset `X` with id
    /// `i`, by descending support, then by item. Slot `result.len()` is
    /// the empty set's: the frequent single items.
    ext_start: Vec<u32>,
    ext: Vec<(Item, Support)>,
    /// Association rules sorted by the standard quality order.
    rules: Vec<Rule>,
    /// Optional approximate-tier sketch over the same window; when
    /// attached, the planner's `sketch_probe` operator becomes eligible
    /// for `APPROX`-tier support queries.
    sketch: Option<Box<dyn SupportSketch>>,
}

impl Snapshot {
    /// Builds the index from a PLT and the result of mining it.
    ///
    /// `result` must come from mining `plt`'s transactions at `plt`'s
    /// threshold (the builder guarantees this); `rule_config` controls
    /// the precomputed recommendation rules.
    pub fn build(
        generation: u64,
        plt: Plt,
        result: &MiningResult,
        rule_config: RuleConfig,
    ) -> Snapshot {
        let oracle = SupportOracle::new(&plt);
        let result = result.clone();
        // The ids come in canonical order (size, then items), so a
        // stable sort by support alone breaks ties by size, then items.
        let mut by_support: Vec<u32> = (0..result.len() as u32).collect();
        by_support.sort_by_key(|&id| std::cmp::Reverse(row(&result, id).1));
        let (ext_start, ext) = extension_table(&result, &by_support);

        let mut rules = generate_rules(&result, rule_config);
        sort_rules(&mut rules);

        Snapshot {
            generation,
            plt,
            oracle,
            result,
            by_support,
            ext_start,
            ext,
            rules,
            sketch: None,
        }
    }

    /// Attaches an approximate-tier sketch (builder side; the sketch
    /// must mirror the window this snapshot was mined from).
    pub fn with_sketch(mut self, sketch: Box<dyn SupportSketch>) -> Snapshot {
        self.sketch = Some(sketch);
        self
    }

    /// The attached sketch, if any. Without one the planner plans exact
    /// operators only, even under the `APPROX` tier.
    pub fn sketch(&self) -> Option<&dyn SupportSketch> {
        self.sketch.as_deref()
    }

    /// Publish generation of this snapshot (keys the plan cache).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Transactions behind this snapshot.
    pub fn num_transactions(&self) -> u64 {
        self.plt.num_transactions()
    }

    /// Mining threshold of this snapshot.
    pub fn min_support(&self) -> Support {
        self.plt.min_support()
    }

    /// Number of indexed frequent itemsets (`N` in the cost model).
    pub fn num_itemsets(&self) -> usize {
        self.result.len()
    }

    /// Number of precomputed rules (`R` in the cost model).
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// Number of frequent single items (`r` in the cost model, the
    /// extension-traversal roots).
    pub fn num_roots(&self) -> usize {
        self.slot(self.result.len()).len()
    }

    /// Support of an arbitrary itemset. Frequent itemsets are found in
    /// the result's table; everything else (including the empty set and
    /// unranked items) is answered exactly by the oracle.
    pub fn support(&self, items: &[Item]) -> SupportAnswer {
        // An item without a rank is in no frequent itemset: checking the
        // ranking first keeps such probes off the table.
        let ranked = items.iter().all(|&i| self.plt.ranking().rank(i).is_some());
        if let Some(support) = ranked.then(|| self.result.support(items)).flatten() {
            return SupportAnswer {
                support,
                frequent: true,
                source: SupportSource::Index,
            };
        }
        let support = self.oracle.support(items, &self.plt);
        SupportAnswer {
            support,
            frequent: support >= self.min_support() && !items.is_empty(),
            source: SupportSource::Oracle,
        }
    }

    /// The `k` highest-support frequent itemsets with at least
    /// `min_size` items.
    pub fn top_k(&self, k: usize, min_size: usize) -> Vec<(Itemset, Support)> {
        self.ranked()
            .filter(|(s, _)| s.len() >= min_size)
            .take(k)
            .map(|(s, support)| (s.to_itemset(), support))
            .collect()
    }

    /// Frequent one-item extensions of `items`: every `e` such that
    /// `items ∪ {e}` is frequent, with that union's support,
    /// support-descending, at most `k`. The empty basket extends to the
    /// frequent single items.
    pub fn extensions(&self, items: &[Item], k: usize) -> Vec<(Item, Support)> {
        self.all_extensions(items).iter().take(k).copied().collect()
    }

    /// Every frequent one-item extension of `items`, borrowed from the
    /// index (the extension traversal's inner loop).
    pub(crate) fn all_extensions(&self, items: &[Item]) -> &[(Item, Support)] {
        if items.is_empty() {
            return self.slot(self.result.len());
        }
        self.result.position(items).map_or(&[], |id| self.slot(id))
    }

    /// The extension slot of id `id` (`result.len()` for the empty set).
    fn slot(&self, id: usize) -> &[(Item, Support)] {
        &self.ext[self.ext_start[id] as usize..self.ext_start[id + 1] as usize]
    }

    /// Rule-backed recommendations for a basket: items whose rules fire
    /// (antecedent ⊆ basket, consequent ∌ basket items), best rule per
    /// item, sorted by confidence then lift. At most `k`.
    pub fn recommend(&self, basket: &[Item], k: usize) -> Vec<Recommendation> {
        let basket_set = Itemset::new(basket.to_vec());
        let mut best: HashMap<Item, Recommendation> = HashMap::new();
        for rule in &self.rules {
            if !rule.antecedent.is_subset_of(&basket_set) {
                continue;
            }
            for &item in rule.consequent.items() {
                if basket_set.contains(item) {
                    continue;
                }
                let candidate = Recommendation {
                    item,
                    confidence: rule.confidence,
                    lift: rule.lift,
                    support: rule.support,
                    because: rule.antecedent.clone(),
                };
                match best.get(&item) {
                    Some(cur)
                        if (cur.confidence, cur.lift, cur.support)
                            >= (candidate.confidence, candidate.lift, candidate.support) => {}
                    _ => {
                        best.insert(item, candidate);
                    }
                }
            }
        }
        let mut out: Vec<Recommendation> = best.into_values().collect();
        out.sort_by(|a, b| {
            b.confidence
                .total_cmp(&a.confidence)
                .then(b.lift.total_cmp(&a.lift))
                .then(b.support.cmp(&a.support))
                .then(a.item.cmp(&b.item))
        });
        out.truncate(k);
        out
    }

    /// Self-check: re-derives the support of up to `limit` indexed
    /// itemsets through the exact oracle and compares. Returns the number
    /// checked, or a description of the first disagreement — a
    /// paranoia probe for operators.
    pub fn self_check(&self, limit: usize) -> Result<usize, String> {
        let mut checked = 0;
        for (itemset, indexed) in self.ranked().take(limit) {
            let exact = self.oracle.support(itemset.items(), &self.plt);
            if exact != indexed {
                return Err(format!(
                    "itemset {:?}: indexed support {indexed}, oracle says {exact}",
                    itemset.items()
                ));
            }
            if indexed < self.min_support() {
                return Err(format!(
                    "itemset {:?}: indexed support {indexed} below threshold {}",
                    itemset.items(),
                    self.min_support()
                ));
            }
            checked += 1;
        }
        Ok(checked)
    }

    /// The underlying PLT (read-only; drives on-demand conditional
    /// mining and the naive scan).
    pub fn plt(&self) -> &Plt {
        &self.plt
    }

    /// All frequent itemsets in canonical order (support desc, size
    /// asc, lexicographic asc), borrowed from the result's table.
    pub fn ranked(&self) -> impl Iterator<Item = (ItemsetRef<'_>, Support)> + '_ {
        self.by_support.iter().map(|&id| row(&self.result, id))
    }

    /// All precomputed rules in standard quality order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }
}

/// The row with id `id`, which the snapshot's own tables hand out.
fn row(result: &MiningResult, id: u32) -> (ItemsetRef<'_>, Support) {
    result.get(id as usize).expect("ids index the result")
}

/// The extension table (`ext_start`, `ext`): Lemma 4.1.3 inverted over
/// ids. Each frequent `Z` of support `s` lists `(z, s)` for every
/// `z ∈ Z` under the id of its level-down subset `Z \ {z}`, which the
/// result holds because it is subset-closed; a single item lists under
/// the empty set's slot, `result.len()`. The rows are listed in
/// `by_support` order and then stably sorted by slot, so each slot runs
/// by descending support and, among equal supports, by the canonical
/// order of `Z`, which for one subset is the order of `z`.
fn extension_table(result: &MiningResult, by_support: &[u32]) -> (Vec<u32>, Vec<(Item, Support)>) {
    let empty = result.len();
    let mut rows: Vec<(u32, Item, Support)> =
        Vec::with_capacity(result.iter().map(|(z, _)| z.len()).sum());
    let mut sub: Vec<Item> = Vec::new();
    for &id in by_support {
        let (z, support) = row(result, id);
        for &item in z.items() {
            sub.clear();
            sub.extend(z.items().iter().filter(|&&i| i != item));
            let slot = match &sub[..] {
                [] => empty,
                _ => result.position(&sub).expect("a subset-closed result"),
            };
            rows.push((slot as u32, item, support));
        }
    }
    rows.sort_by_key(|&(slot, ..)| slot);
    // Slot `s` starts at the first row listed under a slot `≥ s`.
    let ext_start = (0..=empty + 1)
        .map(|s| rows.partition_point(|&(slot, ..)| (slot as usize) < s) as u32)
        .collect();
    let ext = rows
        .into_iter()
        .map(|(_, item, support)| (item, support))
        .collect();
    (ext_start, ext)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::source::tests::TestSketch;
    use plt_core::construct::{construct, ConstructOptions};
    use plt_core::miner::BruteForceMiner;
    use plt_core::{ConditionalMiner, Miner};
    use proptest::prelude::*;

    /// Table 1 of the paper: A=0 … F=5.
    pub(crate) fn table1() -> Vec<Vec<Item>> {
        vec![
            vec![0, 1, 2],
            vec![0, 1, 2],
            vec![0, 1, 2, 3],
            vec![0, 1, 3, 4],
            vec![1, 2, 3],
            vec![2, 3, 5],
        ]
    }

    pub(crate) fn snapshot(min_support: Support) -> Snapshot {
        let db = table1();
        let plt = construct(&db, min_support, ConstructOptions::conditional()).unwrap();
        let result = ConditionalMiner::default().mine(&db, min_support);
        Snapshot::build(1, plt, &result, RuleConfig::default())
    }

    pub(crate) fn snapshot_with_sketch(
        min_support: Support,
        cost: usize,
        epsilon: f64,
    ) -> Snapshot {
        snapshot(min_support).with_sketch(Box::new(TestSketch {
            db: table1(),
            cost,
            epsilon,
        }))
    }

    #[test]
    fn support_hits_index_for_frequent_sets() {
        let snap = snapshot(2);
        let a = snap.support(&[0, 1, 2]);
        assert_eq!(a.support, 3);
        assert!(a.frequent);
        assert_eq!(a.source, SupportSource::Index);
        // Order-free (canonical key).
        assert_eq!(snap.support(&[2, 0, 1]).support, 3);
    }

    #[test]
    fn support_falls_back_to_oracle() {
        let snap = snapshot(2);
        // {A,C,D} has support 1 < 2: infrequent, exact via oracle.
        let a = snap.support(&[0, 2, 3]);
        assert_eq!(a.support, 1);
        assert!(!a.frequent);
        assert_eq!(a.source, SupportSource::Oracle);
        // Unknown item → 0.
        assert_eq!(snap.support(&[99]).support, 0);
        // Empty set → all transactions.
        let e = snap.support(&[]);
        assert_eq!(e.support, 6);
        assert!(!e.frequent);
    }

    #[test]
    fn top_k_is_support_descending() {
        let snap = snapshot(2);
        let top = snap.top_k(3, 1);
        assert_eq!(top.len(), 3);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
        // B (item 1) and C (item 2) both appear in 5 transactions.
        assert_eq!(top[0].1, 5);
        // min_size filters.
        let pairs = snap.top_k(100, 2);
        assert!(pairs.iter().all(|(s, _)| s.len() >= 2));
        assert!(pairs.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn extensions_agree_with_mined_supersets() {
        let snap = snapshot(2);
        let exts = snap.extensions(&[0, 1], 10);
        // {A,B} extends to C (support {A,B,C}=3) and D (support {A,B,D}=2).
        assert_eq!(exts, vec![(2, 3), (3, 2)]);
        // Empty basket: frequent single items.
        let roots = snap.extensions(&[], 2);
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0].1, 5);
        // Infrequent basket: nothing.
        assert!(snap.extensions(&[0, 2, 3], 10).is_empty());
    }

    #[test]
    fn extensions_cover_every_frequent_superset() {
        let db = table1();
        let plt = construct(&db, 2, ConstructOptions::conditional()).unwrap();
        let result = ConditionalMiner::default().mine(&db, 2);
        let snap = Snapshot::build(1, plt, &result, RuleConfig::default());
        for (itemset, support) in result.iter() {
            if itemset.len() < 2 {
                continue;
            }
            // Dropping any item e: extensions(Z \ {e}) must list (e, support(Z)).
            for &e in itemset.items() {
                let without: Vec<Item> = itemset
                    .items()
                    .iter()
                    .copied()
                    .filter(|&i| i != e)
                    .collect();
                let exts = snap.extensions(&without, usize::MAX);
                assert!(
                    exts.contains(&(e, support)),
                    "extensions({without:?}) missing ({e}, {support})"
                );
            }
        }
    }

    #[test]
    fn recommendations_respect_basket() {
        let snap = snapshot(2);
        let recs = snap.recommend(&[0], 5);
        assert!(!recs.is_empty());
        for r in &recs {
            assert_ne!(r.item, 0, "must not recommend what's in the basket");
            assert!(r.confidence >= RuleConfig::default().min_confidence);
        }
        // Sorted by confidence descending.
        assert!(recs.windows(2).all(|w| w[0].confidence >= w[1].confidence));
    }

    #[test]
    fn self_check_validates_the_whole_index() {
        let snap = snapshot(2);
        let checked = snap.self_check(usize::MAX).unwrap();
        assert_eq!(checked, snap.num_itemsets());
        // The limit caps work, not correctness.
        assert_eq!(snap.self_check(3).unwrap(), 3);
    }

    /// The cardinalities the cost model plans from are the real sizes
    /// of the arrays the operators scan.
    #[test]
    fn stats_report_real_cardinalities() {
        let snap = snapshot(2);
        assert_eq!(snap.generation(), 1);
        assert_eq!(snap.num_transactions(), 6);
        assert_eq!(snap.min_support(), 2);
        assert_eq!(snap.num_itemsets(), snap.ranked().count());
        assert_eq!(snap.num_rules(), snap.rules().len());
        assert!(snap.num_rules() > 0);
        assert_eq!(snap.num_roots(), snap.extensions(&[], usize::MAX).len());
        assert!(snap.num_roots() >= 2);
        assert!(snap.plt().num_vectors() > 0);
    }

    #[test]
    fn ranked_is_canonical_and_rules_sorted() {
        let snap = snapshot(2);
        let ranked: Vec<_> = snap.ranked().collect();
        for w in ranked.windows(2) {
            let (a, sa) = w[0];
            let (b, sb) = w[1];
            assert!(
                sa > sb
                    || (sa == sb && a.len() < b.len())
                    || (sa == sb && a.len() == b.len() && a < b),
                "ranked order violated at {a} vs {b}"
            );
        }
        for w in snap.rules().windows(2) {
            assert!(w[0].confidence >= w[1].confidence);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every lookup — frequent (index path) or not (oracle path) —
        /// returns the true support, and `frequent` matches the
        /// threshold. Itemsets naming an item that was infrequent at
        /// construction have no rank in the PLT and report 0 (the
        /// documented `SupportOracle` semantics).
        #[test]
        fn prop_snapshot_agrees_with_miner(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..8, 1..5),
                1..25,
            ),
            queries in proptest::collection::vec(
                proptest::collection::btree_set(0u32..8, 1..4),
                1..12,
            ),
            min_support in 1u64..4,
        ) {
            let db: Vec<Vec<u32>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let plt = construct(&db, min_support, ConstructOptions::conditional()).unwrap();
            let ranking = plt.ranking().clone();
            let result = ConditionalMiner::default().mine(&db, min_support);
            let snap = Snapshot::build(1, plt, &result, RuleConfig::default());
            let truth = BruteForceMiner.mine(&db, 1);
            for q in queries {
                let q: Vec<u32> = q.into_iter().collect();
                let all_ranked = q.iter().all(|&i| ranking.rank(i).is_some());
                let expect = if all_ranked {
                    truth.support(&q).unwrap_or(0)
                } else {
                    0
                };
                let got = snap.support(&q);
                prop_assert_eq!(got.support, expect, "support({:?})", &q);
                prop_assert_eq!(
                    got.frequent,
                    expect >= min_support,
                    "frequent({:?})", &q
                );
            }
        }

        /// The extension index is exactly the set of frequent 1-item
        /// supersets of each frequent itemset.
        #[test]
        fn prop_extensions_are_frequent_supersets(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..6, 1..5),
                1..20,
            ),
        ) {
            let db: Vec<Vec<u32>>= db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let min_support = 2;
            let plt = construct(&db, min_support, ConstructOptions::conditional()).unwrap();
            let result = ConditionalMiner::default().mine(&db, min_support);
            let snap = Snapshot::build(1, plt, &result, RuleConfig::default());
            for (itemset, _) in result.iter() {
                let exts = snap.extensions(itemset.items(), usize::MAX);
                for (e, support) in exts {
                    prop_assert!(!itemset.contains(e));
                    let mut superset = itemset.items().to_vec();
                    superset.push(e);
                    prop_assert_eq!(
                        result.support(&superset),
                        Some(support),
                        "{:?} + {}", itemset, e
                    );
                }
            }
        }
    }
}
