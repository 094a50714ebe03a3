//! FP-growth (Han, Pei & Yin, SIGMOD'00) — "Mining Frequent Patterns
//! without Candidate Generation", the paper's reference \[3\] and the
//! algorithm whose conditional-structure idea Algorithm 3 adapts to
//! position vectors.
//!
//! Two scans build the [`FpTree`]; mining then proceeds per item from the
//! least frequent up: gather the item's **conditional pattern base** by
//! walking its node links and prefix paths, build the conditional FP-tree
//! from the base (re-filtered against the minimum support), and recurse.
//! A conditional tree that is a single path short-circuits into direct
//! enumeration of its item combinations.

mod tree;

pub use tree::{FpTree, Header, NIL, NIL_ITEM};

use plt_core::hash::FxHashMap;
use plt_core::item::{Item, Support};
use plt_core::miner::{Miner, MiningResult, ResultBuilder};

/// The FP-growth miner.
#[derive(Debug, Clone, Copy, Default)]
pub struct FpGrowthMiner;

/// Builds the (initial) FP-tree for a database at a minimum support,
/// returning the tree and the frequency-ordered item table. Exposed for
/// the construction-cost and structure-size experiments (X6/X8).
pub fn build_fp_tree(transactions: &[Vec<Item>], min_support: Support) -> (FpTree, Vec<Item>) {
    let mut counts: FxHashMap<Item, Support> = FxHashMap::default();
    for t in transactions {
        for &item in t {
            *counts.entry(item).or_insert(0) += 1;
        }
    }
    let mut frequent: Vec<(Item, Support)> = counts
        .into_iter()
        .filter(|&(_, s)| s >= min_support)
        .collect();
    frequent.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let order_to_item: Vec<Item> = frequent.iter().map(|&(i, _)| i).collect();
    let item_to_order: FxHashMap<Item, u32> = order_to_item
        .iter()
        .enumerate()
        .map(|(o, &i)| (i, o as u32))
        .collect();
    let mut fp = FpTree::new(order_to_item.len());
    let mut path: Vec<u32> = Vec::new();
    for t in transactions {
        path.clear();
        path.extend(t.iter().filter_map(|i| item_to_order.get(i).copied()));
        path.sort_unstable();
        if !path.is_empty() {
            fp.insert(&path, 1);
        }
    }
    (fp, order_to_item)
}

impl Miner for FpGrowthMiner {
    fn name(&self) -> &'static str {
        "fp-growth"
    }

    fn mine(&self, transactions: &[Vec<Item>], min_support: Support) -> MiningResult {
        assert!(min_support >= 1, "minimum support must be at least 1");
        let mut result = MiningResult::builder(min_support, transactions.len() as u64);
        // Scan 1 (frequency order) + scan 2 (tree build).
        let (fp, order_to_item) = build_fp_tree(transactions, min_support);
        if order_to_item.is_empty() {
            return result.finish();
        }
        let mut suffix: Vec<u32> = Vec::new();
        fp_growth(&fp, min_support, &order_to_item, &mut suffix, &mut result);
        result.finish()
    }
}

/// Emits `suffix ∪ extra` (order indices) with `support`.
fn emit(
    order_to_item: &[Item],
    suffix: &[u32],
    extra: &[u32],
    support: Support,
    result: &mut ResultBuilder,
) {
    let items = suffix
        .iter()
        .chain(extra)
        .map(|&o| order_to_item[o as usize]);
    result.push(items, support);
}

/// The recursive FP-growth procedure.
fn fp_growth(
    tree: &FpTree,
    min_support: Support,
    order_to_item: &[Item],
    suffix: &mut Vec<u32>,
    result: &mut ResultBuilder,
) {
    // Single-path shortcut: every combination of the path's nodes is
    // frequent with the count of its deepest node.
    if let Some(path) = tree.single_path() {
        if path.is_empty() {
            return;
        }
        enumerate_path_combinations(&path, min_support, order_to_item, suffix, result);
        return;
    }

    // General case: process items from least frequent (highest order
    // index) upward.
    for item in (0..tree.num_items() as u32).rev() {
        let header = tree.header(item);
        if header.count < min_support {
            continue;
        }
        suffix.push(item);
        emit(order_to_item, suffix, &[], header.count, result);

        // Conditional pattern base: prefix path of every node in the
        // item's chain, weighted by the node's count.
        let mut base: Vec<(Vec<u32>, Support)> = Vec::new();
        let mut local: FxHashMap<u32, Support> = FxHashMap::default();
        for (node, count) in tree.chain(item) {
            let mut p = tree.prefix_path(node);
            p.pop(); // drop `item` itself
            if !p.is_empty() {
                for &x in &p {
                    *local.entry(x).or_insert(0) += count;
                }
                base.push((p, count));
            }
        }

        // Conditional FP-tree: keep locally frequent items only. Order
        // indices are global, so paths stay strictly increasing after
        // filtering.
        if !base.is_empty() {
            let mut cond = FpTree::new(tree.num_items());
            let mut any = false;
            let mut filtered: Vec<u32> = Vec::new();
            for (p, count) in &base {
                filtered.clear();
                filtered.extend(p.iter().copied().filter(|x| local[x] >= min_support));
                if !filtered.is_empty() {
                    cond.insert(&filtered, *count);
                    any = true;
                }
            }
            if any {
                fp_growth(&cond, min_support, order_to_item, suffix, result);
            }
        }
        suffix.pop();
    }
}

/// Single-path enumeration: all non-empty combinations of `path` items,
/// each supported by the count of its deepest (last) selected node.
fn enumerate_path_combinations(
    path: &[(u32, Support)],
    min_support: Support,
    order_to_item: &[Item],
    suffix: &[u32],
    result: &mut ResultBuilder,
) {
    // Counts along a single path are non-increasing, so the deepest node
    // determines the combination's support. Path lengths are bounded by
    // transaction length; enumeration size is the output size.
    assert!(path.len() < 64);
    let mut combo: Vec<u32> = Vec::with_capacity(path.len());
    for mask in 1u64..(1u64 << path.len()) {
        combo.clear();
        let mut support = Support::MAX;
        for (i, &(item, count)) in path.iter().enumerate() {
            if mask & (1 << i) != 0 {
                combo.push(item);
                support = count; // deepest selected so far
            }
        }
        if support >= min_support {
            emit(order_to_item, suffix, &combo, support, result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plt_core::miner::BruteForceMiner;
    use proptest::prelude::*;

    fn table1() -> Vec<Vec<Item>> {
        vec![
            vec![0, 1, 2],
            vec![0, 1, 2],
            vec![0, 1, 2, 3],
            vec![0, 1, 3, 4],
            vec![1, 2, 3],
            vec![2, 3, 5],
        ]
    }

    #[test]
    fn matches_brute_force_on_table1() {
        let expect = BruteForceMiner.mine(&table1(), 2);
        let got = FpGrowthMiner.mine(&table1(), 2);
        assert_eq!(got.sorted(), expect.sorted());
    }

    #[test]
    fn single_path_database() {
        // All transactions identical → the tree is one path and the
        // shortcut fires; every subset has support 4.
        let db = vec![vec![1, 2, 3]; 4];
        let r = FpGrowthMiner.mine(&db, 2);
        assert_eq!(r.len(), 7);
        assert_eq!(r.support(&[1, 2, 3]), Some(4));
        assert_eq!(r.support(&[2]), Some(4));
    }

    #[test]
    fn nested_single_path_with_decreasing_counts() {
        let db = vec![vec![1, 2, 3], vec![1, 2, 3], vec![1, 2], vec![1]];
        let r = FpGrowthMiner.mine(&db, 2);
        assert_eq!(r.support(&[1]), Some(4));
        assert_eq!(r.support(&[1, 2]), Some(3));
        assert_eq!(r.support(&[1, 2, 3]), Some(2));
        assert_eq!(r.support(&[2, 3]), Some(2));
        let expect = BruteForceMiner.mine(&db, 2);
        assert_eq!(r.sorted(), expect.sorted());
    }

    #[test]
    fn empty_and_infrequent() {
        assert!(FpGrowthMiner.mine(&[], 1).is_empty());
        assert!(FpGrowthMiner.mine(&table1(), 10).is_empty());
    }

    #[test]
    fn min_support_one() {
        let expect = BruteForceMiner.mine(&table1(), 1);
        let got = FpGrowthMiner.mine(&table1(), 1);
        assert_eq!(got.sorted(), expect.sorted());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// FP-growth agrees with brute force on random databases.
        #[test]
        fn prop_matches_brute_force(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..15, 1..7),
                1..40,
            ),
            min_support in 1u64..6,
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let expect = BruteForceMiner.mine(&db, min_support);
            let got = FpGrowthMiner.mine(&db, min_support);
            prop_assert_eq!(got.sorted(), expect.sorted());
        }
    }
}
