//! AIS (Agrawal, Imieliński & Swami, SIGMOD'93) — the paper's reference
//! \[1\] and the first frequent-itemset algorithm.
//!
//! AIS is level-wise like Apriori but generates candidates *during* the
//! database pass: for every frontier itemset contained in a transaction,
//! it extends the itemset with the transaction's items that come after the
//! frontier itemset's largest item, counting each extension. The original
//! used an estimation heuristic to decide which frequent itemsets enter
//! the next frontier; this implementation promotes every frequent
//! extension (the conservative choice — identical output, more counting
//! work, which is exactly the inefficiency Apriori's candidate join fixed
//! and benchmarks should show).

use plt_core::hash::{FxHashMap, FxHashSet};
use plt_core::item::{sorted_subset, Item, Support};
use plt_core::miner::{Miner, MiningResult};

/// The AIS miner.
#[derive(Debug, Clone, Copy, Default)]
pub struct AisMiner;

impl Miner for AisMiner {
    fn name(&self) -> &'static str {
        "ais"
    }

    fn mine(&self, transactions: &[Vec<Item>], min_support: Support) -> MiningResult {
        assert!(min_support >= 1, "minimum support must be at least 1");
        let mut result = MiningResult::builder(min_support, transactions.len() as u64);

        // Pass 1: frequent items.
        let mut counts: FxHashMap<Item, Support> = FxHashMap::default();
        for t in transactions {
            for &item in t {
                *counts.entry(item).or_insert(0) += 1;
            }
        }
        let frequent_items: FxHashSet<Item> = counts
            .iter()
            .filter(|&(_, &s)| s >= min_support)
            .map(|(&i, _)| i)
            .collect();
        let mut frontier: Vec<Vec<Item>> = Vec::new();
        for (&item, &support) in &counts {
            if support >= min_support {
                result.push([item], support);
                frontier.push(vec![item]);
            }
        }
        frontier.sort();

        // Subsequent passes: extend frontier itemsets inside each
        // transaction.
        while !frontier.is_empty() {
            let mut candidates: FxHashMap<Vec<Item>, Support> = FxHashMap::default();
            for t in transactions {
                for f in &frontier {
                    if !sorted_subset(f, t) {
                        continue;
                    }
                    let last = *f.last().expect("frontier itemsets are non-empty");
                    // Extend with every later frequent item in t.
                    let start = t.partition_point(|&x| x <= last);
                    for &ext in &t[start..] {
                        if frequent_items.contains(&ext) {
                            let mut cand = f.clone();
                            cand.push(ext);
                            *candidates.entry(cand).or_insert(0) += 1;
                        }
                    }
                }
            }
            let mut next: Vec<Vec<Item>> = Vec::new();
            for (cand, support) in candidates {
                if support >= min_support {
                    result.push(cand.iter().copied(), support);
                    next.push(cand);
                }
            }
            next.sort();
            frontier = next;
        }
        result.finish()
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
        let got = AisMiner.mine(&table1(), 2);
        assert_eq!(got.sorted(), expect.sorted());
    }

    #[test]
    fn empty_and_infrequent() {
        assert!(AisMiner.mine(&[], 1).is_empty());
        assert!(AisMiner.mine(&table1(), 10).is_empty());
    }

    #[test]
    fn min_support_one() {
        let expect = BruteForceMiner.mine(&table1(), 1);
        let got = AisMiner.mine(&table1(), 1);
        assert_eq!(got.sorted(), expect.sorted());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// AIS agrees with brute force on random databases.
        #[test]
        fn prop_matches_brute_force(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..14, 1..7),
                1..35,
            ),
            min_support in 1u64..5,
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let expect = BruteForceMiner.mine(&db, min_support);
            let got = AisMiner.mine(&db, min_support);
            prop_assert_eq!(got.sorted(), expect.sorted());
        }
    }
}
