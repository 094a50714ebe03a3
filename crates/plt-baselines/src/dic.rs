//! DIC — Dynamic Itemset Counting (Brin, Motwani, Ullman & Tsur,
//! SIGMOD'97; the paper's reference on reducing Apriori's pass count).
//!
//! DIC treats the database as a circular stream processed in blocks of
//! `M` transactions and starts counting an itemset *as soon as* all of its
//! immediate subsets look frequent, instead of waiting for a pass
//! boundary. Using the original's metaphor:
//!
//! * a **dashed** itemset is still being counted (has not yet seen the
//!   whole database since its counter started);
//! * a **solid** itemset has seen every transaction exactly once;
//! * an itemset is **suspected frequent** ("box") once its running count
//!   reaches the threshold — suspicion can only be confirmed, never
//!   retracted, because counts only grow.
//!
//! After each block, itemsets that just became suspected trigger the
//! creation of counters for their extensions whose immediate subsets are
//! all suspected. The algorithm stops when no dashed counters remain; an
//! itemset is frequent iff its (exact, complete) count meets the
//! threshold.

use plt_core::hash::{FxHashMap, FxHashSet};
use plt_core::item::{sorted_subset, Item, Support};
use plt_core::miner::{Miner, MiningResult};

/// The DIC miner.
#[derive(Debug, Clone, Copy)]
pub struct DicMiner {
    /// Block size `M` — how many transactions are processed between
    /// candidate-introduction points (the original used ~15000; scale to
    /// your database).
    pub block_size: usize,
}

impl Default for DicMiner {
    fn default() -> Self {
        DicMiner { block_size: 100 }
    }
}

#[derive(Debug, Clone, Copy)]
struct Counter {
    count: Support,
    /// Transactions this counter has yet to see before going solid.
    remaining: usize,
}

impl Miner for DicMiner {
    fn name(&self) -> &'static str {
        "dic"
    }

    fn mine(&self, transactions: &[Vec<Item>], min_support: Support) -> MiningResult {
        assert!(min_support >= 1, "minimum support must be at least 1");
        assert!(self.block_size >= 1);
        let n = transactions.len();
        let mut result = MiningResult::builder(min_support, n as u64);
        if n == 0 {
            return result.finish();
        }

        // Counters start with every 1-itemset, dashed.
        let mut counters: FxHashMap<Vec<Item>, Counter> = FxHashMap::default();
        {
            let mut items: FxHashSet<Item> = FxHashSet::default();
            for t in transactions {
                items.extend(t.iter().copied());
            }
            for item in items {
                counters.insert(
                    vec![item],
                    Counter {
                        count: 0,
                        remaining: n,
                    },
                );
            }
        }
        let mut suspected: FxHashSet<Vec<Item>> = FxHashSet::default();
        let mut suspected_items: Vec<Item> = Vec::new();
        let mut pos = 0usize;

        loop {
            let dashed: Vec<Vec<Item>> = counters
                .iter()
                .filter(|(_, c)| c.remaining > 0)
                .map(|(k, _)| k.clone())
                .collect();
            if dashed.is_empty() {
                break;
            }
            // Process one block: each dashed counter sees the next
            // min(remaining, M) transactions of the circular stream.
            for key in &dashed {
                let c = counters.get_mut(key).expect("dashed key exists");
                let take = c.remaining.min(self.block_size);
                for i in 0..take {
                    if sorted_subset(key, &transactions[(pos + i) % n]) {
                        c.count += 1;
                    }
                }
                c.remaining -= take;
            }
            pos = (pos + self.block_size) % n;

            // Promotion + candidate introduction.
            let mut newly: Vec<Vec<Item>> = counters
                .iter()
                .filter(|(k, c)| c.count >= min_support && !suspected.contains(*k))
                .map(|(k, _)| k.clone())
                .collect();
            newly.sort();
            while let Some(x) = newly.pop() {
                if !suspected.insert(x.clone()) {
                    continue;
                }
                if x.len() == 1 {
                    suspected_items.push(x[0]);
                }
                // Try every single-item extension whose subsets are all
                // suspected.
                for &j in &suspected_items {
                    if x.binary_search(&j).is_ok() {
                        continue;
                    }
                    let mut y = x.clone();
                    let at = y.partition_point(|&v| v < j);
                    y.insert(at, j);
                    if counters.contains_key(&y) {
                        continue;
                    }
                    let all_suspected = (0..y.len()).all(|drop| {
                        let sub: Vec<Item> = y
                            .iter()
                            .enumerate()
                            .filter(|&(i, _)| i != drop)
                            .map(|(_, &v)| v)
                            .collect();
                        suspected.contains(&sub)
                    });
                    if all_suspected {
                        counters.insert(
                            y,
                            Counter {
                                count: 0,
                                remaining: n,
                            },
                        );
                    }
                }
            }
        }

        for (items, c) in counters {
            debug_assert_eq!(c.remaining, 0);
            if c.count >= min_support {
                result.push(items, c.count);
            }
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
    fn matches_brute_force_for_various_block_sizes() {
        let expect = BruteForceMiner.mine(&table1(), 2);
        for m in [1, 2, 3, 5, 6, 100] {
            let got = DicMiner { block_size: m }.mine(&table1(), 2);
            assert_eq!(got.sorted(), expect.sorted(), "block size {m}");
        }
    }

    #[test]
    fn block_not_dividing_database_length() {
        // n = 6, M = 4: counters go solid mid-block; the partial-take path
        // must count exactly n transactions per counter.
        let expect = BruteForceMiner.mine(&table1(), 1);
        let got = DicMiner { block_size: 4 }.mine(&table1(), 1);
        assert_eq!(got.sorted(), expect.sorted());
    }

    #[test]
    fn empty_and_infrequent() {
        assert!(DicMiner::default().mine(&[], 1).is_empty());
        assert!(DicMiner::default().mine(&table1(), 10).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// DIC agrees with brute force across random databases and block
        /// sizes.
        #[test]
        fn prop_matches_brute_force(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..12, 1..6),
                1..30,
            ),
            min_support in 1u64..4,
            block in 1usize..12,
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let expect = BruteForceMiner.mine(&db, min_support);
            let got = DicMiner { block_size: block }.mine(&db, min_support);
            prop_assert_eq!(got.sorted(), expect.sorted());
        }
    }
}
