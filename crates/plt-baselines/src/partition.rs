//! The Partition algorithm (Savaserre, Omiecinski & Navathe, VLDB'95 —
//! cited in the paper's related work).
//!
//! Two passes over the database, regardless of the longest pattern:
//!
//! 1. split the database into partitions that fit in memory; mine each
//!    partition for its *locally* frequent itemsets at the proportional
//!    local threshold. Any globally frequent itemset is locally frequent
//!    in at least one partition (pigeonhole on supports), so the union of
//!    the local families is a complete global candidate set;
//! 2. count the exact global support of every candidate in one more pass
//!    (here, as in the original, with vertical TID-list intersections) and
//!    keep those meeting the global threshold.
//!
//! Local mining reuses [`EclatMiner`] — the original also worked on
//! per-partition tidlists.

use plt_core::hash::FxHashSet;
use plt_core::item::{Item, Itemset, Support};
use plt_core::miner::{Miner, MiningResult};
use plt_data::transaction::TransactionDb;
use plt_data::vertical::VerticalDb;

use crate::eclat::EclatMiner;

/// The Partition miner.
#[derive(Debug, Clone, Copy)]
pub struct PartitionMiner {
    /// Number of database partitions (the memory knob of the original).
    pub num_partitions: usize,
}

impl Default for PartitionMiner {
    fn default() -> Self {
        PartitionMiner { num_partitions: 4 }
    }
}

impl Miner for PartitionMiner {
    fn name(&self) -> &'static str {
        "partition"
    }

    fn mine(&self, transactions: &[Vec<Item>], min_support: Support) -> MiningResult {
        assert!(min_support >= 1, "minimum support must be at least 1");
        assert!(self.num_partitions >= 1);
        let mut result = MiningResult::builder(min_support, transactions.len() as u64);
        if transactions.is_empty() {
            return result.finish();
        }
        let n = transactions.len();
        let s_rel = min_support as f64 / n as f64;

        // Phase 1: local mining per partition.
        let chunk = n.div_ceil(self.num_partitions);
        let mut candidates: FxHashSet<Itemset> = FxHashSet::default();
        for part in transactions.chunks(chunk) {
            // Local threshold: ceil(s_rel · |part|), floor 1. Rounding up
            // keeps the completeness guarantee: local_sup/|part| >= s_rel
            // must imply local frequency.
            let local_min = ((s_rel * part.len() as f64).ceil() as Support).max(1);
            let local = EclatMiner::default().mine(part, local_min);
            candidates.extend(local.iter().map(|(s, _)| s.to_itemset()));
        }

        // Phase 2: exact global counting via tidlist intersections.
        let db = TransactionDb::from_sorted(transactions.to_vec());
        let vertical = VerticalDb::from_horizontal(&db);
        for candidate in candidates {
            let mut items = candidate.items().iter();
            let first = *items.next().expect("candidates are non-empty");
            let mut tids = vertical.tids(first).to_vec();
            for &item in items {
                if tids.is_empty() {
                    break;
                }
                tids = VerticalDb::intersect(&tids, vertical.tids(item));
            }
            let support = tids.len() as Support;
            if support >= min_support {
                result.push(candidate, support);
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
    fn matches_brute_force_for_any_partitioning() {
        let expect = BruteForceMiner.mine(&table1(), 2);
        for p in 1..=7 {
            let got = PartitionMiner { num_partitions: p }.mine(&table1(), 2);
            assert_eq!(got.sorted(), expect.sorted(), "{p} partitions");
        }
    }

    #[test]
    fn more_partitions_than_transactions() {
        let expect = BruteForceMiner.mine(&table1(), 3);
        let got = PartitionMiner {
            num_partitions: 100,
        }
        .mine(&table1(), 3);
        assert_eq!(got.sorted(), expect.sorted());
    }

    #[test]
    fn empty_and_infrequent() {
        assert!(PartitionMiner::default().mine(&[], 1).is_empty());
        assert!(PartitionMiner::default().mine(&table1(), 10).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Partition agrees with brute force for random databases and
        /// partition counts (the completeness guarantee, exercised).
        #[test]
        fn prop_matches_brute_force(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..14, 1..7),
                1..35,
            ),
            min_support in 1u64..5,
            partitions in 1usize..6,
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let expect = BruteForceMiner.mine(&db, min_support);
            let got = PartitionMiner { num_partitions: partitions }
                .mine(&db, min_support);
            prop_assert_eq!(got.sorted(), expect.sorted());
        }
    }
}
