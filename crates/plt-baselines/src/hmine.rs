//! H-Mine-style hyper-structure mining (Pei et al., ICDM'01 — the paper's
//! sparse-data reference).
//!
//! H-Mine's insight is to avoid materialising conditional databases:
//! transactions are stored once as frequent-item arrays (the
//! "hyper-structure"), and a projection is just a set of *(transaction,
//! offset)* cursors — H-Mine's header queues — threaded over them. Mining
//! extends a prefix item by item; the projected database of `prefix ∪ {x}`
//! is the cursor set positioned just past each occurrence of `x`.
//!
//! This implementation keeps the queue semantics via explicit cursor
//! vectors (idiomatic Rust in place of the original's in-place pointer
//! relinking, which would need interior mutability for no measurable
//! benefit at these scales).

use plt_core::hash::FxHashMap;
use plt_core::item::{Item, Support};
use plt_core::miner::{Miner, MiningResult, ResultBuilder};

/// The H-Mine miner.
#[derive(Debug, Clone, Copy, Default)]
pub struct HMineMiner;

/// A cursor into the hyper-structure: transaction index and the offset of
/// the first not-yet-consumed item.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    txn: u32,
    offset: u32,
}

impl Miner for HMineMiner {
    fn name(&self) -> &'static str {
        "h-mine"
    }

    fn mine(&self, transactions: &[Vec<Item>], min_support: Support) -> MiningResult {
        assert!(min_support >= 1, "minimum support must be at least 1");
        let mut result = MiningResult::builder(min_support, transactions.len() as u64);

        // Frequent items; the hyper-structure stores each transaction's
        // frequent items sorted ascending by item id.
        let mut counts: FxHashMap<Item, Support> = FxHashMap::default();
        for t in transactions {
            for &item in t {
                *counts.entry(item).or_insert(0) += 1;
            }
        }
        let frequent: FxHashMap<Item, Support> = counts
            .into_iter()
            .filter(|&(_, s)| s >= min_support)
            .collect();
        if frequent.is_empty() {
            return result.finish();
        }

        let hyper: Vec<Vec<Item>> = transactions
            .iter()
            .map(|t| {
                t.iter()
                    .copied()
                    .filter(|i| frequent.contains_key(i))
                    .collect()
            })
            .collect();

        // Root projection: every non-empty row from offset 0.
        let root: Vec<Cursor> = hyper
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_empty())
            .map(|(i, _)| Cursor {
                txn: i as u32,
                offset: 0,
            })
            .collect();

        let mut prefix: Vec<Item> = Vec::new();
        mine_projection(&hyper, &root, min_support, &mut prefix, &mut result);
        result.finish()
    }
}

/// Recursive pseudo-projection mining.
fn mine_projection(
    hyper: &[Vec<Item>],
    cursors: &[Cursor],
    min_support: Support,
    prefix: &mut Vec<Item>,
    result: &mut ResultBuilder,
) {
    // Local header table: support of each item in the projected suffixes.
    let mut local: FxHashMap<Item, Support> = FxHashMap::default();
    for c in cursors {
        for &item in &hyper[c.txn as usize][c.offset as usize..] {
            *local.entry(item).or_insert(0) += 1;
        }
    }
    let mut items: Vec<(Item, Support)> = local
        .into_iter()
        .filter(|&(_, s)| s >= min_support)
        .collect();
    items.sort_unstable();

    for (item, support) in items {
        prefix.push(item);
        result.push(prefix.iter().copied(), support);

        // Project: advance each cursor past `item` where present.
        let mut projected: Vec<Cursor> = Vec::new();
        for c in cursors {
            let row = &hyper[c.txn as usize];
            if let Ok(pos) = row[c.offset as usize..].binary_search(&item) {
                let next = c.offset as usize + pos + 1;
                if next < row.len() {
                    projected.push(Cursor {
                        txn: c.txn,
                        offset: next as u32,
                    });
                }
            }
        }
        if !projected.is_empty() {
            mine_projection(hyper, &projected, min_support, prefix, result);
        }
        prefix.pop();
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
        let got = HMineMiner.mine(&table1(), 2);
        assert_eq!(got.sorted(), expect.sorted());
    }

    #[test]
    fn min_support_one() {
        let expect = BruteForceMiner.mine(&table1(), 1);
        let got = HMineMiner.mine(&table1(), 1);
        assert_eq!(got.sorted(), expect.sorted());
    }

    #[test]
    fn empty_and_infrequent() {
        assert!(HMineMiner.mine(&[], 1).is_empty());
        assert!(HMineMiner.mine(&table1(), 10).is_empty());
    }

    #[test]
    fn sparse_wide_database() {
        // H-Mine's home turf: many items, short transactions.
        let db: Vec<Vec<Item>> = (0..60u32).map(|i| vec![i % 20, 20 + (i % 3)]).collect();
        let expect = BruteForceMiner.mine(&db, 3);
        let got = HMineMiner.mine(&db, 3);
        assert_eq!(got.sorted(), expect.sorted());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// H-Mine agrees with brute force on random databases.
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
            let got = HMineMiner.mine(&db, min_support);
            prop_assert_eq!(got.sorted(), expect.sorted());
        }
    }
}
