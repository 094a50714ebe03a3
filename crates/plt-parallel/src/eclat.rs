//! Parallel Eclat — the comparison point for the X5 speedup experiment.
//!
//! Vertical mining parallelises the same way PLT does: the first-level
//! equivalence classes (one per frequent item, holding its tidset and the
//! tidsets of the items after it) are independent subtrees, fanned out on
//! the Rayon pool and mined depth-first sequentially inside each task.

use rayon::prelude::*;

use plt_core::item::{Item, Support};
use plt_core::miner::{Miner, MiningResult, ResultBuilder};
use plt_data::transaction::TransactionDb;
use plt_data::vertical::{Tid, VerticalDb};

/// Parallel tidset Eclat.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelEclatMiner;

#[derive(Debug, Clone)]
struct Member {
    item: Item,
    tids: Vec<Tid>,
}

impl Miner for ParallelEclatMiner {
    fn name(&self) -> &'static str {
        "eclat-parallel"
    }

    fn mine(&self, transactions: &[Vec<Item>], min_support: Support) -> MiningResult {
        assert!(min_support >= 1, "minimum support must be at least 1");
        let mut result = MiningResult::builder(min_support, transactions.len() as u64);
        let db = TransactionDb::from_sorted(transactions.to_vec());
        let vertical = VerticalDb::from_horizontal(&db);

        let mut root: Vec<Member> = vertical
            .columns()
            .filter(|(_, tids)| tids.len() as Support >= min_support)
            .map(|(item, tids)| Member {
                item,
                tids: tids.to_vec(),
            })
            .collect();
        root.sort_by_key(|m| (m.tids.len(), m.item));

        for m in &root {
            result.push([m.item], m.tids.len() as Support);
        }

        // Fan out the first-level subtrees.
        let locals: Vec<ResultBuilder> = (0..root.len())
            .into_par_iter()
            .map(|i| {
                let mut local = MiningResult::builder(min_support, transactions.len() as u64);
                let mut prefix = vec![root[i].item];
                let mut class: Vec<Member> = Vec::new();
                for b in &root[i + 1..] {
                    let tids = VerticalDb::intersect(&root[i].tids, &b.tids);
                    if tids.len() as Support >= min_support {
                        local.push([root[i].item, b.item], tids.len() as Support);
                        class.push(Member { item: b.item, tids });
                    }
                }
                extend(&class, min_support, &mut prefix, &mut local);
                local
            })
            .collect();
        for local in locals {
            result.append(local);
        }
        result.finish()
    }
}

/// Sequential depth-first extension inside one task.
fn extend(class: &[Member], min_support: Support, prefix: &mut Vec<Item>, out: &mut ResultBuilder) {
    for i in 0..class.len() {
        prefix.push(class[i].item);
        let mut child: Vec<Member> = Vec::new();
        for b in &class[i + 1..] {
            let tids = VerticalDb::intersect(&class[i].tids, &b.tids);
            if tids.len() as Support >= min_support {
                let items = prefix.iter().copied().chain([b.item]);
                out.push(items, tids.len() as Support);
                child.push(Member { item: b.item, tids });
            }
        }
        if !child.is_empty() {
            extend(&child, min_support, prefix, out);
        }
        prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plt_baselines::EclatMiner;
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
    fn matches_sequential_eclat() {
        let seq = EclatMiner::default().mine(&table1(), 2);
        let par = ParallelEclatMiner.mine(&table1(), 2);
        assert_eq!(par.sorted(), seq.sorted());
    }

    #[test]
    fn empty_and_infrequent() {
        assert!(ParallelEclatMiner.mine(&[], 1).is_empty());
        assert!(ParallelEclatMiner.mine(&table1(), 10).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Parallel Eclat agrees with brute force on random databases.
        #[test]
        fn prop_matches_brute_force(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..14, 1..7),
                1..40,
            ),
            min_support in 1u64..5,
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let expect = BruteForceMiner.mine(&db, min_support);
            let got = ParallelEclatMiner.mine(&db, min_support);
            prop_assert_eq!(got.sorted(), expect.sorted());
        }
    }
}
