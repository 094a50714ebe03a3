//! Parallel top-down propagation.
//!
//! The canonical top-down pass ([`plt_core::topdown::all_subset_supports`])
//! is a level-synchronised dynamic program — each level's inherited
//! frequencies feed the next, which serialises the levels. The parallel
//! variant trades that inheritance away: every stored vector expands its
//! own subset lattice independently (the "naive" derivation of the X4
//! ablation), which makes the work embarrassingly parallel over vectors at
//! the cost of re-deriving subsets shared between transactions. On
//! many-core hosts the trade wins whenever the PLT holds many distinct
//! vectors of moderate length.

use rayon::prelude::*;

use plt_core::hash::FxHashMap;
use plt_core::item::{Item, Support};
use plt_core::miner::{Miner, MiningResult};
use plt_core::plt::Plt;
use plt_core::posvec::PositionVector;
use plt_core::ranking::RankPolicy;
use plt_core::topdown::{AllSubsetSupports, TopDownMiner};

use crate::construct::par_construct;

/// Computes the all-subsets table by parallel per-vector expansion.
/// Output is identical to [`plt_core::topdown::all_subset_supports`].
pub fn par_all_subset_supports(plt: &Plt) -> AllSubsetSupports {
    let vectors: Vec<(&PositionVector, Support)> = plt.iter().map(|(v, e)| (v, e.freq)).collect();
    let map = vectors
        .par_iter()
        .fold(
            FxHashMap::<PositionVector, Support>::default,
            |mut acc, &(v, freq)| {
                for sub in v.subset_vectors() {
                    *acc.entry(sub).or_insert(0) += freq;
                }
                acc
            },
        )
        .reduce(FxHashMap::default, |a, b| {
            if a.len() < b.len() {
                return reduce_into(b, a);
            }
            reduce_into(a, b)
        });
    AllSubsetSupports::from_map(map)
}

fn reduce_into(
    mut big: FxHashMap<PositionVector, Support>,
    small: FxHashMap<PositionVector, Support>,
) -> FxHashMap<PositionVector, Support> {
    for (k, v) in small {
        *big.entry(k).or_insert(0) += v;
    }
    big
}

/// The parallel top-down miner.
#[derive(Debug, Clone, Copy)]
pub struct ParallelTopDownMiner {
    /// Item-order policy for the underlying PLT.
    pub rank_policy: RankPolicy,
    /// Same lattice-blow-up guard as [`TopDownMiner`].
    pub max_transaction_len: usize,
}

impl Default for ParallelTopDownMiner {
    fn default() -> Self {
        let inner = TopDownMiner::default();
        ParallelTopDownMiner {
            rank_policy: inner.rank_policy,
            max_transaction_len: inner.max_transaction_len,
        }
    }
}

impl Miner for ParallelTopDownMiner {
    fn name(&self) -> &'static str {
        "plt-topdown-parallel"
    }

    fn mine(&self, transactions: &[Vec<Item>], min_support: Support) -> MiningResult {
        let plt = par_construct(
            transactions,
            min_support,
            plt_core::construct::ConstructOptions {
                rank_policy: self.rank_policy,
                with_prefixes: false,
            },
        )
        .expect("invalid transaction database");
        assert!(
            plt.max_len() <= self.max_transaction_len,
            "top-down mining would enumerate 2^{} subsets",
            plt.max_len()
        );
        let table = par_all_subset_supports(&plt);
        let ranking = plt.ranking();
        let mut result = MiningResult::builder(min_support, plt.num_transactions());
        for (v, support) in table.iter() {
            if support >= min_support {
                result.push(v.ranks_iter().map(|r| ranking.item(r)), support);
            }
        }
        result.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plt_core::construct::{construct, ConstructOptions};
    use plt_core::topdown::all_subset_supports;
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
    fn parallel_table_equals_sequential() {
        let plt = construct(&table1(), 2, ConstructOptions::conditional()).unwrap();
        let seq = all_subset_supports(&plt);
        let par = par_all_subset_supports(&plt);
        assert_eq!(seq.len(), par.len());
        for (v, s) in seq.iter() {
            assert_eq!(par.support(v), s, "{v}");
        }
    }

    #[test]
    fn miner_matches_sequential_topdown() {
        let seq = TopDownMiner::default().mine(&table1(), 2);
        let par = ParallelTopDownMiner::default().mine(&table1(), 2);
        assert_eq!(par.sorted(), seq.sorted());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Parallel and sequential top-down agree on random databases.
        #[test]
        fn prop_parallel_matches_sequential(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..12, 1..6),
                1..30,
            ),
            min_support in 1u64..4,
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let seq = TopDownMiner::default().mine(&db, min_support);
            let par = ParallelTopDownMiner::default().mine(&db, min_support);
            prop_assert_eq!(par.sorted(), seq.sorted());
        }
    }
}
