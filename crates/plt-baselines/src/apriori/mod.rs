//! Apriori (Agrawal & Srikant, VLDB'94) — the candidate-generation
//! archetype the paper compares the pattern-growth family against.
//!
//! Level-wise: `L_1` from an item scan, then for each `k`:
//! `C_k = join(L_{k−1})`, prune candidates with an infrequent
//! `(k−1)`-subset (the anti-monotone property), count the survivors with a
//! database pass, keep those meeting the minimum support. Repeats until no
//! candidates survive — "a number of times equal to the size of the largest
//! frequent itemset" (§3).
//!
//! Two steps are pluggable, giving the ablations of experiments X1/X7:
//!
//! * **prune** — [`PruneStrategy::NaiveHashSet`] keeps `L_{k−1}` as plain
//!   itemsets in a hash set; [`PruneStrategy::PltSubsetChecker`] keeps it
//!   as PLT position vectors and probes the Lemma-4.1.3 subset vectors
//!   (the paper's "light subset checking");
//! * **count** — [`CountingStrategy::HashTree`] is the classic hash tree;
//!   [`CountingStrategy::SubsetEnumeration`] enumerates each transaction's
//!   `k`-subsets against a candidate hash map (better when transactions
//!   are short relative to `k`).

mod hash_tree;

pub use hash_tree::HashTree;

use plt_core::hash::{FxHashMap, FxHashSet};
use plt_core::item::{sorted_subset, Item, Itemset, Support};
use plt_core::miner::{Miner, MiningResult};
use plt_core::posvec::PositionVector;
use plt_core::ranking::{ItemRanking, RankPolicy};
use plt_core::subset::{NaiveChecker, SubsetChecker};
use plt_data::bitset::BitsetTidDb;
use plt_data::transaction::TransactionDb;
use plt_data::vertical::VerticalDb;

/// How the anti-monotone prune of candidate generation is implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruneStrategy {
    /// Plain hash set of the previous level's itemsets.
    #[default]
    NaiveHashSet,
    /// PLT subset checker: previous level stored as position vectors,
    /// `(k−1)`-subsets derived via Lemma 4.1.3.
    PltSubsetChecker,
}

/// How candidate supports are counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CountingStrategy {
    /// Classic hash tree (default).
    #[default]
    HashTree,
    /// Enumerate each transaction's `k`-subsets against a candidate map;
    /// falls back to per-candidate subset tests for long transactions.
    SubsetEnumeration,
    /// Probe each candidate against per-item TID bitmaps: support is the
    /// popcount of the AND across its items' rows (`AND`+popcount through
    /// the kernel layer). Replaces the per-transaction subset tests
    /// entirely; best on dense data, where
    /// [`BitsetTidDb::prefer_bitmaps`] holds.
    BitsetProbe,
}

/// The Apriori miner.
#[derive(Debug, Clone, Copy, Default)]
pub struct AprioriMiner {
    /// Prune implementation.
    pub prune: PruneStrategy,
    /// Counting implementation.
    pub counting: CountingStrategy,
}

impl Miner for AprioriMiner {
    fn name(&self) -> &'static str {
        match self.prune {
            PruneStrategy::NaiveHashSet => "apriori",
            PruneStrategy::PltSubsetChecker => "apriori+plt-prune",
        }
    }

    fn mine(&self, transactions: &[Vec<Item>], min_support: Support) -> MiningResult {
        assert!(min_support >= 1, "minimum support must be at least 1");
        let mut result = MiningResult::builder(min_support, transactions.len() as u64);

        // Pass 1: L_1.
        let mut counts: FxHashMap<Item, Support> = FxHashMap::default();
        for t in transactions {
            debug_assert!(
                t.windows(2).all(|w| w[0] < w[1]),
                "transactions must be sorted sets"
            );
            for &item in t {
                *counts.entry(item).or_insert(0) += 1;
            }
        }
        let mut frequent: Vec<(Item, Support)> = counts
            .into_iter()
            .filter(|&(_, s)| s >= min_support)
            .collect();
        frequent.sort_unstable();
        if frequent.is_empty() {
            return result.finish();
        }
        // Ranking for the PLT prune variant (item order = item id order, as
        // in the paper).
        let ranking = ItemRanking::from_frequent_items(frequent.clone(), RankPolicy::Lexicographic);

        let frequent_items: FxHashSet<Item> = frequent.iter().map(|&(i, _)| i).collect();
        for &(item, support) in &frequent {
            result.push([item], support);
        }

        // Filter transactions to frequent items once (every later pass
        // works on the filtered view).
        let filtered: Vec<Vec<Item>> = transactions
            .iter()
            .map(|t| {
                t.iter()
                    .copied()
                    .filter(|i| frequent_items.contains(i))
                    .collect()
            })
            .collect();

        // Bitmap rows for the probe-counting strategy, built once over the
        // filtered view and reused by every level's pass.
        let bitdb = match self.counting {
            CountingStrategy::BitsetProbe => {
                let db = TransactionDb::from_sorted(filtered.clone());
                Some(BitsetTidDb::from_vertical(&VerticalDb::from_horizontal(
                    &db,
                )))
            }
            _ => None,
        };

        // L_{k−1} as sorted itemsets.
        let mut prev_level: Vec<Vec<Item>> = frequent.iter().map(|&(i, _)| vec![i]).collect();

        for k in 2.. {
            let candidates = self.generate_candidates(&prev_level, k, &ranking);
            if candidates.is_empty() {
                break;
            }
            let counted = match self.counting {
                CountingStrategy::HashTree => count_hash_tree(k, candidates, &filtered),
                CountingStrategy::SubsetEnumeration => {
                    count_subset_enumeration(k, candidates, &filtered)
                }
                CountingStrategy::BitsetProbe => {
                    count_bitset_probe(candidates, bitdb.as_ref().expect("built above"))
                }
            };
            let mut level: Vec<Vec<Item>> = Vec::new();
            for (cand, support) in counted {
                if support >= min_support {
                    result.push(cand.iter().copied(), support);
                    level.push(cand);
                }
            }
            if level.is_empty() {
                break;
            }
            level.sort();
            prev_level = level;
        }
        result.finish()
    }
}

impl AprioriMiner {
    /// `C_k` from `L_{k−1}`: join itemsets sharing their first `k−2` items,
    /// then prune candidates with an infrequent `(k−1)`-subset.
    fn generate_candidates(
        &self,
        prev_level: &[Vec<Item>],
        k: usize,
        ranking: &ItemRanking,
    ) -> Vec<Vec<Item>> {
        debug_assert!(
            prev_level.windows(2).all(|w| w[0] < w[1]),
            "L_{{k-1}} sorted"
        );
        let mut candidates = Vec::new();

        // Build the prune checker once per level.
        enum Checker {
            Naive(NaiveChecker),
            Plt(SubsetChecker),
        }
        let checker = match self.prune {
            PruneStrategy::NaiveHashSet => {
                let result: MiningResult = prev_level
                    .iter()
                    .map(|s| (Itemset::from_sorted(s.clone()), 1))
                    .collect();
                Checker::Naive(NaiveChecker::from_result(&result))
            }
            PruneStrategy::PltSubsetChecker => {
                let mut c = SubsetChecker::new();
                for s in prev_level {
                    let ranks: Vec<_> = s
                        .iter()
                        .map(|&i| ranking.rank(i).expect("frequent"))
                        .collect();
                    c.insert(PositionVector::from_ranks(&ranks).expect("non-empty"));
                }
                Checker::Plt(c)
            }
        };

        // Join step: runs of itemsets sharing the (k−2)-prefix.
        let mut run_start = 0;
        while run_start < prev_level.len() {
            let prefix = &prev_level[run_start][..k - 2];
            let mut run_end = run_start + 1;
            while run_end < prev_level.len() && &prev_level[run_end][..k - 2] == prefix {
                run_end += 1;
            }
            for i in run_start..run_end {
                for j in i + 1..run_end {
                    let mut cand = prev_level[i].clone();
                    cand.push(prev_level[j][k - 2]);
                    debug_assert!(cand.windows(2).all(|w| w[0] < w[1]));
                    let keep = match &checker {
                        Checker::Naive(c) => c.all_level_down_subsets_present(&cand),
                        Checker::Plt(c) => {
                            let ranks: Vec<_> = cand
                                .iter()
                                .map(|&x| ranking.rank(x).expect("frequent"))
                                .collect();
                            let v = PositionVector::from_ranks(&ranks).expect("non-empty");
                            c.all_level_down_subsets_present(&v)
                        }
                    };
                    if keep {
                        candidates.push(cand);
                    }
                }
            }
            run_start = run_end;
        }
        candidates
    }
}

/// Hash-tree counting pass.
fn count_hash_tree(
    k: usize,
    candidates: Vec<Vec<Item>>,
    filtered: &[Vec<Item>],
) -> Vec<(Vec<Item>, Support)> {
    let mut tree = HashTree::new(k, candidates);
    for (tid, t) in filtered.iter().enumerate() {
        tree.count_transaction(tid as u64, t);
    }
    tree.into_counts()
}

/// Subset-enumeration counting pass. Transactions whose `C(|t|, k)` is
/// large fall back to testing every candidate against the transaction.
fn count_subset_enumeration(
    k: usize,
    candidates: Vec<Vec<Item>>,
    filtered: &[Vec<Item>],
) -> Vec<(Vec<Item>, Support)> {
    const ENUM_BUDGET: u64 = 4_096;
    let mut counts: FxHashMap<Vec<Item>, Support> =
        candidates.into_iter().map(|c| (c, 0)).collect();
    let mut scratch: Vec<Item> = Vec::with_capacity(k);
    for t in filtered {
        if t.len() < k {
            continue;
        }
        if n_choose_k(t.len() as u64, k as u64) <= ENUM_BUDGET {
            enumerate_subsets(t, k, &mut scratch, &mut |sub| {
                if let Some(c) = counts.get_mut(sub) {
                    *c += 1;
                }
            });
        } else {
            for (cand, c) in counts.iter_mut() {
                if sorted_subset(cand, t) {
                    *c += 1;
                }
            }
        }
    }
    counts.into_iter().collect()
}

/// Bitmap-probe counting pass: one AND+popcount chain per candidate, no
/// transaction loop at all.
fn count_bitset_probe(
    candidates: Vec<Vec<Item>>,
    bitdb: &BitsetTidDb,
) -> Vec<(Vec<Item>, Support)> {
    let mut scratch: Vec<u64> = Vec::with_capacity(bitdb.words_per_row());
    candidates
        .into_iter()
        .map(|cand| {
            let support = bitdb.support(&cand, &mut scratch);
            (cand, support)
        })
        .collect()
}

/// `C(n, k)` saturating at `u64::MAX`.
fn n_choose_k(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u64 = 1;
    for i in 0..k {
        acc = match acc.checked_mul(n - i) {
            Some(v) => v / (i + 1),
            None => return u64::MAX,
        };
    }
    acc
}

/// Calls `f` with every sorted `k`-subset of `t` (itself sorted).
fn enumerate_subsets(t: &[Item], k: usize, scratch: &mut Vec<Item>, f: &mut impl FnMut(&[Item])) {
    fn rec(
        t: &[Item],
        k: usize,
        start: usize,
        scratch: &mut Vec<Item>,
        f: &mut impl FnMut(&[Item]),
    ) {
        if scratch.len() == k {
            f(scratch);
            return;
        }
        let need = k - scratch.len();
        for i in start..=t.len() - need {
            scratch.push(t[i]);
            rec(t, k, i + 1, scratch, f);
            scratch.pop();
        }
    }
    scratch.clear();
    rec(t, k, 0, scratch, f);
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

    fn all_variants() -> Vec<AprioriMiner> {
        let mut v = Vec::new();
        for prune in [PruneStrategy::NaiveHashSet, PruneStrategy::PltSubsetChecker] {
            for counting in [
                CountingStrategy::HashTree,
                CountingStrategy::SubsetEnumeration,
                CountingStrategy::BitsetProbe,
            ] {
                v.push(AprioriMiner { prune, counting });
            }
        }
        v
    }

    #[test]
    fn matches_brute_force_on_table1() {
        let expect = BruteForceMiner.mine(&table1(), 2);
        for miner in all_variants() {
            let got = miner.mine(&table1(), 2);
            assert_eq!(got.sorted(), expect.sorted(), "{miner:?}");
        }
    }

    #[test]
    fn min_support_one() {
        let expect = BruteForceMiner.mine(&table1(), 1);
        let got = AprioriMiner::default().mine(&table1(), 1);
        assert_eq!(got.sorted(), expect.sorted());
    }

    #[test]
    fn nothing_frequent() {
        let got = AprioriMiner::default().mine(&table1(), 10);
        assert!(got.is_empty());
    }

    #[test]
    fn empty_database() {
        let got = AprioriMiner::default().mine(&[], 1);
        assert!(got.is_empty());
    }

    #[test]
    fn prune_actually_prunes() {
        // DB where {1,2}, {1,3}, {2,3} are frequent but candidate {1,2,3}
        // is generated and then found infrequent; and {1,4},{2,4} frequent
        // but {3,4} not → candidate {1,2,4} requires subset {2,4}... build
        // a case where the prune removes a candidate before counting:
        // L_2 = {12, 13, 24} → join gives 123 (needs 23 ∉ L_2: pruned)
        // and nothing else.
        let db = vec![
            vec![1, 2],
            vec![1, 2],
            vec![1, 3],
            vec![1, 3],
            vec![2, 4],
            vec![2, 4],
            vec![1, 2], // lift {1,2}
            vec![3],
            vec![4],
        ];
        let r = AprioriMiner::default().mine(&db, 2);
        assert!(r.contains(&[1, 2]));
        assert!(r.contains(&[1, 3]));
        assert!(r.contains(&[2, 4]));
        assert!(!r.contains(&[1, 2, 3]));
        assert_eq!(r.max_size(), 2);
    }

    #[test]
    fn n_choose_k_basics() {
        assert_eq!(n_choose_k(5, 2), 10);
        assert_eq!(n_choose_k(10, 0), 1);
        assert_eq!(n_choose_k(3, 5), 0);
        assert_eq!(n_choose_k(60, 30), n_choose_k(60, 30));
        assert!(n_choose_k(200, 100) == u64::MAX);
    }

    #[test]
    fn enumerate_subsets_yields_all_combinations() {
        let t = vec![1, 2, 3, 4];
        let mut seen = Vec::new();
        let mut scratch = Vec::new();
        enumerate_subsets(&t, 2, &mut scratch, &mut |s| seen.push(s.to_vec()));
        assert_eq!(
            seen,
            vec![
                vec![1, 2],
                vec![1, 3],
                vec![1, 4],
                vec![2, 3],
                vec![2, 4],
                vec![3, 4],
            ]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// All four Apriori variants agree with brute force.
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
            for miner in all_variants() {
                let got = miner.mine(&db, min_support);
                prop_assert_eq!(got.sorted(), expect.sorted());
            }
        }
    }
}
