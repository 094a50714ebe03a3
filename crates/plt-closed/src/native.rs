//! Native closed-itemset mining over the PLT — pattern growth in the
//! CLOSET style (Pei, Han & Mao 2000), adapted to position vectors.
//!
//! The post-processing filter in the crate root first materialises *all*
//! frequent itemsets; on dense data that family is exponentially larger
//! than its closed subset, which is the entire motivation for closed
//! mining. The native miner never materialises it:
//!
//! * it runs the paper's conditional recursion (vectors grouped by sum,
//!   highest rank peeled first, prefixes folded back);
//! * **closure extension**: any item occurring in *every* transaction of
//!   a conditional database belongs to the closure of the suffix — it is
//!   absorbed into the output immediately and removed from the conditional
//!   structure, collapsing the `2^k` redundant branches below it;
//! * **subsumption check**: a candidate is emitted only if no previously
//!   emitted closed itemset with the same support contains it.
//!
//! The correctness bar: output ≡ `closed_itemsets(complete result)` —
//! property-tested against exactly that.

use std::collections::BTreeMap;

use plt_core::construct::{construct, ConstructOptions};
use plt_core::hash::FxHashMap;
use plt_core::item::{Item, Rank, Support};
use plt_core::miner::{MiningResult, ResultBuilder};
use plt_core::plt::Plt;
use plt_core::posvec::PositionVector;
use plt_core::ranking::RankPolicy;

/// Vectors grouped by sum — the conditional-PLT working form.
type SumGroups = BTreeMap<Rank, FxHashMap<PositionVector, Support>>;

/// The native closed-itemset miner.
///
/// # Examples
///
/// ```
/// use plt_closed::ClosedMiner;
///
/// // Five identical transactions: one closed itemset, not 2^3 − 1.
/// let db = vec![vec![1, 2, 3]; 5];
/// let closed = ClosedMiner::default().mine(&db, 2);
/// assert_eq!(closed.len(), 1);
/// assert_eq!(closed.support(&[1, 2, 3]), Some(5));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ClosedMiner {
    /// Item-order policy for the underlying PLT.
    pub rank_policy: RankPolicy,
}

impl ClosedMiner {
    /// Mines the closed frequent itemsets of a database.
    pub fn mine(&self, transactions: &[Vec<Item>], min_support: Support) -> MiningResult {
        assert!(min_support >= 1, "minimum support must be at least 1");
        let plt = construct(
            transactions,
            min_support,
            ConstructOptions {
                rank_policy: self.rank_policy,
                with_prefixes: false,
            },
        )
        .expect("invalid transaction database");
        self.mine_plt(&plt)
    }

    /// Mines an already-constructed PLT (no prefixes).
    pub fn mine_plt(&self, plt: &Plt) -> MiningResult {
        let mut groups: SumGroups = SumGroups::new();
        for (v, e) in plt.iter() {
            *groups
                .entry(e.sum)
                .or_default()
                .entry(v.to_owned())
                .or_insert(0) += e.freq;
        }
        let mut state = State {
            plt,
            found: FxHashMap::default(),
            result: MiningResult::builder(plt.min_support(), plt.num_transactions()),
        };
        let mut suffix = Vec::new();
        mine_closed(groups, &mut suffix, &mut state);
        state.result.finish()
    }
}

struct State<'a> {
    plt: &'a Plt,
    /// Closed itemsets found so far, grouped by support for the
    /// subsumption check (rank-space, sorted ascending).
    found: FxHashMap<Support, Vec<Vec<Rank>>>,
    result: ResultBuilder,
}

impl State<'_> {
    /// Records `ranks` (sorted ascending) as closed with `support`, unless
    /// an already-found closed set with identical support subsumes it.
    fn emit(&mut self, ranks: &[Rank], support: Support) {
        debug_assert!(ranks.windows(2).all(|w| w[0] < w[1]));
        if let Some(peers) = self.found.get(&support) {
            if peers.iter().any(|p| is_subset(ranks, p)) {
                return;
            }
        }
        self.found.entry(support).or_default().push(ranks.to_vec());
        let ranking = self.plt.ranking();
        self.result
            .push(ranks.iter().map(|&r| ranking.item(r)), support);
    }
}

fn is_subset(needle: &[Rank], haystack: &[Rank]) -> bool {
    let mut j = 0;
    for &x in needle {
        loop {
            if j == haystack.len() {
                return false;
            }
            match haystack[j].cmp(&x) {
                std::cmp::Ordering::Less => j += 1,
                std::cmp::Ordering::Equal => {
                    j += 1;
                    break;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
    }
    true
}

/// The closed-mining recursion. `suffix` holds the (global) ranks fixed so
/// far, kept sorted ascending for emission.
fn mine_closed(mut groups: SumGroups, suffix: &mut Vec<Rank>, state: &mut State<'_>) {
    while let Some((&j, _)) = groups.iter().next_back() {
        let group = groups.remove(&j).expect("key just observed");
        let support: Support = group.values().sum();

        // Fold prefixes back; collect the conditional database.
        let mut conditional: Vec<(PositionVector, Support)> = Vec::new();
        for (v, f) in group {
            if let Some(prefix) = v.parent() {
                *groups
                    .entry(prefix.sum())
                    .or_default()
                    .entry(prefix.clone())
                    .or_insert(0) += f;
                conditional.push((prefix, f));
            }
        }
        if support < state.plt.min_support() {
            continue;
        }

        // Local frequencies within CD_j.
        let mut counts: FxHashMap<Rank, Support> = FxHashMap::default();
        for (v, f) in &conditional {
            for r in v.ranks_iter() {
                *counts.entry(r).or_insert(0) += f;
            }
        }

        // Closure extension: ranks present in every supporting
        // transaction belong to the closure of suffix ∪ {j}.
        let mut closure: Vec<Rank> = counts
            .iter()
            .filter(|&(_, &c)| c == support)
            .map(|(&r, _)| r)
            .collect();
        closure.push(j);

        // Candidate = suffix ∪ closure, sorted for emission.
        let mut candidate: Vec<Rank> = suffix
            .iter()
            .copied()
            .chain(closure.iter().copied())
            .collect();
        candidate.sort_unstable();
        state.emit(&candidate, support);

        // Conditional structure: keep locally frequent ranks that are NOT
        // in the closure (closure ranks are implied on every branch).
        let keep = |r: Rank| {
            counts.get(&r).copied().unwrap_or(0) >= state.plt.min_support() && counts[&r] != support
        };
        let mut cgroups: SumGroups = SumGroups::new();
        let mut kept: Vec<Rank> = Vec::new();
        for (v, f) in &conditional {
            kept.clear();
            kept.extend(v.ranks_iter().filter(|&r| keep(r)));
            if kept.is_empty() {
                continue;
            }
            let filtered = PositionVector::from_ranks(&kept).expect("increasing ranks");
            *cgroups
                .entry(filtered.sum())
                .or_default()
                .entry(filtered)
                .or_insert(0) += f;
        }
        if !cgroups.is_empty() {
            // Recurse with the full candidate as the new suffix: every
            // closed set below carries the closure items too.
            let saved = suffix.len();
            suffix.extend_from_slice(&closure);
            mine_closed(cgroups, suffix, state);
            suffix.truncate(saved);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_itemsets;
    use plt_core::miner::{BruteForceMiner, Miner};
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

    fn reference(db: &[Vec<Item>], min_sup: Support) -> MiningResult {
        closed_itemsets(&BruteForceMiner.mine(db, min_sup))
    }

    #[test]
    fn matches_post_processing_on_table1() {
        let expect = reference(&table1(), 2);
        let got = ClosedMiner::default().mine(&table1(), 2);
        assert_eq!(got.sorted(), expect.sorted());
    }

    #[test]
    fn min_support_one_on_table1() {
        let expect = reference(&table1(), 1);
        let got = ClosedMiner::default().mine(&table1(), 1);
        assert_eq!(got.sorted(), expect.sorted());
    }

    #[test]
    fn closure_extension_collapses_constant_columns() {
        // Item 9 appears in every transaction: every closed set containing
        // any item also contains 9, and {9} itself is the top closure.
        let db: Vec<Vec<Item>> = vec![vec![1, 9], vec![1, 2, 9], vec![2, 9], vec![1, 2, 9]];
        let got = ClosedMiner::default().mine(&db, 1);
        let expect = reference(&db, 1);
        assert_eq!(got.sorted(), expect.sorted());
        assert!(got.contains(&[9]));
        assert!(!got.contains(&[1])); // {1} closed? sup({1})=3, sup({1,9})=3 → not closed
        assert!(got.contains(&[1, 9]));
    }

    #[test]
    fn dense_data_stays_small() {
        // 10 identical transactions: exactly ONE closed itemset (the full
        // set), versus 2^5 − 1 frequent itemsets.
        let db = vec![vec![1, 2, 3, 4, 5]; 10];
        let got = ClosedMiner::default().mine(&db, 5);
        assert_eq!(got.len(), 1);
        assert_eq!(got.support(&[1, 2, 3, 4, 5]), Some(10));
    }

    #[test]
    fn empty_and_infrequent() {
        assert!(ClosedMiner::default().mine(&[], 1).is_empty());
        assert!(ClosedMiner::default().mine(&table1(), 10).is_empty());
    }

    #[test]
    fn rank_policies_agree() {
        let expect = reference(&table1(), 2);
        for policy in [
            RankPolicy::Lexicographic,
            RankPolicy::FrequencyAscending,
            RankPolicy::FrequencyDescending,
        ] {
            let got = ClosedMiner {
                rank_policy: policy,
            }
            .mine(&table1(), 2);
            assert_eq!(got.sorted(), expect.sorted(), "{policy:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The native closed miner equals brute-force + post-processing on
        /// random databases.
        #[test]
        fn prop_matches_post_processing(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..12, 1..7),
                1..40,
            ),
            min_support in 1u64..5,
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let expect = reference(&db, min_support);
            let got = ClosedMiner::default().mine(&db, min_support);
            prop_assert_eq!(got.sorted(), expect.sorted());
        }
    }
}
