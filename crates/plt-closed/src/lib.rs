//! # plt-closed — closed & maximal itemset post-processing
//!
//! Condensed representations of a frequent-itemset family:
//!
//! * an itemset is **closed** if no proper superset has the same support
//!   (dropping non-closed sets loses nothing — their supports are implied);
//! * an itemset is **maximal** if no proper superset is frequent at all
//!   (the smallest family that still determines *which* itemsets are
//!   frequent, though not their supports).
//!
//! The paper's conclusion pitches PLT as "a promising tool for most of the
//! existing data mining approaches"; closed/maximal mining (CLOSET+,
//! MAFIA, …) is the most prominent such family, and this crate provides
//! the standard post-processing formulation: filter a complete
//! [`MiningResult`] by superset inspection, one level up at a time.
//!
//! Both filters run in `O(Σ_k k · |F_k|)` probes: an itemset only needs
//! its `(k+1)`-supersets checked, each `(k+1)`-itemset names its `k+1`
//! subsets directly, and a result's size groups are contiguous slices
//! ([`MiningResult::of_size`]).

pub mod native;

pub use native::ClosedMiner;

use plt_core::hash::FxHashSet;
use plt_core::item::Item;
use plt_core::miner::MiningResult;

/// Keeps the closed itemsets of a (complete) mining result.
pub fn closed_itemsets(result: &MiningResult) -> MiningResult {
    filter_by_supersets(result, |own_support, superset_support| {
        // Closed: keep unless some (k+1)-superset matches our support.
        own_support == superset_support
    })
}

/// Keeps the maximal itemsets of a (complete) mining result.
pub fn maximal_itemsets(result: &MiningResult) -> MiningResult {
    filter_by_supersets(result, |_own, _superset| {
        // Maximal: keep unless any (k+1)-superset is frequent at all.
        true
    })
}

/// Derives the maximal itemsets from a *closed* family (e.g. the output
/// of [`native::ClosedMiner`]), without ever materialising the complete
/// frequent family: a closed itemset is maximal iff no other closed
/// itemset properly contains it (every frequent superset extends to a
/// closed one).
pub fn maximal_from_closed(closed: &MiningResult) -> MiningResult {
    let mut out = MiningResult::builder(closed.min_support(), closed.num_transactions());
    for (itemset, support) in closed.iter() {
        // An itemset only needs checking against the larger size groups.
        let dominated = (itemset.len() + 1..=closed.max_size()).any(|k| {
            closed
                .of_size(k)
                .any(|(bigger, _)| itemset.is_subset_of(bigger))
        });
        if !dominated {
            out.push(itemset.items().iter().copied(), support);
        }
    }
    out.finish()
}

/// Shared machinery: drop an itemset when some frequent `(k+1)`-superset
/// satisfies `kill(own_support, superset_support)`.
///
/// Checking only one level up suffices for both predicates: frequency and
/// equal-support domination both propagate through a chain of single-item
/// extensions (if a (k+2)-superset kills you, the (k+1)-itemset between
/// you and it does too — supports are monotone along the chain).
fn filter_by_supersets(result: &MiningResult, kill: impl Fn(u64, u64) -> bool) -> MiningResult {
    let mut out = MiningResult::builder(result.min_support(), result.num_transactions());
    for k in 1..=result.max_size() {
        // The k-itemsets dominated by some (k+1)-superset: enumerate each
        // upper itemset's immediate subsets.
        let mut killed: FxHashSet<Vec<Item>> = FxHashSet::default();
        for (upper, upper_support) in result.of_size(k + 1) {
            for drop in 0..upper.len() {
                let sub: Vec<Item> = upper
                    .items()
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != drop)
                    .map(|(_, &x)| x)
                    .collect();
                if let Some(own) = result.support(&sub) {
                    if kill(own, upper_support) {
                        killed.insert(sub);
                    }
                }
            }
        }
        for (itemset, support) in result.of_size(k) {
            if !killed.contains(itemset.items()) {
                out.push(itemset.items().iter().copied(), support);
            }
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use plt_core::item::{Item, Itemset};
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

    #[test]
    fn closed_sets_of_table1() {
        // Supports: A4 B5 C5 D4 AB4 AC3 AD2 BC4 BD3 CD3 ABC3 ABD2 BCD2.
        // Non-closed: A (=AB), AC (=ABC), AD (=ABD), BC... sup(BC)=4 vs
        // supersets ABC=3, BCD=2 → closed. A: superset AB has 4 → killed.
        let all = BruteForceMiner.mine(&table1(), 2);
        let closed = closed_itemsets(&all);
        assert!(!closed.contains(&[0])); // A absorbed by AB
        assert!(closed.contains(&[0, 1])); // AB closed (ABC=3 < 4)
        assert!(!closed.contains(&[0, 2])); // AC=3 absorbed by ABC=3
        assert!(!closed.contains(&[0, 3])); // AD=2 absorbed by ABD=2
        assert!(closed.contains(&[1])); // B=5, AB=4,BC=4,BD=3 → closed
        assert!(closed.contains(&[2])); // C=5
        assert!(closed.contains(&[1, 3])); // BD=3; supersets ABD=2, BCD=2 differ
    }

    #[test]
    fn bd_is_closed_correction() {
        // Explicit check of the boundary from the previous test: BD=3 has
        // no superset with support 3, so it *is* closed.
        let all = BruteForceMiner.mine(&table1(), 2);
        let closed = closed_itemsets(&all);
        assert!(closed.contains(&[1, 3]));
    }

    #[test]
    fn maximal_sets_of_table1() {
        let all = BruteForceMiner.mine(&table1(), 2);
        let maximal = maximal_itemsets(&all);
        // Frequent 3-itemsets: ABC, ABD, BCD; no frequent 4-itemset, so
        // all three are maximal. CD (sup 3) is contained in BCD → not
        // maximal.
        assert!(maximal.contains(&[0, 1, 2]));
        assert!(maximal.contains(&[0, 1, 3]));
        assert!(maximal.contains(&[1, 2, 3]));
        assert!(!maximal.contains(&[2, 3]));
        assert!(!maximal.contains(&[1]));
        assert_eq!(maximal.len(), 3);
    }

    #[test]
    fn closed_preserves_supports_and_maximal_subset_of_closed() {
        let all = BruteForceMiner.mine(&table1(), 2);
        let closed = closed_itemsets(&all);
        let maximal = maximal_itemsets(&all);
        for (s, sup) in closed.iter() {
            assert_eq!(all.support(s.items()), Some(sup));
        }
        for (s, _) in maximal.iter() {
            assert!(closed.contains(s.items()), "maximal {s} must be closed");
        }
        assert!(maximal.len() <= closed.len());
        assert!(closed.len() <= all.len());
    }

    /// Reference definitions by full pairwise comparison.
    fn reference_closed(all: &MiningResult) -> Vec<Itemset> {
        all.iter()
            .filter(|(s, sup)| {
                !all.iter()
                    .any(|(t, tsup)| t.len() > s.len() && s.is_subset_of(t) && tsup == *sup)
            })
            .map(|(s, _)| s.to_itemset())
            .collect()
    }

    fn reference_maximal(all: &MiningResult) -> Vec<Itemset> {
        all.iter()
            .filter(|(s, _)| {
                !all.iter()
                    .any(|(t, _)| t.len() > s.len() && s.is_subset_of(t))
            })
            .map(|(s, _)| s.to_itemset())
            .collect()
    }

    #[test]
    fn level_up_filter_matches_reference_on_table1() {
        let all = BruteForceMiner.mine(&table1(), 2);
        let mut fast: Vec<Itemset> = closed_itemsets(&all)
            .iter()
            .map(|(s, _)| s.to_itemset())
            .collect();
        let mut slow = reference_closed(&all);
        fast.sort();
        slow.sort();
        assert_eq!(fast, slow);

        let mut fast: Vec<Itemset> = maximal_itemsets(&all)
            .iter()
            .map(|(s, _)| s.to_itemset())
            .collect();
        let mut slow = reference_maximal(&all);
        fast.sort();
        slow.sort();
        assert_eq!(fast, slow);
    }

    #[test]
    fn maximal_from_closed_equals_maximal_from_all() {
        let all = BruteForceMiner.mine(&table1(), 2);
        let via_all = maximal_itemsets(&all);
        let via_closed = maximal_from_closed(&closed_itemsets(&all));
        assert_eq!(via_all.sorted(), via_closed.sorted());
        // And through the native closed miner, end to end.
        let native = native::ClosedMiner::default().mine(&table1(), 2);
        let via_native = maximal_from_closed(&native);
        assert_eq!(via_all.sorted(), via_native.sorted());
    }

    #[test]
    fn empty_result_stays_empty() {
        let all = BruteForceMiner.mine(&table1(), 10);
        assert!(closed_itemsets(&all).is_empty());
        assert!(maximal_itemsets(&all).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `maximal_from_closed ∘ closed` equals direct maximal filtering
        /// on random databases.
        #[test]
        fn prop_maximal_from_closed(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..10, 1..6),
                1..30,
            ),
            min_support in 1u64..4,
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let all = BruteForceMiner.mine(&db, min_support);
            let direct = maximal_itemsets(&all);
            let composed = maximal_from_closed(&closed_itemsets(&all));
            prop_assert_eq!(direct.sorted(), composed.sorted());
        }

        /// Level-up filtering equals the quadratic reference definitions.
        #[test]
        fn prop_matches_reference(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..10, 1..6),
                1..30,
            ),
            min_support in 1u64..4,
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let all = BruteForceMiner.mine(&db, min_support);
            let mut fast: Vec<Itemset> =
                closed_itemsets(&all).iter().map(|(s, _)| s.to_itemset()).collect();
            let mut slow = reference_closed(&all);
            fast.sort();
            slow.sort();
            prop_assert_eq!(fast, slow);

            let mut fast: Vec<Itemset> =
                maximal_itemsets(&all).iter().map(|(s, _)| s.to_itemset()).collect();
            let mut slow = reference_maximal(&all);
            fast.sort();
            slow.sort();
            prop_assert_eq!(fast, slow);
        }
    }
}
