//! The `Rank` function (Definition 4.1.1).
//!
//! `Rank` maps each **frequent** item to a unique integer `1..=n` so that a
//! chosen total order over items is preserved. The paper fixes the
//! lexicographic order of the item vocabulary; this module generalises the
//! order to a [`RankPolicy`] because frequency-based orders are the standard
//! knob in pattern-growth miners (FP-growth orders by descending frequency)
//! and make for a meaningful ablation — all miners are correct under any
//! policy, only the shape of the structure changes.

use crate::hash::FxHashMap;
use crate::item::{Item, Rank, Support};

/// The total order that the `Rank` function must preserve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RankPolicy {
    /// Items ranked by their natural (`u32`) order — the paper's choice.
    #[default]
    Lexicographic,
    /// Most frequent item gets rank 1. Mirrors FP-growth's header order;
    /// tends to give small position values early in the vectors.
    FrequencyDescending,
    /// Least frequent item gets rank 1; ties broken lexicographically.
    FrequencyAscending,
}

/// A frozen `Rank` function: a bijection between the frequent items of a
/// database and the ranks `1..=n`.
///
/// Built once per mining run from the first database scan
/// (see [`crate::construct`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemRanking {
    /// `rank_of[item] ∈ 1..=n`; absent for infrequent/unseen items.
    rank_of: FxHashMap<Item, Rank>,
    /// `item_of[rank − 1]` recovers the item; index 0 holds the item with
    /// rank 1.
    item_of: Vec<Item>,
    /// Support of each ranked item, indexed like `item_of`.
    support_of: Vec<Support>,
    policy: RankPolicy,
}

impl ItemRanking {
    /// Builds the ranking from `(item, support)` pairs of the items that met
    /// the minimum support, ordering them per `policy`.
    ///
    /// Ties under the frequency policies are broken by item id so that the
    /// ranking (and therefore every position vector) is deterministic.
    pub fn from_frequent_items(
        mut frequent: Vec<(Item, Support)>,
        policy: RankPolicy,
    ) -> ItemRanking {
        match policy {
            RankPolicy::Lexicographic => frequent.sort_unstable_by_key(|&(item, _)| item),
            RankPolicy::FrequencyDescending => {
                frequent.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)))
            }
            RankPolicy::FrequencyAscending => {
                frequent.sort_unstable_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
            }
        }
        let mut rank_of = FxHashMap::default();
        let mut item_of = Vec::with_capacity(frequent.len());
        let mut support_of = Vec::with_capacity(frequent.len());
        for (i, &(item, sup)) in frequent.iter().enumerate() {
            let prev = rank_of.insert(item, (i + 1) as Rank);
            debug_assert!(prev.is_none(), "duplicate item {item} in frequency table");
            item_of.push(item);
            support_of.push(sup);
        }
        ItemRanking {
            rank_of,
            item_of,
            support_of,
            policy,
        }
    }

    /// Convenience constructor: scan a database of transactions, count item
    /// supports and rank the items meeting `min_support`. This is the
    /// paper's "generate frequent 1-items" first scan.
    pub fn scan<T: AsRef<[Item]>>(
        transactions: &[T],
        min_support: Support,
        policy: RankPolicy,
    ) -> ItemRanking {
        let mut counts: FxHashMap<Item, Support> = FxHashMap::default();
        for t in transactions {
            for &item in t.as_ref() {
                *counts.entry(item).or_insert(0) += 1;
            }
        }
        let frequent = counts
            .into_iter()
            .filter(|&(_, sup)| sup >= min_support)
            .collect();
        ItemRanking::from_frequent_items(frequent, policy)
    }

    /// `Rank(item)`, or `None` when the item is infrequent/unknown.
    #[inline]
    pub fn rank(&self, item: Item) -> Option<Rank> {
        self.rank_of.get(&item).copied()
    }

    /// Inverse of [`rank`](Self::rank): the item holding `rank`.
    ///
    /// # Panics
    /// Panics if `rank` is 0 or exceeds the number of ranked items.
    #[inline]
    pub fn item(&self, rank: Rank) -> Item {
        self.item_of[(rank - 1) as usize]
    }

    /// Support of the item holding `rank`, recorded at scan time.
    #[inline]
    pub fn support_of_rank(&self, rank: Rank) -> Support {
        self.support_of[(rank - 1) as usize]
    }

    /// Number of ranked (frequent) items; ranks run `1..=len()`.
    #[inline]
    pub fn len(&self) -> usize {
        self.item_of.len()
    }

    /// True when no item met the support threshold.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.item_of.is_empty()
    }

    /// The policy the ranking was built with.
    #[inline]
    pub fn policy(&self) -> RankPolicy {
        self.policy
    }

    /// Projects a transaction onto its ranked items and returns the ranks in
    /// **strictly increasing** order — the exact preprocessing Algorithm 1
    /// applies to each transaction in the second scan.
    ///
    /// Infrequent items are silently filtered (that is the point of the
    /// projection); duplicate items within a transaction are an input error
    /// handled by the construction layer.
    pub fn project(&self, transaction: &[Item]) -> Vec<Rank> {
        let mut ranks = Vec::new();
        self.project_into(transaction, &mut ranks);
        ranks
    }

    /// [`project`](Self::project) into a caller's buffer, cleared first:
    /// the allocation-free form that PLT insertion reuses per
    /// transaction.
    pub fn project_into(&self, transaction: &[Item], ranks: &mut Vec<Rank>) {
        ranks.clear();
        ranks.extend(transaction.iter().filter_map(|&item| self.rank(item)));
        ranks.sort_unstable();
    }

    /// Maps a strictly increasing rank sequence back to items, returned in
    /// ascending *item* order (the public result representation).
    pub fn items_for_ranks(&self, ranks: &[Rank]) -> Vec<Item> {
        let mut items: Vec<Item> = ranks.iter().map(|&r| self.item(r)).collect();
        items.sort_unstable();
        items
    }

    /// All `(item, rank, support)` triples, in rank order. Used by the
    /// physical-tree renderer and the experiments binary.
    pub fn entries(&self) -> impl Iterator<Item = (Item, Rank, Support)> + '_ {
        self.item_of
            .iter()
            .zip(self.support_of.iter())
            .enumerate()
            .map(|(i, (&item, &sup))| (item, (i + 1) as Rank, sup))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1() -> Vec<Vec<Item>> {
        // Paper Table 1, items A..F mapped to 0..5.
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
    fn paper_example_ranks_lexicographically() {
        // §4.2: frequent 1-items {(A,4),(B,5),(C,5),(D,4)}; Rank(A)=1 …
        // Rank(D)=4. E and F have support 1 < 2 and get no rank.
        let r = ItemRanking::scan(&table1(), 2, RankPolicy::Lexicographic);
        assert_eq!(r.len(), 4);
        assert_eq!(r.rank(0), Some(1));
        assert_eq!(r.rank(1), Some(2));
        assert_eq!(r.rank(2), Some(3));
        assert_eq!(r.rank(3), Some(4));
        assert_eq!(r.rank(4), None);
        assert_eq!(r.rank(5), None);
        assert_eq!(r.support_of_rank(1), 4);
        assert_eq!(r.support_of_rank(2), 5);
        assert_eq!(r.support_of_rank(3), 5);
        assert_eq!(r.support_of_rank(4), 4);
    }

    #[test]
    fn rank_is_a_bijection() {
        let r = ItemRanking::scan(&table1(), 2, RankPolicy::Lexicographic);
        for rank in 1..=r.len() as Rank {
            assert_eq!(r.rank(r.item(rank)), Some(rank));
        }
    }

    #[test]
    fn frequency_descending_puts_most_frequent_first() {
        let r = ItemRanking::scan(&table1(), 2, RankPolicy::FrequencyDescending);
        // B and C have support 5 (tie broken by item id: B=1 before C=2),
        // then A and D with support 4.
        assert_eq!(r.item(1), 1);
        assert_eq!(r.item(2), 2);
        assert_eq!(r.item(3), 0);
        assert_eq!(r.item(4), 3);
    }

    #[test]
    fn frequency_ascending_puts_least_frequent_first() {
        let r = ItemRanking::scan(&table1(), 2, RankPolicy::FrequencyAscending);
        assert_eq!(r.item(1), 0); // A, support 4, ties with D, A < D
        assert_eq!(r.item(2), 3);
        assert_eq!(r.item(3), 1);
        assert_eq!(r.item(4), 2);
    }

    #[test]
    fn project_filters_and_sorts() {
        let r = ItemRanking::scan(&table1(), 2, RankPolicy::Lexicographic);
        // Transaction 4 = ABDE; E is infrequent, so the projection is the
        // rank sequence of {A,B,D} = [1,2,4].
        assert_eq!(r.project(&[0, 1, 3, 4]), vec![1, 2, 4]);
        // Order of the input does not matter.
        assert_eq!(r.project(&[4, 3, 1, 0]), vec![1, 2, 4]);
        // A transaction of only infrequent items projects to nothing.
        assert_eq!(r.project(&[4, 5]), Vec::<Rank>::new());
    }

    #[test]
    fn items_for_ranks_round_trips() {
        let r = ItemRanking::scan(&table1(), 2, RankPolicy::FrequencyDescending);
        let ranks = r.project(&[0, 1, 2, 3]);
        let mut items = r.items_for_ranks(&ranks);
        items.sort_unstable();
        assert_eq!(items, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_when_nothing_is_frequent() {
        let r = ItemRanking::scan(&table1(), 100, RankPolicy::Lexicographic);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn entries_iterate_in_rank_order() {
        let r = ItemRanking::scan(&table1(), 2, RankPolicy::Lexicographic);
        let entries: Vec<_> = r.entries().collect();
        assert_eq!(entries, vec![(0, 1, 4), (1, 2, 5), (2, 3, 5), (3, 4, 4)]);
    }
}
