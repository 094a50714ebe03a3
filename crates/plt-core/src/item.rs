//! Base vocabulary: items, ranks, supports and itemsets.
//!
//! The paper's problem statement (§2): `I = {i_1 … i_n}` is a set of
//! distinct items, a transaction is a subset of `I`, and an itemset `X ⊆ I`
//! has *support* equal to the number of transactions that contain it
//! (the paper works with absolute counts, not ratios — see its footnote 1).

/// An item identifier as seen by the caller. Items are opaque `u32`s; any
/// denser or sparser external vocabulary should be mapped onto `u32` by the
/// data layer (`plt-data` does this for named items).
pub type Item = u32;

/// A 1-based rank assigned to each *frequent* item by the
/// [`Rank` function](crate::ranking::ItemRanking). Rank 0 is reserved for
/// the tree root (`Rank(null) = 0` in the paper).
pub type Rank = u32;

/// Absolute support count: the number of transactions containing an itemset.
pub type Support = u64;

/// An itemset: a set of items stored as a **sorted, duplicate-free**
/// `Vec<Item>`.
///
/// Itemsets are kept in item order (not rank order) at the API boundary so
/// that results are stable across [`RankPolicy`](crate::ranking::RankPolicy)
/// choices; the miners convert to rank space internally.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Itemset(Vec<Item>);

impl Itemset {
    /// Creates an itemset from arbitrary items, sorting and deduplicating.
    pub fn new(mut items: Vec<Item>) -> Self {
        items.sort_unstable();
        items.dedup();
        Itemset(items)
    }

    /// Creates an itemset from a slice already known to be sorted and
    /// duplicate-free. Debug builds verify the invariant.
    pub fn from_sorted(items: Vec<Item>) -> Self {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "Itemset::from_sorted requires strictly increasing items"
        );
        Itemset(items)
    }

    /// The empty itemset.
    pub fn empty() -> Self {
        Itemset(Vec::new())
    }

    /// Number of items (the paper's `k` in "k-itemset").
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if this is the empty itemset.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The items, sorted ascending.
    #[inline]
    pub fn items(&self) -> &[Item] {
        &self.0
    }

    /// Consumes the itemset, returning its sorted items.
    pub fn into_items(self) -> Vec<Item> {
        self.0
    }

    /// Set-containment test (`self ⊆ other`), linear in `self.len() +
    /// other.len()` thanks to the sorted representation.
    pub fn is_subset_of(&self, other: &Itemset) -> bool {
        sorted_subset(&self.0, &other.0)
    }

    /// True if `item` is a member.
    pub fn contains(&self, item: Item) -> bool {
        self.0.binary_search(&item).is_ok()
    }

    /// Union of two itemsets.
    pub fn union(&self, other: &Itemset) -> Itemset {
        let mut out = Vec::with_capacity(self.0.len() + other.0.len());
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.0[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.0[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.0[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.0[i..]);
        out.extend_from_slice(&other.0[j..]);
        Itemset(out)
    }

    /// Intersection of two itemsets.
    pub fn intersection(&self, other: &Itemset) -> Itemset {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.0[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        Itemset(out)
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &Itemset) -> Itemset {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() {
            if j >= other.0.len() || self.0[i] < other.0[j] {
                out.push(self.0[i]);
                i += 1;
            } else if self.0[i] > other.0[j] {
                j += 1;
            } else {
                i += 1;
                j += 1;
            }
        }
        Itemset(out)
    }

    /// Returns a new itemset with `item` inserted (no-op if present).
    pub fn with(&self, item: Item) -> Itemset {
        match self.0.binary_search(&item) {
            Ok(_) => self.clone(),
            Err(pos) => {
                let mut v = self.0.clone();
                v.insert(pos, item);
                Itemset(v)
            }
        }
    }

    /// Iterates over all non-empty proper and improper subsets of the
    /// itemset. Exponential; intended for tests and the brute-force
    /// reference miner only.
    pub fn subsets(&self) -> impl Iterator<Item = Itemset> + '_ {
        let n = self.0.len();
        assert!(n < 64, "subset enumeration limited to < 64 items");
        (1u64..(1u64 << n)).map(move |mask| {
            let items = (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| self.0[i])
                .collect();
            Itemset(items)
        })
    }
}

impl From<Vec<Item>> for Itemset {
    fn from(items: Vec<Item>) -> Self {
        Itemset::new(items)
    }
}

impl From<&[Item]> for Itemset {
    fn from(items: &[Item]) -> Self {
        Itemset::new(items.to_vec())
    }
}

impl<const N: usize> From<[Item; N]> for Itemset {
    fn from(items: [Item; N]) -> Self {
        Itemset::new(items.to_vec())
    }
}

impl std::fmt::Display for Itemset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        ItemsetRef(&self.0).fmt(f)
    }
}

impl IntoIterator for Itemset {
    type Item = Item;
    type IntoIter = std::vec::IntoIter<Item>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a> IntoIterator for &'a Itemset {
    type Item = &'a Item;
    type IntoIter = std::slice::Iter<'a, Item>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// A borrowed itemset: sorted, duplicate-free items held elsewhere — a
/// row of a [`MiningResult`](crate::miner::MiningResult)'s item buffer.
/// `Copy`, like the slice it wraps, so it passes and destructures by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ItemsetRef<'a>(&'a [Item]);

impl<'a> ItemsetRef<'a> {
    /// Wraps a slice already known to be sorted and duplicate-free. Debug
    /// builds verify the invariant.
    pub fn from_sorted(items: &'a [Item]) -> Self {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "ItemsetRef::from_sorted requires strictly increasing items"
        );
        ItemsetRef(items)
    }

    /// The items, sorted ascending.
    #[inline]
    pub fn items(self) -> &'a [Item] {
        self.0
    }

    /// Number of items.
    #[inline]
    pub fn len(self) -> usize {
        self.0.len()
    }

    /// True if this is the empty itemset.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0.is_empty()
    }

    /// True if `item` is a member.
    pub fn contains(self, item: Item) -> bool {
        self.0.binary_search(&item).is_ok()
    }

    /// Set-containment test (`self ⊆ other`), linear in both lengths.
    pub fn is_subset_of(self, other: ItemsetRef<'_>) -> bool {
        sorted_subset(self.0, other.0)
    }

    /// An owned copy.
    pub fn to_itemset(self) -> Itemset {
        Itemset(self.0.to_vec())
    }
}

impl std::fmt::Display for ItemsetRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, item) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "}}")
    }
}

/// Containment test between two sorted duplicate-free slices
/// (`needle ⊆ haystack`). Shared by [`Itemset`] and the miners, which work
/// on raw sorted slices in their hot paths.
pub fn sorted_subset(needle: &[Item], haystack: &[Item]) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_dedups() {
        let s = Itemset::new(vec![3, 1, 2, 3, 1]);
        assert_eq!(s.items(), &[1, 2, 3]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_behaviour() {
        let e = Itemset::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(e.is_subset_of(&Itemset::from([1, 2])));
    }

    #[test]
    fn subset_relation() {
        let small = Itemset::from([1, 3]);
        let big = Itemset::from([1, 2, 3, 4]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(big.is_subset_of(&big));
        assert!(!Itemset::from([5]).is_subset_of(&big));
    }

    #[test]
    fn union_intersection_difference() {
        let a = Itemset::from([1, 2, 4]);
        let b = Itemset::from([2, 3, 4, 5]);
        assert_eq!(a.union(&b).items(), &[1, 2, 3, 4, 5]);
        assert_eq!(a.intersection(&b).items(), &[2, 4]);
        assert_eq!(a.difference(&b).items(), &[1]);
        assert_eq!(b.difference(&a).items(), &[3, 5]);
    }

    #[test]
    fn with_inserts_in_order() {
        let a = Itemset::from([1, 4]);
        assert_eq!(a.with(2).items(), &[1, 2, 4]);
        assert_eq!(a.with(4).items(), &[1, 4]);
        assert_eq!(a.with(9).items(), &[1, 4, 9]);
        assert_eq!(a.with(0).items(), &[0, 1, 4]);
    }

    #[test]
    fn subsets_enumerates_the_power_set_minus_empty() {
        let a = Itemset::from([1, 2, 3]);
        let subs: Vec<Itemset> = a.subsets().collect();
        assert_eq!(subs.len(), 7);
        assert!(subs.contains(&Itemset::from([1])));
        assert!(subs.contains(&Itemset::from([1, 3])));
        assert!(subs.contains(&Itemset::from([1, 2, 3])));
        assert!(!subs.contains(&Itemset::empty()));
    }

    #[test]
    fn contains_member() {
        let a = Itemset::from([2, 5, 9]);
        assert!(a.contains(5));
        assert!(!a.contains(4));
    }

    #[test]
    fn display_formats_as_braced_list() {
        assert_eq!(Itemset::from([3, 1]).to_string(), "{1,3}");
        assert_eq!(Itemset::empty().to_string(), "{}");
    }

    #[test]
    fn itemset_ref_views_sorted_items() {
        let owned = Itemset::from([2, 5, 9]);
        let r = ItemsetRef::from_sorted(owned.items());
        let copy = r; // Copy: `r` stays usable
        assert_eq!(r.items(), copy.items());
        assert_eq!((r.len(), r.is_empty()), (3, false));
        assert!(r.contains(5) && !r.contains(4));
        assert!(ItemsetRef::from_sorted(&[2, 9]).is_subset_of(r));
        assert!(!r.is_subset_of(ItemsetRef::from_sorted(&[2, 9])));
        assert_eq!(r.to_itemset(), owned);
        assert_eq!(r.to_string(), owned.to_string());
        assert_eq!(r.to_string(), "{2,5,9}");
    }

    #[test]
    fn sorted_subset_edge_cases() {
        assert!(sorted_subset(&[], &[]));
        assert!(sorted_subset(&[], &[1]));
        assert!(!sorted_subset(&[1], &[]));
        assert!(sorted_subset(&[2, 4], &[1, 2, 3, 4, 5]));
        assert!(!sorted_subset(&[2, 6], &[1, 2, 3, 4, 5]));
    }

    #[test]
    fn from_sorted_accepts_valid_input() {
        let s = Itemset::from_sorted(vec![1, 5, 7]);
        assert_eq!(s.items(), &[1, 5, 7]);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn from_sorted_rejects_unsorted_in_debug() {
        let _ = Itemset::from_sorted(vec![5, 1]);
    }
}
