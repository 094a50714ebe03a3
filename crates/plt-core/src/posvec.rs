//! Position vectors (Definitions 4.1.2–4.1.3 and Lemmas 4.1.1–4.1.3).
//!
//! A position vector `V(X) = [pos(x_1), …, pos(x_k)]` encodes the itemset
//! `X = {x_1 < … < x_k}` (ordered by rank) as the sequence of rank deltas
//! `pos(x_i) = Rank(x_i) − Rank(x_{i−1})` with `Rank(x_0) = Rank(null) = 0`.
//!
//! A vector comes in two forms, as a path does in `Path` and `PathBuf`:
//! the borrowed [`Positions`], which a PLT's partition matrices hand out
//! row by row and which holds every read-only operation, and the owned
//! [`PositionVector`], which derefs to it.
//!
//! The module implements, with direct references to the paper:
//!
//! * **Lemma 4.1.1**: `Rank(x_i) = Σ_{j≤i} pos(x_j)` — [`Positions::ranks`].
//! * **Lemma 4.1.2** (uniqueness): round-tripping through
//!   [`PositionVector::from_ranks`]/[`ranks`](Positions::ranks) is the
//!   identity, so equality of vectors is equality of itemsets (property
//!   tested below).
//! * **Lemma 4.1.3**: the `(k−1)`-subsets of `X` are obtained by (a)
//!   dropping the last position — [`Positions::parent`] — or (b)
//!   replacing two consecutive positions by their sum —
//!   [`Positions::merged_at`]. [`Positions::level_down_subsets`]
//!   enumerates all of them.
//! * The generalisation used by the top-down miner: *every* subset of `X`
//!   corresponds to dropping a suffix and merging runs of consecutive
//!   positions — [`Positions::subset_vectors`].

use crate::error::{PltError, Result};
use crate::item::{Item, Rank};
use crate::ranking::ItemRanking;

/// A position vector: non-empty sequence of positions, each `>= 1`.
///
/// The owned form: it derefs to [`Positions`], where every read-only
/// operation lives. A PLT stores no `PositionVector`: its partitions are
/// row matrices that hand out `&Positions` rows. Owned vectors are keys
/// built outside a PLT (canonical keys, subset enumeration, tests).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PositionVector(Box<[Rank]>);

/// A borrowed position vector: a row of a PLT partition matrix, or the
/// contents of a [`PositionVector`]. Unsized like `Path` and used behind
/// `&`, so a `&PositionVector` coerces to `&Positions` wherever one is
/// asked for, and `to_owned` makes the owned form.
#[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Positions([Rank]);

impl PositionVector {
    /// Builds the vector for a strictly increasing rank sequence
    /// (Definition 4.1.2: `pos(j) = Rank(j) − Rank(i)` for `j` a child of
    /// `i` along the path, `Rank(null) = 0`).
    pub fn from_ranks(ranks: &[Rank]) -> Result<PositionVector> {
        if ranks.is_empty() {
            return Err(PltError::Empty);
        }
        let mut positions = Vec::with_capacity(ranks.len());
        let mut prev = 0;
        for &r in ranks {
            if r <= prev {
                return Err(if r == 0 {
                    PltError::ZeroPosition
                } else {
                    PltError::UnsortedRanks
                });
            }
            positions.push(r - prev);
            prev = r;
        }
        Ok(PositionVector(positions.into_boxed_slice()))
    }

    /// The **canonical index key** for an itemset under `ranking`.
    ///
    /// By Lemma 4.1.2 a position vector identifies its itemset uniquely,
    /// so the vector built from the (sorted, deduplicated) ranks of
    /// `items` is a collision-free key: two item slices map to the same
    /// vector iff they denote the same set. Returns `None` when `items`
    /// is empty or any item has no rank (it was infrequent when the
    /// ranking was built), in which case the itemset has no vector in
    /// rank space at all.
    pub fn canonical_for(items: &[Item], ranking: &ItemRanking) -> Option<PositionVector> {
        if items.is_empty() {
            return None;
        }
        let mut ranks = Vec::with_capacity(items.len());
        for &item in items {
            ranks.push(ranking.rank(item)?);
        }
        ranks.sort_unstable();
        ranks.dedup();
        // Ranks are now strictly increasing and non-zero, so this cannot
        // fail.
        Some(PositionVector::from_ranks(&ranks).expect("sorted deduped ranks"))
    }

    /// Wraps raw positions, validating that each is `>= 1`.
    pub fn from_positions(positions: Vec<Rank>) -> Result<PositionVector> {
        Positions::new(&positions)?;
        Ok(PositionVector(positions.into_boxed_slice()))
    }
}

impl std::ops::Deref for PositionVector {
    type Target = Positions;

    #[inline]
    fn deref(&self) -> &Positions {
        Positions::from_row(&self.0)
    }
}

impl std::borrow::Borrow<Positions> for PositionVector {
    fn borrow(&self) -> &Positions {
        self
    }
}

impl ToOwned for Positions {
    type Owned = PositionVector;

    fn to_owned(&self) -> PositionVector {
        PositionVector(self.0.into())
    }
}

impl Positions {
    /// Views `positions` as a position vector, validating that it is
    /// non-empty and that each position is `>= 1`.
    pub fn new(positions: &[Rank]) -> Result<&Positions> {
        if positions.is_empty() {
            return Err(PltError::Empty);
        }
        if positions.contains(&0) {
            return Err(PltError::ZeroPosition);
        }
        Ok(Positions::from_row(positions))
    }

    /// Views a slice already known to be a valid position vector — a
    /// row of a partition matrix. Debug builds check the invariant.
    #[inline]
    pub(crate) fn from_row(positions: &[Rank]) -> &Positions {
        debug_assert!(!positions.is_empty() && !positions.contains(&0));
        // SAFETY: `Positions` is a `repr(transparent)` wrapper around
        // `[Rank]`, so both slice pointers share layout and length
        // metadata.
        unsafe { &*(positions as *const [Rank] as *const Positions) }
    }

    /// The raw positions.
    #[inline]
    pub fn positions(&self) -> &[Rank] {
        &self.0
    }

    /// Vector length `k` — the size of the encoded itemset.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Position vectors are never empty; provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Lemma 4.1.1: recover the rank sequence by prefix-summing.
    pub fn ranks(&self) -> Vec<Rank> {
        let mut out = Vec::with_capacity(self.0.len());
        let mut acc: Rank = 0;
        for &p in self.0.iter() {
            acc = acc.wrapping_add(p);
            out.push(acc);
        }
        out
    }

    /// The sum of all positions — by Lemma 4.1.1 this is the rank of the
    /// **last** (highest-ranked) item. Algorithm 1 caches this per vector;
    /// the conditional miner selects item `j`'s conditional database as the
    /// vectors with `sum() == j`.
    #[inline]
    pub fn sum(&self) -> Rank {
        self.0.iter().sum()
    }

    /// Lemma 4.1.3(a): the `(k−1)`-subset that drops the last item, i.e.
    /// the vector without its final position. `None` for 1-vectors (the
    /// empty itemset has no position vector).
    pub fn parent(&self) -> Option<PositionVector> {
        if self.0.len() <= 1 {
            None
        } else {
            Some(PositionVector(self.0[..self.0.len() - 1].into()))
        }
    }

    /// Lemma 4.1.3(b): the `(k−1)`-subset that drops item `x_{i+1}`, i.e.
    /// positions `i` and `i+1` (0-based) replaced by their sum.
    ///
    /// # Panics
    /// Panics if `i + 1 >= len()`.
    pub fn merged_at(&self, i: usize) -> PositionVector {
        assert!(i + 1 < self.0.len(), "merge index out of range");
        let mut v = Vec::with_capacity(self.0.len() - 1);
        v.extend_from_slice(&self.0[..i]);
        v.push(self.0[i] + self.0[i + 1]);
        v.extend_from_slice(&self.0[i + 2..]);
        PositionVector(v.into_boxed_slice())
    }

    /// All `(k−1)`-level subsets per Lemma 4.1.3: the
    /// [`parent`](Self::parent) (when it exists) followed by every
    /// consecutive merge — `k` vectors total for `k >= 2`, one per
    /// droppable item; nothing for `k == 1`.
    pub fn level_down_subsets(&self) -> impl Iterator<Item = PositionVector> + '_ {
        let parent = self.parent().into_iter();
        let merges = (0..self.0.len().saturating_sub(1)).map(move |i| self.merged_at(i));
        parent.chain(merges)
    }

    /// Whether the encoded itemset contains the item with rank `r` —
    /// i.e. whether some prefix sum equals `r`. Linear, early-exit.
    pub fn contains_rank(&self, r: Rank) -> bool {
        let mut acc = 0;
        for &p in self.0.iter() {
            acc += p;
            if acc == r {
                return true;
            }
            if acc > r {
                return false;
            }
        }
        false
    }

    /// Subset check in position-vector space: does `self`'s itemset contain
    /// `other`'s? Runs in `O(len(self))` by walking both prefix-sum streams
    /// in lockstep — the "light subset checking" the paper advertises.
    pub fn contains(&self, other: &Positions) -> bool {
        let mut acc = 0;
        let mut need_iter = other.ranks_iter();
        let mut need = match need_iter.next() {
            Some(r) => r,
            None => return true,
        };
        for &p in self.0.iter() {
            acc += p;
            if acc == need {
                need = match need_iter.next() {
                    Some(r) => r,
                    None => return true,
                };
            } else if acc > need {
                return false;
            }
        }
        false
    }

    /// Iterator over prefix sums (the ranks), allocation-free.
    pub fn ranks_iter(&self) -> impl Iterator<Item = Rank> + '_ {
        self.0.iter().scan(0, |acc, &p| {
            *acc += p;
            Some(*acc)
        })
    }

    /// Enumerates the position vectors of **all** non-empty subsets of the
    /// encoded itemset (including the itemset itself), each exactly once.
    ///
    /// A subset `{x_{i_1} < … < x_{i_m}}` corresponds to keeping the prefix
    /// up to `i_m` and summing each run `p_{i_{j−1}+1} … p_{i_j}`; this is a
    /// bijection between subsets and (suffix drop, run partition) pairs.
    /// Exponential (`2^k − 1` results) — used by the reference miner and to
    /// validate the top-down miner's canonical-derivation discipline.
    pub fn subset_vectors(&self) -> Vec<PositionVector> {
        let ranks = self.ranks();
        let k = ranks.len();
        assert!(k < 64, "subset enumeration limited to < 64 positions");
        let mut out = Vec::with_capacity((1usize << k) - 1);
        for mask in 1u64..(1u64 << k) {
            let mut positions = Vec::new();
            let mut prev_rank = 0;
            for (i, &r) in ranks.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    positions.push(r - prev_rank);
                    prev_rank = r;
                }
            }
            out.push(PositionVector(positions.into_boxed_slice()));
        }
        out
    }

    /// Appends one more item with rank `next_rank` (which must exceed the
    /// current [`sum`](Self::sum)). Used when extending a pattern in the
    /// conditional miner.
    pub fn extended_to(&self, next_rank: Rank) -> Result<PositionVector> {
        let s = self.sum();
        if next_rank <= s {
            return Err(PltError::UnsortedRanks);
        }
        let mut v = self.0.to_vec();
        v.push(next_rank - s);
        Ok(PositionVector(v.into_boxed_slice()))
    }
}

impl std::fmt::Display for Positions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, p) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "]")
    }
}

impl std::fmt::Display for PositionVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pv(positions: &[Rank]) -> PositionVector {
        PositionVector::from_positions(positions.to_vec()).unwrap()
    }

    #[test]
    fn from_ranks_computes_deltas() {
        // Paper §4.2: transaction ABD with ranks [1,2,4] encodes as [1,1,2].
        let v = PositionVector::from_ranks(&[1, 2, 4]).unwrap();
        assert_eq!(v.positions(), &[1, 1, 2]);
        assert_eq!(v.sum(), 4);
    }

    #[test]
    fn from_ranks_rejects_bad_input() {
        assert_eq!(PositionVector::from_ranks(&[]), Err(PltError::Empty));
        assert_eq!(
            PositionVector::from_ranks(&[0, 1]),
            Err(PltError::ZeroPosition)
        );
        assert_eq!(
            PositionVector::from_ranks(&[2, 2]),
            Err(PltError::UnsortedRanks)
        );
        assert_eq!(
            PositionVector::from_ranks(&[3, 1]),
            Err(PltError::UnsortedRanks)
        );
    }

    #[test]
    fn from_positions_validates() {
        assert!(PositionVector::from_positions(vec![1, 3]).is_ok());
        assert_eq!(PositionVector::from_positions(vec![]), Err(PltError::Empty));
        assert_eq!(
            PositionVector::from_positions(vec![1, 0]),
            Err(PltError::ZeroPosition)
        );
    }

    #[test]
    fn lemma_4_1_1_prefix_sums_recover_ranks() {
        let v = pv(&[1, 1, 2]);
        assert_eq!(v.ranks(), vec![1, 2, 4]);
        assert_eq!(v.ranks_iter().collect::<Vec<_>>(), vec![1, 2, 4]);
    }

    #[test]
    fn parent_drops_last_position() {
        assert_eq!(pv(&[1, 1, 2]).parent(), Some(pv(&[1, 1])));
        assert_eq!(pv(&[3]).parent(), None);
    }

    #[test]
    fn merged_at_sums_consecutive_positions() {
        // Lemma 4.1.3(b) example: V(ABCD)=[1,1,1,1]; dropping C merges
        // positions 2 and 3 giving V(ABD)=[1,1,2].
        let abcd = pv(&[1, 1, 1, 1]);
        assert_eq!(abcd.merged_at(2), pv(&[1, 1, 2]));
        assert_eq!(abcd.merged_at(0), pv(&[2, 1, 1]));
        assert_eq!(abcd.merged_at(1), pv(&[1, 2, 1]));
    }

    #[test]
    #[should_panic]
    fn merged_at_out_of_range_panics() {
        pv(&[1, 2]).merged_at(1);
    }

    #[test]
    fn level_down_subsets_enumerates_all_k_minus_1_subsets() {
        // ABCD = ranks [1,2,3,4]; its 3-subsets are ABC, ABD, ACD, BCD.
        let abcd = pv(&[1, 1, 1, 1]);
        let subs: Vec<PositionVector> = abcd.level_down_subsets().collect();
        assert_eq!(subs.len(), 4);
        assert!(subs.contains(&pv(&[1, 1, 1]))); // ABC (drop D = parent)
        assert!(subs.contains(&pv(&[1, 1, 2]))); // ABD (drop C)
        assert!(subs.contains(&pv(&[1, 2, 1]))); // ACD (drop B)
        assert!(subs.contains(&pv(&[2, 1, 1]))); // BCD (drop A)
    }

    #[test]
    fn level_down_subsets_of_singleton_is_empty() {
        assert_eq!(pv(&[5]).level_down_subsets().count(), 0);
    }

    #[test]
    fn contains_rank_checks_prefix_sums() {
        let v = pv(&[1, 1, 2]); // ranks 1,2,4
        assert!(v.contains_rank(1));
        assert!(v.contains_rank(2));
        assert!(!v.contains_rank(3));
        assert!(v.contains_rank(4));
        assert!(!v.contains_rank(5));
    }

    #[test]
    fn contains_is_itemset_containment() {
        let abcd = pv(&[1, 1, 1, 1]); // {1,2,3,4}
        assert!(abcd.contains(&pv(&[1, 3]))); // {1,4}
        assert!(abcd.contains(&pv(&[2, 1]))); // {2,3}
        assert!(abcd.contains(&abcd));
        assert!(!abcd.contains(&pv(&[5]))); // {5}
        assert!(!pv(&[1, 3]).contains(&abcd));
        // {1,3} vs {1,2}: rank 2 missing from [1,2] (ranks 1,3).
        assert!(!pv(&[1, 2]).contains(&pv(&[1, 1])));
    }

    #[test]
    fn subset_vectors_enumerates_the_power_set() {
        let abc = pv(&[1, 1, 1]);
        let mut subs = abc.subset_vectors();
        subs.sort();
        let mut expect = vec![
            pv(&[1]),
            pv(&[2]),
            pv(&[3]),
            pv(&[1, 1]),
            pv(&[1, 2]),
            pv(&[2, 1]),
            pv(&[1, 1, 1]),
        ];
        expect.sort();
        assert_eq!(subs, expect);
    }

    #[test]
    fn extended_to_appends_delta() {
        let ab = pv(&[1, 1]);
        assert_eq!(ab.extended_to(5).unwrap(), pv(&[1, 1, 3]));
        assert_eq!(ab.extended_to(2), Err(PltError::UnsortedRanks));
        assert_eq!(ab.extended_to(1), Err(PltError::UnsortedRanks));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(pv(&[1, 1, 2]).to_string(), "[1,1,2]");
    }

    #[test]
    fn canonical_key_identifies_itemsets() {
        // Table 1 of the paper at min_support 2: A–D ranked, E and F not.
        let db: Vec<Vec<Item>> = vec![
            vec![0, 1, 2],
            vec![0, 1, 2],
            vec![0, 1, 2, 3],
            vec![0, 1, 3, 4],
            vec![1, 2, 3],
            vec![2, 3, 5],
        ];
        let ranking = ItemRanking::scan(&db, 2, crate::RankPolicy::Lexicographic);
        let key = |items: &[Item]| PositionVector::canonical_for(items, &ranking);
        // Same set, any presentation order or repetition → same key
        // (Lemma 4.1.2).
        let k1 = key(&[0, 1, 2]).unwrap();
        assert_eq!(key(&[2, 0, 1]), Some(k1.clone()));
        assert_eq!(key(&[1, 2, 0, 2]), Some(k1.clone()));
        // Different sets → different keys.
        assert_ne!(key(&[0, 1]).unwrap(), k1);
        // Unranked or empty → no key.
        assert_eq!(key(&[4]), None); // infrequent at build
        assert_eq!(key(&[0, 4]), None);
        assert_eq!(key(&[]), None);
        // Round-trip: the key's ranks name exactly the queried items.
        let mut items = ranking.items_for_ranks(&k1.ranks());
        items.sort_unstable();
        assert_eq!(items, vec![0, 1, 2]);
    }

    proptest! {
        /// Lemma 4.1.2: `from_ranks ∘ ranks` is the identity, hence the
        /// encoding is injective on itemsets.
        #[test]
        fn prop_roundtrip_ranks(ranks in proptest::collection::btree_set(1u32..500, 1..12)) {
            let ranks: Vec<Rank> = ranks.into_iter().collect();
            let v = PositionVector::from_ranks(&ranks).unwrap();
            prop_assert_eq!(v.ranks(), ranks);
        }

        /// Lemma 4.1.3: the set of (k−1)-subset vectors equals the vectors
        /// of all itemsets with one element removed.
        #[test]
        fn prop_level_down_matches_element_removal(
            ranks in proptest::collection::btree_set(1u32..100, 2..9)
        ) {
            let ranks: Vec<Rank> = ranks.into_iter().collect();
            let v = PositionVector::from_ranks(&ranks).unwrap();
            let mut got: Vec<PositionVector> = v.level_down_subsets().collect();
            got.sort();
            let mut expect: Vec<PositionVector> = (0..ranks.len()).map(|drop| {
                let sub: Vec<Rank> = ranks.iter().enumerate()
                    .filter(|&(i, _)| i != drop)
                    .map(|(_, &r)| r)
                    .collect();
                PositionVector::from_ranks(&sub).unwrap()
            }).collect();
            expect.sort();
            expect.dedup();
            got.dedup();
            prop_assert_eq!(got, expect);
        }

        /// `subset_vectors` agrees with enumerating rank subsets directly.
        #[test]
        fn prop_subset_vectors_match_rank_subsets(
            ranks in proptest::collection::btree_set(1u32..60, 1..7)
        ) {
            let ranks: Vec<Rank> = ranks.into_iter().collect();
            let v = PositionVector::from_ranks(&ranks).unwrap();
            let mut got = v.subset_vectors();
            got.sort();
            let n = ranks.len();
            let mut expect = Vec::new();
            for mask in 1u64..(1 << n) {
                let sub: Vec<Rank> = (0..n)
                    .filter(|&i| mask & (1 << i) != 0)
                    .map(|i| ranks[i])
                    .collect();
                expect.push(PositionVector::from_ranks(&sub).unwrap());
            }
            expect.sort();
            prop_assert_eq!(got, expect);
        }

        /// `contains` agrees with set containment on the decoded ranks.
        #[test]
        fn prop_contains_agrees_with_set_containment(
            a in proptest::collection::btree_set(1u32..40, 1..8),
            b in proptest::collection::btree_set(1u32..40, 1..8),
        ) {
            let va = PositionVector::from_ranks(&a.iter().copied().collect::<Vec<_>>()).unwrap();
            let vb = PositionVector::from_ranks(&b.iter().copied().collect::<Vec<_>>()).unwrap();
            prop_assert_eq!(va.contains(&vb), b.is_subset(&a));
        }

        /// The sum is always the rank of the last item.
        #[test]
        fn prop_sum_is_last_rank(ranks in proptest::collection::btree_set(1u32..500, 1..12)) {
            let ranks: Vec<Rank> = ranks.into_iter().collect();
            let v = PositionVector::from_ranks(&ranks).unwrap();
            prop_assert_eq!(v.sum(), *ranks.last().unwrap());
        }
    }
}
