//! Ad-hoc support queries over a PLT — the "self-contained structure"
//! angle (§6: "there is no need for any other data structure during the
//! mining process").
//!
//! Mining enumerates *all* frequent itemsets; many applications instead
//! ask for the support of a handful of specific itemsets (rule engines,
//! dashboards, what-if queries). [`SupportOracle`] answers those directly
//! from the PLT:
//!
//! * an **inverted index** maps each rank to the PLT vectors whose
//!   itemset contains it;
//! * a query intersects the posting lists of its ranks — rarest rank
//!   first, merge-intersect, early exit — and sums the frequencies of the
//!   surviving vectors.
//!
//! Complexity per query: `O(Σ shortest-posting-lengths)`, independent of
//! the number of frequent itemsets (unlike a
//! [`MiningResult`](crate::miner::MiningResult) lookup, which needs the
//! itemset to have been mined and kept).

use crate::item::{Item, Rank, Support};
use crate::plt::Plt;
use crate::posvec::PositionVector;

/// An immutable support-query index over a PLT snapshot.
///
/// # Examples
///
/// ```
/// use plt_core::construct::{construct, ConstructOptions};
/// use plt_core::SupportOracle;
///
/// let db = vec![vec![1, 2], vec![1, 2, 3], vec![2, 3]];
/// let plt = construct(&db, 1, ConstructOptions::conditional()).unwrap();
/// let oracle = SupportOracle::new(&plt);
/// assert_eq!(oracle.support(&[2], &plt), 3);
/// assert_eq!(oracle.support(&[1, 3], &plt), 1);
/// assert_eq!(oracle.support(&[9], &plt), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SupportOracle {
    /// The frequency of each distinct vector, in the PLT's iteration
    /// order; a query reads only these, so the vectors are not kept.
    freqs: Vec<Support>,
    /// `postings[rank − 1]` = sorted indices into `freqs` of the vectors
    /// whose itemset contains `rank`.
    postings: Vec<Vec<u32>>,
    /// Total frequency (support of the empty itemset).
    total: Support,
    num_ranks: usize,
}

impl SupportOracle {
    /// Builds the oracle from a PLT. `O(total positions)` once.
    pub fn new(plt: &Plt) -> SupportOracle {
        let num_ranks = plt.ranking().len();
        let mut freqs = Vec::with_capacity(plt.num_vectors());
        let mut postings: Vec<Vec<u32>> = vec![Vec::new(); num_ranks];
        let mut total = 0;
        for (v, e) in plt.iter() {
            let idx = freqs.len() as u32;
            for r in v.ranks_iter() {
                postings[(r - 1) as usize].push(idx);
            }
            total += e.freq;
            freqs.push(e.freq);
        }
        SupportOracle {
            freqs,
            postings,
            total,
            num_ranks,
        }
    }

    /// Number of indexed vectors.
    pub fn num_vectors(&self) -> usize {
        self.freqs.len()
    }

    /// Support of an itemset of *ranks* (strictly increasing not
    /// required; duplicates tolerated). Ranks outside `1..=n` yield 0.
    pub fn support_of_ranks(&self, ranks: &[Rank]) -> Support {
        if ranks.is_empty() {
            return self.total;
        }
        if ranks.iter().any(|&r| r == 0 || r as usize > self.num_ranks) {
            return 0;
        }
        let mut ranks: Vec<Rank> = ranks.to_vec();
        ranks.sort_unstable();
        ranks.dedup();
        // Rarest-first intersection keeps intermediate lists short.
        ranks.sort_by_key(|&r| self.postings[(r - 1) as usize].len());
        let mut current: Vec<u32> = self.postings[(ranks[0] - 1) as usize].clone();
        for &r in &ranks[1..] {
            if current.is_empty() {
                return 0;
            }
            current = intersect(&current, &self.postings[(r - 1) as usize]);
        }
        current.iter().map(|&i| self.freqs[i as usize]).sum()
    }

    /// Support of an itemset of *items*, translated through a ranking.
    /// Items without a rank (infrequent at construction) yield 0.
    pub fn support(&self, items: &[Item], plt: &Plt) -> Support {
        let mut ranks = Vec::with_capacity(items.len());
        for &item in items {
            match plt.ranking().rank(item) {
                Some(r) => ranks.push(r),
                None => return 0,
            }
        }
        self.support_of_ranks(&ranks)
    }
}

/// The canonical lookup key for `items` in `plt`'s rank space — the
/// itemset's unique [`PositionVector`] (Lemma 4.1.2) under the PLT's
/// ranking. `None` when the itemset is empty or mentions an item the
/// ranking never saw as frequent. Index layers (e.g. a serving snapshot)
/// key mined results by this vector so that lookups are a single hash
/// probe instead of a set comparison.
pub fn canonical_key(items: &[Item], plt: &Plt) -> Option<PositionVector> {
    PositionVector::canonical_for(items, plt.ranking())
}

fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{construct, ConstructOptions};
    use crate::miner::{BruteForceMiner, Miner};
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
    fn answers_match_hand_derived_supports() {
        let plt = construct(&table1(), 2, ConstructOptions::conditional()).unwrap();
        let oracle = SupportOracle::new(&plt);
        assert_eq!(oracle.num_vectors(), 5);
        assert_eq!(oracle.support(&[0], &plt), 4);
        assert_eq!(oracle.support(&[1], &plt), 5);
        assert_eq!(oracle.support(&[0, 1], &plt), 4);
        assert_eq!(oracle.support(&[0, 2, 3], &plt), 1);
        assert_eq!(oracle.support(&[0, 1, 2, 3], &plt), 1);
        assert_eq!(oracle.support(&[], &plt), 6);
        assert_eq!(oracle.support(&[4], &plt), 0); // unranked (infrequent)
        assert_eq!(oracle.support(&[0, 9], &plt), 0); // unknown item
    }

    #[test]
    fn rank_queries_handle_edge_ranks() {
        let plt = construct(&table1(), 2, ConstructOptions::conditional()).unwrap();
        let oracle = SupportOracle::new(&plt);
        assert_eq!(oracle.support_of_ranks(&[0]), 0); // rank 0 invalid
        assert_eq!(oracle.support_of_ranks(&[5]), 0); // beyond n
        assert_eq!(oracle.support_of_ranks(&[2, 2]), 5); // dup tolerated
        assert_eq!(oracle.support_of_ranks(&[4, 1]), 2); // order-free (AD)
    }

    #[test]
    fn canonical_key_identifies_itemsets() {
        let plt = construct(&table1(), 2, ConstructOptions::conditional()).unwrap();
        // Same set, any presentation order → same key (Lemma 4.1.2).
        let k1 = canonical_key(&[0, 1, 2], &plt).unwrap();
        let k2 = canonical_key(&[2, 0, 1], &plt).unwrap();
        assert_eq!(k1, k2);
        // Different sets → different keys.
        let k3 = canonical_key(&[0, 1], &plt).unwrap();
        assert_ne!(k1, k3);
        // Unranked or empty → no key.
        assert_eq!(canonical_key(&[4], &plt), None); // infrequent at build
        assert_eq!(canonical_key(&[], &plt), None);
        // Round-trip: the key's ranks name exactly the queried items.
        let items = plt.ranking().items_for_ranks(&k1.ranks());
        let mut items = items;
        items.sort_unstable();
        assert_eq!(items, vec![0, 1, 2]);
    }

    #[test]
    fn agrees_with_linear_scan_lookup() {
        let plt = construct(&table1(), 1, ConstructOptions::conditional()).unwrap();
        let oracle = SupportOracle::new(&plt);
        for items in [
            vec![0],
            vec![4],
            vec![5],
            vec![0, 4],
            vec![2, 3, 5],
            vec![0, 1, 2, 3],
        ] {
            assert_eq!(
                oracle.support(&items, &plt),
                plt.itemset_support(&items),
                "{items:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Oracle answers equal brute-force counting for every frequent
        /// and infrequent query on random databases.
        #[test]
        fn prop_oracle_matches_counting(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..10, 1..6),
                1..30,
            ),
            queries in proptest::collection::vec(
                proptest::collection::btree_set(0u32..10, 1..5),
                1..15,
            ),
        ) {
            let db: Vec<Vec<Item>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let plt = construct(&db, 1, ConstructOptions::conditional()).unwrap();
            let oracle = SupportOracle::new(&plt);
            let truth = BruteForceMiner.mine(&db, 1);
            for q in queries {
                let q: Vec<Item> = q.into_iter().collect();
                let expect = truth.support(&q).unwrap_or(0);
                prop_assert_eq!(oracle.support(&q, &plt), expect, "{:?}", q);
            }
        }
    }
}
