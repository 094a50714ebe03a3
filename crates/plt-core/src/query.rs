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
//!   itemset contains it, all posting lists in one buffer;
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
    /// `postings[starts[rank − 1]..starts[rank]]` = sorted indices into
    /// `freqs` of the vectors whose itemset contains `rank`.
    starts: Vec<u32>,
    postings: Vec<u32>,
    /// Total frequency (support of the empty itemset).
    total: Support,
}

impl SupportOracle {
    /// Builds the oracle from a PLT. `O(total positions)` once: one pass
    /// counts each rank's list, a second fills them.
    pub fn new(plt: &Plt) -> SupportOracle {
        let num_ranks = plt.ranking().len();
        let mut starts = vec![0u32; num_ranks + 1];
        let mut freqs = Vec::with_capacity(plt.num_vectors());
        for (v, e) in plt.iter() {
            for r in v.ranks_iter() {
                starts[r as usize] += 1;
            }
            freqs.push(e.freq);
        }
        for r in 1..starts.len() {
            starts[r] += starts[r - 1];
        }
        let mut next = starts.clone();
        let mut postings = vec![0u32; starts[num_ranks] as usize];
        for (idx, (v, _)) in plt.iter().enumerate() {
            for r in v.ranks_iter() {
                let at = &mut next[(r - 1) as usize];
                postings[*at as usize] = idx as u32;
                *at += 1;
            }
        }
        SupportOracle {
            total: freqs.iter().sum(),
            freqs,
            starts,
            postings,
        }
    }

    /// Number of indexed vectors.
    pub fn num_vectors(&self) -> usize {
        self.freqs.len()
    }

    /// The posting list of `rank`, which must lie in `1..=n`.
    fn list(&self, rank: Rank) -> &[u32] {
        let r = rank as usize;
        &self.postings[self.starts[r - 1] as usize..self.starts[r] as usize]
    }

    /// Support of an itemset of *items*, in any order and with
    /// duplicates tolerated, translated through `plt`'s ranking. Items
    /// without a rank (infrequent at construction) yield 0.
    pub fn support(&self, items: &[Item], plt: &Plt) -> Support {
        let ranks: Option<Vec<Rank>> = items
            .iter()
            .map(|&i| {
                plt.ranking()
                    .rank(i)
                    .filter(|&r| (r as usize) < self.starts.len())
            })
            .collect();
        let Some(mut ranks) = ranks else {
            return 0;
        };
        ranks.sort_unstable();
        ranks.dedup();
        // Rarest-first intersection keeps intermediate lists short.
        ranks.sort_by_key(|&r| self.list(r).len());
        match ranks[..] {
            [] => self.total,
            [r] => self.sum(self.list(r)),
            [a, b, ref rest @ ..] => {
                let mut common = intersect(self.list(a), self.list(b));
                for &r in rest {
                    common = intersect(&common, self.list(r));
                }
                self.sum(&common)
            }
        }
    }

    /// Total frequency of the vectors at `indices`.
    fn sum(&self, indices: &[u32]) -> Support {
        indices.iter().map(|&i| self.freqs[i as usize]).sum()
    }
}

/// The sorted indices in both `a` and `b`.
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
    fn queries_tolerate_duplicates_order_and_foreign_ranks() {
        let plt = construct(&table1(), 2, ConstructOptions::conditional()).unwrap();
        let oracle = SupportOracle::new(&plt);
        assert_eq!(oracle.support(&[1, 1], &plt), 5); // dup tolerated
        assert_eq!(oracle.support(&[3, 0], &plt), 2); // order-free (AD)
                                                      // A PLT whose ranking knows more items than the oracle's: a rank
                                                      // the oracle never indexed answers 0.
        let wider = construct(&table1(), 1, ConstructOptions::conditional()).unwrap();
        assert_eq!(oracle.support(&[5], &wider), 0);
    }

    #[test]
    fn agrees_with_linear_scan_lookup() {
        let db = table1();
        let plt = construct(&db, 1, ConstructOptions::conditional()).unwrap();
        let oracle = SupportOracle::new(&plt);
        for items in [
            vec![0],
            vec![4],
            vec![5],
            vec![0, 4],
            vec![2, 3, 5],
            vec![0, 1, 2, 3],
        ] {
            let scan = db
                .iter()
                .filter(|t| items.iter().all(|i| t.contains(i)))
                .count() as Support;
            assert_eq!(oracle.support(&items, &plt), scan, "{items:?}");
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
