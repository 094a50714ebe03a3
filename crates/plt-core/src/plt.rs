//! The Positional Lexicographic Tree structure (§4.2, Figure 3a).
//!
//! Following the paper, the PLT is realised as "a table-like data structure"
//! rather than a pointer tree: the database is partitioned into
//! `D_1, D_2, …, D_k` where partition `D_k` stores the distinct position
//! vectors of length `k`, each with its frequency and the cached sum of its
//! positions ("we store the summation of the position values presented in
//! the vector with each vector. This value will be used during the mining
//! procedure using the conditional approach").
//!
//! A pointer-tree rendering of the same data (Figure 3b) lives in
//! [`crate::tree`].

use crate::error::{PltError, Result};
use crate::hash::FxHashMap;
use crate::item::{Item, Rank, Support};
use crate::posvec::PositionVector;
use crate::ranking::ItemRanking;

/// Per-vector payload: frequency and cached position sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PltEntry {
    /// Number of transactions whose projection is exactly this vector
    /// (plus, after top-down propagation, inherited subset frequency).
    pub freq: Support,
    /// `Σ positions` — the rank of the vector's last item (Lemma 4.1.1).
    pub sum: Rank,
}

/// The PLT: length-partitioned map from position vectors to frequencies.
///
/// # Examples
///
/// ```
/// use plt_core::construct::{construct, ConstructOptions};
///
/// // Two transactions over items {1,2,3}; with min support 1, the items
/// // rank 1..=3 and both transactions encode as delta vectors.
/// let db = vec![vec![1, 2, 3], vec![1, 3]];
/// let plt = construct(&db, 1, ConstructOptions::conditional()).unwrap();
/// assert_eq!(plt.num_vectors(), 2);
/// // {1,3} has ranks [1,3] → positions [1,2], and its sum (3) is the
/// // rank of its last item.
/// let v = plt_core::PositionVector::from_positions(vec![1, 2]).unwrap();
/// assert_eq!(plt.vector_frequency(&v), 1);
/// assert_eq!(plt.get(&v).unwrap().sum, 3);
/// ```
#[derive(Debug, Clone)]
pub struct Plt {
    /// `partitions[k − 1]` is the paper's `D_k`.
    partitions: Vec<FxHashMap<PositionVector, PltEntry>>,
    ranking: ItemRanking,
    min_support: Support,
    /// Transactions scanned during construction (including those that
    /// projected to nothing).
    num_transactions: u64,
}

impl Plt {
    /// Creates an empty PLT over a fixed ranking.
    pub fn new(ranking: ItemRanking, min_support: Support) -> Result<Plt> {
        if min_support == 0 {
            return Err(PltError::ZeroMinSupport);
        }
        Ok(Plt {
            partitions: Vec::new(),
            ranking,
            min_support,
            num_transactions: 0,
        })
    }

    /// The ranking (`Rank` function) the vectors are encoded under.
    #[inline]
    pub fn ranking(&self) -> &ItemRanking {
        &self.ranking
    }

    /// The absolute minimum support the PLT was built for.
    #[inline]
    pub fn min_support(&self) -> Support {
        self.min_support
    }

    /// Number of transactions scanned into the structure.
    #[inline]
    pub fn num_transactions(&self) -> u64 {
        self.num_transactions
    }

    /// Records that one more transaction was scanned without going through
    /// [`insert_transaction`](Self::insert_transaction) — construction
    /// paths that project and insert vectors manually (e.g. prefix-mode
    /// insertion) call this to keep [`num_transactions`](Self::num_transactions)
    /// honest.
    pub fn note_transaction(&mut self) {
        self.num_transactions += 1;
    }

    /// Length of the longest stored vector (0 when empty).
    pub fn max_len(&self) -> usize {
        self.partitions
            .iter()
            .rposition(|p| !p.is_empty())
            .map_or(0, |i| i + 1)
    }

    /// Partition `D_k`: the distinct vectors of length `k` (empty slice
    /// semantics for `k` beyond the longest vector).
    pub fn partition(&self, k: usize) -> impl Iterator<Item = (&PositionVector, &PltEntry)> {
        self.partitions
            .get(k.wrapping_sub(1))
            .into_iter()
            .flat_map(|m| m.iter())
    }

    /// Number of distinct vectors in partition `D_k`.
    pub fn partition_len(&self, k: usize) -> usize {
        self.partitions
            .get(k.wrapping_sub(1))
            .map_or(0, |m| m.len())
    }

    /// Total number of distinct vectors across all partitions.
    pub fn num_vectors(&self) -> usize {
        self.partitions.iter().map(|m| m.len()).sum()
    }

    /// Sum of frequencies across all vectors (= number of transactions that
    /// projected onto at least one frequent item, when the PLT was built
    /// without prefix insertion).
    pub fn total_frequency(&self) -> Support {
        self.partitions
            .iter()
            .flat_map(|m| m.values())
            .map(|e| e.freq)
            .sum()
    }

    /// Inserts (or increments) a vector with the given frequency —
    /// Algorithm 1's "If V(t′) ∈ D_k increment … else add with freq".
    pub fn insert_vector(&mut self, vector: PositionVector, freq: Support) {
        let k = vector.len();
        if self.partitions.len() < k {
            self.partitions.resize_with(k, FxHashMap::default);
        }
        let sum = vector.sum();
        let entry = self.partitions[k - 1]
            .entry(vector)
            .or_insert(PltEntry { freq: 0, sum });
        entry.freq += freq;
    }

    /// Projects a raw transaction through the ranking and inserts its
    /// vector. Returns `Ok(false)` when the transaction has no frequent
    /// items (nothing inserted). Rejects duplicate items.
    pub fn insert_transaction(&mut self, transaction: &[Item]) -> Result<bool> {
        self.num_transactions += 1;
        let ranks = self.ranking.project(transaction);
        if ranks.windows(2).any(|w| w[0] == w[1]) {
            let dup_rank = ranks.windows(2).find(|w| w[0] == w[1]).unwrap()[0];
            return Err(PltError::DuplicateItem {
                item: self.ranking.item(dup_rank),
            });
        }
        if ranks.is_empty() {
            return Ok(false);
        }
        let vector = PositionVector::from_ranks(&ranks).expect("projection yields valid ranks");
        self.insert_vector(vector, 1);
        Ok(true)
    }

    /// Removes one occurrence of a previously inserted transaction —
    /// incremental maintenance for the paper's "supporting large
    /// databases" story (a PLT can track a sliding window without
    /// rebuilding, as long as the ranking stays fixed).
    ///
    /// Returns `Ok(true)` when a vector was decremented (and dropped at
    /// frequency zero), `Ok(false)` when the transaction projects to
    /// nothing under the ranking. Removing a transaction that was never
    /// inserted is an error.
    ///
    /// Note the ranking is *not* re-derived: items that fell below the
    /// original support threshold keep their ranks. Callers that need
    /// exact re-ranking after heavy churn should reconstruct.
    pub fn remove_transaction(&mut self, transaction: &[Item]) -> Result<bool> {
        let ranks = self.ranking.project(transaction);
        if let Some(w) = ranks.windows(2).find(|w| w[0] == w[1]) {
            return Err(PltError::DuplicateItem {
                item: self.ranking.item(w[0]),
            });
        }
        if ranks.is_empty() {
            self.num_transactions = self.num_transactions.saturating_sub(1);
            return Ok(false);
        }
        let vector = PositionVector::from_ranks(&ranks).expect("projection yields valid ranks");
        let k = vector.len();
        let partition = self.partitions.get_mut(k - 1).ok_or(PltError::NotPresent)?;
        match partition.get_mut(&vector) {
            Some(entry) if entry.freq > 1 => {
                entry.freq -= 1;
            }
            Some(_) => {
                partition.remove(&vector);
            }
            None => return Err(PltError::NotPresent),
        }
        self.num_transactions = self.num_transactions.saturating_sub(1);
        Ok(true)
    }

    /// Absorbs another PLT built over the same ranking, summing vector
    /// frequencies and transaction counts. Fuel for parallel construction:
    /// chunks of the database build local PLTs that are merged at the end.
    ///
    /// # Panics
    /// Debug-asserts the rankings agree; merging PLTs with different rank
    /// functions would concatenate incomparable encodings.
    pub fn absorb(&mut self, other: Plt) {
        debug_assert_eq!(self.ranking, other.ranking, "rankings must match");
        self.num_transactions += other.num_transactions;
        for partition in other.partitions {
            for (v, e) in partition {
                self.insert_vector(v, e.freq);
            }
        }
    }

    /// Frequency of `vector` *as a stored vector* (not itemset support).
    pub fn vector_frequency(&self, vector: &PositionVector) -> Support {
        self.partitions
            .get(vector.len() - 1)
            .and_then(|m| m.get(vector))
            .map_or(0, |e| e.freq)
    }

    /// Looks up a full entry.
    pub fn get(&self, vector: &PositionVector) -> Option<&PltEntry> {
        self.partitions.get(vector.len() - 1)?.get(vector)
    }

    /// Iterates over every `(vector, entry)` pair, shortest vectors first.
    pub fn iter(&self) -> impl Iterator<Item = (&PositionVector, &PltEntry)> {
        self.partitions.iter().flat_map(|m| m.iter())
    }

    /// Computes the support of an arbitrary itemset by scanning the stored
    /// vectors with the position-vector containment test. `O(#vectors)` —
    /// exact but unindexed; the miners are the fast path, this is the
    /// ad-hoc query path.
    pub fn itemset_support(&self, items: &[Item]) -> Support {
        let mut ranks = Vec::with_capacity(items.len());
        for &item in items {
            match self.ranking.rank(item) {
                Some(r) => ranks.push(r),
                None => return 0, // contains an infrequent item
            }
        }
        ranks.sort_unstable();
        ranks.dedup();
        let needle = match PositionVector::from_ranks(&ranks) {
            Ok(v) => v,
            Err(_) => return self.total_frequency(), // empty itemset
        };
        let mut support = 0;
        for k in needle.len()..=self.max_len() {
            for (v, e) in self.partition(k) {
                if v.contains(&needle) {
                    support += e.freq;
                }
            }
        }
        support
    }

    /// Checks every structural invariant of the PLT, returning a
    /// description of the first violation. Meant for tests, debugging and
    /// post-deserialisation sanity checks; `O(total positions)`.
    ///
    /// Invariants: every vector sits in the partition of its length, all
    /// positions are `>= 1`, the cached sum equals the position sum, the
    /// last rank does not exceed the ranking size, and frequencies are
    /// non-zero.
    pub fn validate(&self) -> std::result::Result<(), String> {
        for (k0, partition) in self.partitions.iter().enumerate() {
            for (v, e) in partition {
                if v.len() != k0 + 1 {
                    return Err(format!("vector {v} stored in partition D_{}", k0 + 1));
                }
                if v.positions().contains(&0) {
                    return Err(format!("vector {v} holds a zero position"));
                }
                if e.sum != v.sum() {
                    return Err(format!(
                        "vector {v} caches sum {} but positions sum to {}",
                        e.sum,
                        v.sum()
                    ));
                }
                if e.sum as usize > self.ranking.len() {
                    return Err(format!(
                        "vector {v} ends at rank {} beyond the {} ranked items",
                        e.sum,
                        self.ranking.len()
                    ));
                }
                if e.freq == 0 {
                    return Err(format!("vector {v} stored with zero frequency"));
                }
            }
        }
        Ok(())
    }

    /// A compact human-readable dump mirroring Figure 3a's matrices: one
    /// block per partition, vectors sorted, `vector  sum=s  freq=f` rows.
    pub fn render_matrices(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for k in 1..=self.max_len() {
            if self.partition_len(k) == 0 {
                continue;
            }
            writeln!(out, "D_{k}:").unwrap();
            let mut rows: Vec<(&PositionVector, &PltEntry)> = self.partition(k).collect();
            rows.sort_by(|a, b| a.0.cmp(b.0));
            for (v, e) in rows {
                writeln!(out, "  {v}  sum={}  freq={}", e.sum, e.freq).unwrap();
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::RankPolicy;

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

    fn build_table1() -> Plt {
        let db = table1();
        let ranking = ItemRanking::scan(&db, 2, RankPolicy::Lexicographic);
        let mut plt = Plt::new(ranking, 2).unwrap();
        for t in &db {
            plt.insert_transaction(t).unwrap();
        }
        plt
    }

    fn pv(p: &[Rank]) -> PositionVector {
        PositionVector::from_positions(p.to_vec()).unwrap()
    }

    #[test]
    fn zero_min_support_is_rejected() {
        let ranking = ItemRanking::scan(&table1(), 2, RankPolicy::Lexicographic);
        assert_eq!(Plt::new(ranking, 0).unwrap_err(), PltError::ZeroMinSupport);
    }

    #[test]
    fn figure3_partitions_match_paper() {
        // Derived by hand from Table 1 (see DESIGN.md E-F3):
        //   D_2: [3,1]×1      (CD)
        //   D_3: [1,1,1]×2 (ABC), [1,1,2]×1 (ABD), [2,1,1]×1 (BCD)
        //   D_4: [1,1,1,1]×1  (ABCD)
        let plt = build_table1();
        assert_eq!(plt.max_len(), 4);
        assert_eq!(plt.partition_len(1), 0);
        assert_eq!(plt.partition_len(2), 1);
        assert_eq!(plt.partition_len(3), 3);
        assert_eq!(plt.partition_len(4), 1);

        assert_eq!(plt.vector_frequency(&pv(&[3, 1])), 1);
        assert_eq!(plt.vector_frequency(&pv(&[1, 1, 1])), 2);
        assert_eq!(plt.vector_frequency(&pv(&[1, 1, 2])), 1);
        assert_eq!(plt.vector_frequency(&pv(&[2, 1, 1])), 1);
        assert_eq!(plt.vector_frequency(&pv(&[1, 1, 1, 1])), 1);
        assert_eq!(plt.vector_frequency(&pv(&[9])), 0);

        assert_eq!(plt.num_transactions(), 6);
        assert_eq!(plt.total_frequency(), 6);
        assert_eq!(plt.num_vectors(), 5);
    }

    #[test]
    fn entry_sums_are_last_ranks() {
        let plt = build_table1();
        for (v, e) in plt.iter() {
            assert_eq!(e.sum, v.sum());
            assert_eq!(e.sum, *v.ranks().last().unwrap());
        }
    }

    #[test]
    fn duplicate_items_are_rejected() {
        let db = table1();
        let ranking = ItemRanking::scan(&db, 2, RankPolicy::Lexicographic);
        let mut plt = Plt::new(ranking, 2).unwrap();
        let err = plt.insert_transaction(&[0, 1, 0]).unwrap_err();
        assert_eq!(err, PltError::DuplicateItem { item: 0 });
    }

    #[test]
    fn transaction_of_only_infrequent_items_inserts_nothing() {
        let db = table1();
        let ranking = ItemRanking::scan(&db, 2, RankPolicy::Lexicographic);
        let mut plt = Plt::new(ranking, 2).unwrap();
        assert!(!plt.insert_transaction(&[4, 5]).unwrap());
        assert_eq!(plt.num_vectors(), 0);
        assert_eq!(plt.num_transactions(), 1);
    }

    #[test]
    fn itemset_support_by_scan() {
        let plt = build_table1();
        assert_eq!(plt.itemset_support(&[0]), 4); // A
        assert_eq!(plt.itemset_support(&[1]), 5); // B
        assert_eq!(plt.itemset_support(&[0, 1]), 4); // AB
        assert_eq!(plt.itemset_support(&[0, 2, 3]), 1); // ACD
        assert_eq!(plt.itemset_support(&[0, 1, 2, 3]), 1); // ABCD
        assert_eq!(plt.itemset_support(&[4]), 0); // E infrequent
        assert_eq!(plt.itemset_support(&[0, 4]), 0);
        assert_eq!(plt.itemset_support(&[]), 6); // empty set: every vector
    }

    #[test]
    fn render_matrices_is_stable_and_complete() {
        let plt = build_table1();
        let s = plt.render_matrices();
        assert!(s.contains("D_2:"));
        assert!(s.contains("[3,1]  sum=4  freq=1"));
        assert!(s.contains("[1,1,1]  sum=3  freq=2"));
        assert!(s.contains("[1,1,1,1]  sum=4  freq=1"));
    }

    #[test]
    fn remove_transaction_reverses_insert() {
        let mut plt = build_table1();
        // Remove one ABC occurrence: freq 2 → 1.
        assert!(plt.remove_transaction(&[0, 1, 2]).unwrap());
        assert_eq!(plt.vector_frequency(&pv(&[1, 1, 1])), 1);
        // Remove the other: vector disappears entirely.
        assert!(plt.remove_transaction(&[0, 1, 2]).unwrap());
        assert_eq!(plt.vector_frequency(&pv(&[1, 1, 1])), 0);
        assert_eq!(plt.num_vectors(), 4);
        // A third removal errors.
        assert_eq!(
            plt.remove_transaction(&[0, 1, 2]).unwrap_err(),
            PltError::NotPresent
        );
        assert_eq!(plt.num_transactions(), 4);
    }

    #[test]
    fn remove_transaction_projects_like_insert() {
        let mut plt = build_table1();
        // ABDE projects to ABD (E unranked); removing either spelling
        // removes the [1,1,2] vector.
        assert!(plt.remove_transaction(&[0, 1, 3, 4]).unwrap());
        assert_eq!(plt.vector_frequency(&pv(&[1, 1, 2])), 0);
        // A transaction of only unranked items removes nothing.
        assert!(!plt.remove_transaction(&[4, 5]).unwrap());
        // Mining after churn still agrees with a fresh build.
        let remaining: Vec<Vec<Item>> = vec![
            vec![0, 1, 2],
            vec![0, 1, 2],
            vec![0, 1, 2, 3],
            vec![1, 2, 3],
            vec![2, 3, 5],
        ];
        let fresh = {
            let ranking = plt.ranking().clone();
            let mut p = Plt::new(ranking, 2).unwrap();
            for t in &remaining {
                p.insert_transaction(t).unwrap();
            }
            p
        };
        assert_eq!(plt.num_vectors(), fresh.num_vectors());
        for (v, e) in fresh.iter() {
            assert_eq!(plt.vector_frequency(v), e.freq);
        }
    }

    #[test]
    fn absorb_merges_chunked_construction() {
        let db = table1();
        let ranking = ItemRanking::scan(&db, 2, RankPolicy::Lexicographic);
        let whole = {
            let mut p = Plt::new(ranking.clone(), 2).unwrap();
            for t in &db {
                p.insert_transaction(t).unwrap();
            }
            p
        };
        let mut left = Plt::new(ranking.clone(), 2).unwrap();
        for t in &db[..3] {
            left.insert_transaction(t).unwrap();
        }
        let mut right = Plt::new(ranking, 2).unwrap();
        for t in &db[3..] {
            right.insert_transaction(t).unwrap();
        }
        left.absorb(right);
        assert_eq!(left.num_transactions(), whole.num_transactions());
        assert_eq!(left.num_vectors(), whole.num_vectors());
        for (v, e) in whole.iter() {
            assert_eq!(left.vector_frequency(v), e.freq);
        }
    }

    #[test]
    fn validate_accepts_real_structures_and_rejects_corruption() {
        let plt = build_table1();
        plt.validate().unwrap();

        // Corrupt: insert a vector whose last rank exceeds the ranking.
        let mut bad = build_table1();
        bad.insert_vector(pv(&[9]), 1);
        let err = bad.validate().unwrap_err();
        assert!(err.contains("beyond"), "{err}");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Construction and churn preserve all structural invariants.
            #[test]
            fn prop_validate_after_churn(
                db in proptest::collection::vec(
                    proptest::collection::btree_set(0u32..12, 1..6),
                    1..30,
                ),
            ) {
                let db: Vec<Vec<Item>> = db.into_iter()
                    .map(|t| t.into_iter().collect())
                    .collect();
                let ranking = ItemRanking::scan(&db, 2, RankPolicy::Lexicographic);
                let mut plt = Plt::new(ranking, 2).unwrap();
                for t in &db {
                    plt.insert_transaction(t).unwrap();
                }
                prop_assert!(plt.validate().is_ok());
                for t in db.iter().step_by(2) {
                    plt.remove_transaction(t).unwrap();
                }
                prop_assert!(plt.validate().is_ok());
            }

            /// Inserting a batch then removing a random subset leaves the
            /// PLT identical to building from the remainder.
            #[test]
            fn prop_remove_is_inverse_of_insert(
                db in proptest::collection::vec(
                    proptest::collection::btree_set(0u32..12, 1..6),
                    2..30,
                ),
                removal_mask in proptest::collection::vec(any::<bool>(), 2..30),
            ) {
                let db: Vec<Vec<Item>> = db.into_iter()
                    .map(|t| t.into_iter().collect())
                    .collect();
                let ranking = ItemRanking::scan(&db, 2, RankPolicy::Lexicographic);
                let mut plt = Plt::new(ranking.clone(), 2).unwrap();
                for t in &db {
                    plt.insert_transaction(t).unwrap();
                }
                let mut kept: Vec<&Vec<Item>> = Vec::new();
                for (i, t) in db.iter().enumerate() {
                    if removal_mask.get(i).copied().unwrap_or(false) {
                        plt.remove_transaction(t).unwrap();
                    } else {
                        kept.push(t);
                    }
                }
                let mut fresh = Plt::new(ranking, 2).unwrap();
                for t in kept {
                    fresh.insert_transaction(t).unwrap();
                }
                prop_assert_eq!(plt.num_vectors(), fresh.num_vectors());
                prop_assert_eq!(plt.num_transactions(), fresh.num_transactions());
                for (v, e) in fresh.iter() {
                    prop_assert_eq!(plt.vector_frequency(v), e.freq);
                }
            }
        }
    }

    #[test]
    fn insert_vector_accumulates() {
        let ranking = ItemRanking::scan(&table1(), 2, RankPolicy::Lexicographic);
        let mut plt = Plt::new(ranking, 1).unwrap();
        plt.insert_vector(pv(&[1, 2]), 3);
        plt.insert_vector(pv(&[1, 2]), 2);
        assert_eq!(plt.vector_frequency(&pv(&[1, 2])), 5);
        assert_eq!(plt.get(&pv(&[1, 2])).unwrap().sum, 3);
    }
}
