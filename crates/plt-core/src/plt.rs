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
//! Each partition is literally Figure 3a's matrix: one row-major buffer of
//! `k`-wide position rows, with `freq`, `sum` and `hash` columns beside it
//! and an open-addressed row index keyed by each row's hash. Rows are read
//! as borrowed [`Positions`]; building, cloning and dropping a PLT touch a
//! handful of buffers per partition, never one allocation per vector.
//!
//! A pointer-tree rendering of the same data (Figure 3b) lives in
//! [`crate::tree`].

use crate::error::{PltError, Result};
use crate::hash::{mix, window_hash};
use crate::item::{Item, Rank, Support};
use crate::posvec::Positions;
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

/// The row index's empty slot.
const EMPTY: u32 = u32::MAX;

/// Partition `D_k`: the distinct `k`-vectors as the rows of one matrix.
#[derive(Debug, Clone, Default)]
pub(crate) struct Matrix {
    /// Row width `k`.
    pub(crate) width: usize,
    /// Row-major positions: row `r` is `positions[r·k .. (r+1)·k]`.
    pub(crate) positions: Vec<Rank>,
    /// Column: the frequency of each row.
    pub(crate) freq: Vec<Support>,
    /// Column: the cached sum of each row, the rank of its last item.
    pub(crate) sum: Vec<Rank>,
    /// Column: each row's order-free `window_hash`, which the index
    /// probes by and the arena's dedup starts from.
    pub(crate) hash: Vec<u64>,
    /// The row index: row ids in an open-addressed table of a power-of-two
    /// size, probed linearly from `hash & (len − 1)`, at most half full.
    slots: Vec<u32>,
}

impl Matrix {
    fn new(width: usize) -> Matrix {
        Matrix {
            width,
            ..Matrix::default()
        }
    }

    /// Number of rows.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.freq.len()
    }

    /// The positions of row `r`.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[Rank] {
        &self.positions[r * self.width..(r + 1) * self.width]
    }

    /// Every row with its entry, in row order.
    fn iter(&self) -> impl Iterator<Item = (&Positions, PltEntry)> {
        let rows = self.positions.chunks_exact(self.width);
        rows.zip(&self.freq)
            .zip(&self.sum)
            .map(|((row, &freq), &sum)| (Positions::from_row(row), PltEntry { freq, sum }))
    }

    /// The slot a probe for `hash` starts at.
    #[inline]
    fn home(&self, hash: u64) -> usize {
        hash as usize & (self.slots.len() - 1)
    }

    /// Probes for `row`: `Ok(slot)` holding its id, or `Err(slot)`, the
    /// empty slot where it would go.
    fn probe(&self, row: &[Rank], hash: u64) -> std::result::Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            let id = self.slots[i];
            if id == EMPTY {
                return Err(i);
            }
            if self.hash[id as usize] == hash && self.row(id as usize) == row {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The id of the row equal to `row`, if any.
    fn find(&self, row: &[Rank], hash: u64) -> Option<usize> {
        self.probe(row, hash).ok().map(|i| self.slots[i] as usize)
    }

    /// Adds `freq` to the row equal to `row`, appending it first when it
    /// is new — Algorithm 1's "if V(t′) ∈ D_k increment, else add".
    fn add(&mut self, row: &[Rank], sum: Rank, hash: u64, freq: Support) {
        debug_assert_eq!(row.len(), self.width);
        match self.probe(row, hash) {
            Ok(i) => self.freq[self.slots[i] as usize] += freq,
            Err(_) if 2 * (self.rows() + 1) > self.slots.len() => {
                self.grow();
                self.add(row, sum, hash, freq);
            }
            Err(i) => {
                self.slots[i] = u32::try_from(self.rows())
                    .ok()
                    .filter(|&id| id != EMPTY)
                    .expect("a partition holds fewer than 2^32 − 1 rows");
                self.positions.extend_from_slice(row);
                self.freq.push(freq);
                self.sum.push(sum);
                self.hash.push(hash);
            }
        }
    }

    /// Doubles the index and re-slots every row from its cached hash.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        self.slots = vec![EMPTY; len];
        for (id, &hash) in self.hash.iter().enumerate() {
            let mut i = self.home(hash);
            while self.slots[i] != EMPTY {
                i = (i + 1) & (len - 1);
            }
            self.slots[i] = id as u32;
        }
    }

    /// Takes one occurrence of `row` away: the row's frequency drops by
    /// one, and a row reaching zero is swap-removed. Returns whether the
    /// row was present.
    fn remove_one(&mut self, row: &[Rank], hash: u64) -> bool {
        let Ok(slot) = self.probe(row, hash) else {
            return false;
        };
        let id = self.slots[slot] as usize;
        if self.freq[id] > 1 {
            self.freq[id] -= 1;
            return true;
        }
        self.unslot(slot);
        let last = self.rows() - 1;
        if id != last {
            // The last row moves into the hole; repoint its slot first.
            let moved = self
                .probe(self.row(last), self.hash[last])
                .expect("every row is indexed");
            self.slots[moved] = id as u32;
            let w = self.width;
            self.positions.copy_within(last * w..(last + 1) * w, id * w);
            self.freq[id] = self.freq[last];
            self.sum[id] = self.sum[last];
            self.hash[id] = self.hash[last];
        }
        self.positions.truncate(last * self.width);
        self.freq.truncate(last);
        self.sum.truncate(last);
        self.hash.truncate(last);
        true
    }

    /// Empties `slot` with backward-shift deletion: each later slot of the
    /// probe run moves up into the hole when its home allows, so no
    /// tombstone is left behind.
    fn unslot(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let id = self.slots[i];
            if id == EMPTY {
                break;
            }
            // The entry at `i` may fill the hole unless its home lies
            // cyclically in `(hole, i]`.
            let home = self.home(self.hash[id as usize]);
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.slots[hole] = id;
                hole = i;
            }
        }
        self.slots[hole] = EMPTY;
    }

    /// Checks the matrix's invariants (see [`Plt::validate`]).
    fn validate(&self, ranked: usize) -> std::result::Result<(), String> {
        let (k, rows) = (self.width, self.rows());
        if self.positions.len() != rows * k || self.sum.len() != rows || self.hash.len() != rows {
            return Err(format!("D_{k}'s columns disagree on the row count"));
        }
        let indexed = self.slots.iter().filter(|&&id| id != EMPTY).count();
        if indexed != rows || 2 * rows > self.slots.len().max(1) {
            return Err(format!(
                "D_{k} indexes {indexed} slots of {} for {rows} rows",
                self.slots.len()
            ));
        }
        for (r, (v, e)) in self.iter().enumerate() {
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
            if e.sum as usize > ranked {
                return Err(format!(
                    "vector {v} ends at rank {} beyond the {ranked} ranked items",
                    e.sum
                ));
            }
            if e.freq == 0 {
                return Err(format!("vector {v} is a dead row: zero frequency"));
            }
            if self.hash[r] != window_hash(v.positions()) {
                return Err(format!("vector {v} caches a stale hash"));
            }
            if self.find(v.positions(), self.hash[r]) != Some(r) {
                return Err(format!("vector {v} is not indexed as row {r} of D_{k}"));
            }
        }
        Ok(())
    }
}

/// The PLT: length-partitioned matrices of distinct position vectors with
/// their frequencies.
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
    partitions: Vec<Matrix>,
    ranking: ItemRanking,
    min_support: Support,
    /// Transactions accepted into the structure (including those that
    /// projected to nothing).
    num_transactions: u64,
    /// Projection scratch, reused by every insert and remove.
    scratch: Vec<Rank>,
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
            scratch: Vec::new(),
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

    /// Number of transactions accepted into the structure. A transaction
    /// rejected with an error is not counted.
    #[inline]
    pub fn num_transactions(&self) -> u64 {
        self.num_transactions
    }

    /// Records that one more transaction was scanned without going through
    /// [`insert_transaction`](Self::insert_transaction) — paths that
    /// insert vectors directly (e.g. decompression) call this to keep
    /// [`num_transactions`](Self::num_transactions) honest.
    pub fn note_transaction(&mut self) {
        self.num_transactions += 1;
    }

    /// Length of the longest stored vector (0 when empty).
    pub fn max_len(&self) -> usize {
        self.partitions
            .iter()
            .rposition(|m| m.rows() > 0)
            .map_or(0, |i| i + 1)
    }

    /// Partition `D_k`: its distinct vectors as borrowed rows, in row
    /// order (nothing for `k` beyond the longest vector).
    pub fn partition(&self, k: usize) -> impl Iterator<Item = (&Positions, PltEntry)> {
        self.partitions
            .get(k.wrapping_sub(1))
            .into_iter()
            .flat_map(Matrix::iter)
    }

    /// Number of distinct vectors in partition `D_k`.
    pub fn partition_len(&self, k: usize) -> usize {
        self.partitions
            .get(k.wrapping_sub(1))
            .map_or(0, Matrix::rows)
    }

    /// Total number of distinct vectors across all partitions.
    pub fn num_vectors(&self) -> usize {
        self.partitions.iter().map(Matrix::rows).sum()
    }

    /// The partition matrices `D_1 … D_k`, for the arena's level-0 fill.
    pub(crate) fn matrices(&self) -> &[Matrix] {
        &self.partitions
    }

    /// Sum of frequencies across all vectors (= number of transactions that
    /// projected onto at least one frequent item, when the PLT was built
    /// without prefix insertion).
    pub fn total_frequency(&self) -> Support {
        self.partitions.iter().flat_map(|m| m.freq.iter()).sum()
    }

    /// The matrix of `D_k`, created (with any shorter ones) on first use.
    fn matrix_mut(partitions: &mut Vec<Matrix>, k: usize) -> &mut Matrix {
        while partitions.len() < k {
            partitions.push(Matrix::new(partitions.len() + 1));
        }
        &mut partitions[k - 1]
    }

    /// Inserts (or increments) a vector with the given frequency —
    /// Algorithm 1's "If V(t′) ∈ D_k increment … else add with freq".
    /// The row is copied into the matrix of its length.
    pub fn insert_vector(&mut self, vector: &Positions, freq: Support) {
        let row = vector.positions();
        Self::matrix_mut(&mut self.partitions, row.len()).add(
            row,
            vector.sum(),
            window_hash(row),
            freq,
        );
    }

    /// Projects `transaction` through the ranking into the scratch buffer
    /// as a position vector and returns its hash, or `None` when no item
    /// is ranked. Rejects duplicate items.
    fn project(&mut self, transaction: &[Item]) -> Result<Option<u64>> {
        self.ranking.project_into(transaction, &mut self.scratch);
        let (mut prev, mut hash) = (0, 0u64);
        for p in self.scratch.iter_mut() {
            let rank = *p;
            if rank == prev {
                return Err(PltError::DuplicateItem {
                    item: self.ranking.item(rank),
                });
            }
            hash = hash.wrapping_add(mix(rank));
            *p = rank - prev;
            prev = rank;
        }
        Ok((!self.scratch.is_empty()).then_some(hash))
    }

    /// Projects a raw transaction through the ranking and inserts its
    /// vector. Returns `Ok(false)` when the transaction has no frequent
    /// items (nothing inserted). Rejects duplicate items, leaving the PLT
    /// and its transaction count unchanged.
    pub fn insert_transaction(&mut self, transaction: &[Item]) -> Result<bool> {
        let hash = self.project(transaction)?;
        self.num_transactions += 1;
        let Some(hash) = hash else {
            return Ok(false);
        };
        let row = &self.scratch;
        let sum = row.iter().sum();
        Self::matrix_mut(&mut self.partitions, row.len()).add(row, sum, hash, 1);
        Ok(true)
    }

    /// [`insert_transaction`](Self::insert_transaction) for the top-down
    /// miner: inserts every prefix of the transaction's vector alongside
    /// the vector itself (the paper's part-A-at-construction step, see
    /// [`crate::construct`]). Errors and counts like `insert_transaction`.
    pub fn insert_with_prefixes(&mut self, transaction: &[Item]) -> Result<bool> {
        let projected = self.project(transaction)?;
        self.num_transactions += 1;
        let (mut rank, mut hash) = (0, 0u64);
        for end in 1..=self.scratch.len() {
            rank += self.scratch[end - 1];
            hash = hash.wrapping_add(mix(rank));
            Self::matrix_mut(&mut self.partitions, end).add(&self.scratch[..end], rank, hash, 1);
        }
        Ok(projected.is_some())
    }

    /// Removes one occurrence of a previously inserted transaction —
    /// incremental maintenance for the paper's "supporting large
    /// databases" story (a PLT can track a sliding window without
    /// rebuilding, as long as the ranking stays fixed).
    ///
    /// Returns `Ok(true)` when a vector was decremented (and its row
    /// swap-removed at frequency zero), `Ok(false)` when the transaction
    /// projects to nothing under the ranking. Removing a transaction that
    /// was never inserted is an error.
    ///
    /// Note the ranking is *not* re-derived: items that fell below the
    /// original support threshold keep their ranks. Callers that need
    /// exact re-ranking after heavy churn should reconstruct.
    pub fn remove_transaction(&mut self, transaction: &[Item]) -> Result<bool> {
        let Some(hash) = self.project(transaction)? else {
            self.num_transactions = self.num_transactions.saturating_sub(1);
            return Ok(false);
        };
        let row = &self.scratch;
        let present = self
            .partitions
            .get_mut(row.len() - 1)
            .is_some_and(|m| m.remove_one(row, hash));
        if !present {
            return Err(PltError::NotPresent);
        }
        self.num_transactions = self.num_transactions.saturating_sub(1);
        Ok(true)
    }

    /// Absorbs another PLT built over the same ranking, summing vector
    /// frequencies and transaction counts. Fuel for parallel construction:
    /// chunks of the database build local PLTs that are merged at the end.
    /// A partition this PLT does not hold yet is moved over whole.
    ///
    /// # Panics
    /// Debug-asserts the rankings agree; merging PLTs with different rank
    /// functions would concatenate incomparable encodings.
    pub fn absorb(&mut self, other: Plt) {
        debug_assert_eq!(self.ranking, other.ranking, "rankings must match");
        self.num_transactions += other.num_transactions;
        for theirs in other.partitions {
            let ours = Self::matrix_mut(&mut self.partitions, theirs.width);
            if ours.rows() == 0 {
                *ours = theirs;
                continue;
            }
            for r in 0..theirs.rows() {
                ours.add(theirs.row(r), theirs.sum[r], theirs.hash[r], theirs.freq[r]);
            }
        }
    }

    /// Frequency of `vector` *as a stored vector* (not itemset support).
    pub fn vector_frequency(&self, vector: &Positions) -> Support {
        self.get(vector).map_or(0, |e| e.freq)
    }

    /// Looks up a full entry.
    pub fn get(&self, vector: &Positions) -> Option<PltEntry> {
        let row = vector.positions();
        let m = self.partitions.get(row.len() - 1)?;
        let r = m.find(row, window_hash(row))?;
        Some(PltEntry {
            freq: m.freq[r],
            sum: m.sum[r],
        })
    }

    /// Iterates over every `(vector, entry)` pair, shortest vectors first.
    pub fn iter(&self) -> impl Iterator<Item = (&Positions, PltEntry)> {
        self.partitions.iter().flat_map(Matrix::iter)
    }

    /// Checks every structural invariant of the PLT, returning a
    /// description of the first violation. Meant for tests, debugging and
    /// post-deserialisation sanity checks; `O(total positions)`.
    ///
    /// Invariants: every matrix holds rows of its partition's length, all
    /// positions are `>= 1`, the cached sum equals the position sum, the
    /// last rank does not exceed the ranking size, no row is dead (zero
    /// frequency), each cached hash is the row's hash, and every row is
    /// indexed exactly once, by its own hash, in an index at most half
    /// full.
    pub fn validate(&self) -> std::result::Result<(), String> {
        for (k0, m) in self.partitions.iter().enumerate() {
            if m.width != k0 + 1 {
                return Err(format!(
                    "matrix of width {} stored as D_{}",
                    m.width,
                    k0 + 1
                ));
            }
            m.validate(self.ranking.len())?;
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
            let mut rows: Vec<(&Positions, PltEntry)> = self.partition(k).collect();
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
    use crate::posvec::PositionVector;
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
        plt.insert_transaction(&[0, 1]).unwrap();
        let err = plt.insert_transaction(&[0, 1, 0]).unwrap_err();
        assert_eq!(err, PltError::DuplicateItem { item: 0 });
        let err = plt.insert_with_prefixes(&[2, 1, 2]).unwrap_err();
        assert_eq!(err, PltError::DuplicateItem { item: 2 });
        // A rejected transaction is not counted and leaves no vector.
        assert_eq!(plt.num_transactions(), 1);
        assert_eq!(plt.num_vectors(), 1);
        plt.validate().unwrap();
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
    fn swap_remove_keeps_every_row_indexed() {
        // All 780 pairs of 40 items fill one matrix (and grow its index
        // several times); every third pair is inserted twice. Removing
        // them in a scrambled order exercises backward-shift deletion
        // across wrapped probe runs and the repointing of moved rows.
        let db: Vec<Vec<Item>> = (0..40)
            .flat_map(|a| (a + 1..40).map(move |b| vec![a, b]))
            .collect();
        let ranking = ItemRanking::scan(&db, 1, RankPolicy::Lexicographic);
        let mut plt = Plt::new(ranking, 1).unwrap();
        let mut live: Vec<(Vec<Item>, Support)> = Vec::new();
        for (i, t) in db.iter().enumerate() {
            let copies = if i % 3 == 0 { 2 } else { 1 };
            for _ in 0..copies {
                plt.insert_transaction(t).unwrap();
            }
            live.push((t.clone(), copies));
        }
        plt.validate().unwrap();
        let mut step = 0usize;
        while !live.is_empty() {
            step += 1;
            let i = (step * 7919) % live.len();
            plt.remove_transaction(&live[i].0).unwrap();
            live[i].1 -= 1;
            if live[i].1 == 0 {
                live.swap_remove(i);
            }
            plt.validate().unwrap();
            if step % 64 == 0 {
                assert_eq!(plt.num_vectors(), live.len());
                for (t, freq) in &live {
                    let ranks = plt.ranking().project(t);
                    let v = PositionVector::from_ranks(&ranks).unwrap();
                    assert_eq!(plt.vector_frequency(&v), *freq, "{t:?}");
                }
            }
        }
        assert_eq!(plt.num_vectors(), 0);
        assert_eq!(plt.num_transactions(), 0);
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
        bad.insert_vector(&pv(&[9]), 1);
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
        plt.insert_vector(&pv(&[1, 2]), 3);
        plt.insert_vector(&pv(&[1, 2]), 2);
        assert_eq!(plt.vector_frequency(&pv(&[1, 2])), 5);
        assert_eq!(plt.get(&pv(&[1, 2])).unwrap().sum, 3);
    }
}
