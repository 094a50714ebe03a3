//! Bitset TID database: one fixed-width `u64`-word bitmap per item.
//!
//! The vertical layout in [`crate::vertical`] stores each item's TIDs as a
//! sorted `Vec<u32>`; intersecting two lists is a branchy sorted merge.
//! On dense data the same sets are much smaller — and the intersection
//! much faster — as bitmaps: `support(X ∪ Y) = popcount(bits(X) AND
//! bits(Y))`, one wide AND per 64 transactions with no branches at all.
//! This is the classic vertical-bitmap rendering of Eclat (Zaki, TKDE
//! 2000 — the paper's reference \[12\]); the AND+popcount runs through
//! `plt-simd`'s kernels.
//!
//! [`BitsetTidDb::prefer_bitmaps`] is the density heuristic: bitmaps win
//! exactly when their fixed `⌈n/64⌉`-word footprint undercuts the sorted
//! TID vectors they replace, which happens once average item support
//! exceeds one TID per 16 transactions (4 bytes/TID vs 1 bit/transaction,
//! i.e. density 1/16 ≈ 6.25%).

use crate::transaction::Item;
use crate::vertical::{Tid, VerticalDb};

/// Per-item TID bitmaps over a fixed transaction universe.
#[derive(Debug, Clone, Default)]
pub struct BitsetTidDb {
    /// `(item, first word index)` pairs, sorted by item; every row spans
    /// `words_per_row` words in `words`.
    index: Vec<(Item, usize)>,
    /// Concatenated row storage.
    words: Vec<u64>,
    /// Words per row: `⌈num_transactions / 64⌉`.
    words_per_row: usize,
    num_transactions: usize,
}

impl BitsetTidDb {
    /// Builds bitmaps for every column of a vertical database.
    pub fn from_vertical(db: &VerticalDb) -> BitsetTidDb {
        let n = db.num_transactions();
        let words_per_row = n.div_ceil(64);
        let mut out = BitsetTidDb {
            index: Vec::with_capacity(db.num_items()),
            words: Vec::with_capacity(words_per_row * db.num_items()),
            words_per_row,
            num_transactions: n,
        };
        for (item, tids) in db.columns() {
            let start = out.words.len();
            out.words.resize(start + words_per_row, 0);
            let row = &mut out.words[start..];
            for &tid in tids {
                row[tid as usize / 64] |= 1u64 << (tid % 64);
            }
            out.index.push((item, start));
        }
        out
    }

    /// Number of transactions the bitmaps span (the universe size).
    pub fn num_transactions(&self) -> usize {
        self.num_transactions
    }

    /// Number of items with a bitmap row.
    pub fn num_items(&self) -> usize {
        self.index.len()
    }

    /// Words in every row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The bitmap row of `item` (empty slice when absent).
    pub fn row(&self, item: Item) -> &[u64] {
        match self.index.binary_search_by_key(&item, |e| e.0) {
            Ok(i) => {
                let start = self.index[i].1;
                &self.words[start..start + self.words_per_row]
            }
            Err(_) => &[],
        }
    }

    /// Iterates `(item, row)` in item order.
    pub fn rows(&self) -> impl Iterator<Item = (Item, &[u64])> {
        self.index
            .iter()
            .map(move |&(item, start)| (item, &self.words[start..start + self.words_per_row]))
    }

    /// Support of a single item (popcount of its row).
    pub fn item_support(&self, item: Item) -> u64 {
        plt_simd::popcount(self.row(item))
    }

    /// Support of an itemset: popcount of the AND across all member rows,
    /// folded into one reusable scratch row. Returns 0 for the empty set
    /// or any item without a row.
    pub fn support(&self, items: &[Item], scratch: &mut Vec<u64>) -> u64 {
        let Some((&first, rest)) = items.split_first() else {
            return 0;
        };
        let first_row = self.row(first);
        if first_row.is_empty() {
            return 0;
        }
        if rest.is_empty() {
            return plt_simd::popcount(first_row);
        }
        if rest.len() == 1 {
            let row = self.row(rest[0]);
            if row.is_empty() {
                return 0;
            }
            // The common pairwise probe skips the scratch entirely.
            return plt_simd::and_popcount(first_row, row);
        }
        scratch.clear();
        scratch.extend_from_slice(first_row);
        let mut ones = 0;
        for &item in rest {
            let row = self.row(item);
            if row.is_empty() {
                return 0;
            }
            ones = plt_simd::and_assign_popcount(scratch, row);
            if ones == 0 {
                return 0;
            }
        }
        ones
    }

    /// Bytes the bitmaps occupy (`num_items × words_per_row × 8`).
    pub fn bitmap_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// The density heuristic: should an Eclat-style miner use bitmaps
    /// instead of sorted TID vectors for this workload? True when the
    /// total bitmap footprint of the `num_rows` frequent items is smaller
    /// than the `total_tids` 4-byte TIDs they would otherwise store.
    pub fn prefer_bitmaps(num_transactions: usize, num_rows: usize, total_tids: usize) -> bool {
        let words_per_row = num_transactions.div_ceil(64);
        num_rows * words_per_row * 8 < total_tids * 4
    }

    /// Decodes a bitmap row back to sorted TIDs (test/debug helper).
    pub fn to_tids(row: &[u64]) -> Vec<Tid> {
        let mut out = Vec::new();
        for (wi, &w) in row.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros();
                out.push((wi as u32) * 64 + b);
                bits &= bits - 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::TransactionDb;

    fn db() -> TransactionDb {
        TransactionDb::new(vec![vec![1, 2, 3], vec![1, 2], vec![2, 3], vec![3]])
    }

    #[test]
    fn rows_match_vertical_tid_lists() {
        let v = VerticalDb::from_horizontal(&db());
        let b = BitsetTidDb::from_vertical(&v);
        assert_eq!(b.num_transactions(), 4);
        assert_eq!(b.num_items(), 3);
        assert_eq!(b.words_per_row(), 1);
        for (item, tids) in v.columns() {
            assert_eq!(BitsetTidDb::to_tids(b.row(item)), tids, "item {item}");
            assert_eq!(b.item_support(item), tids.len() as u64);
        }
        assert!(b.row(9).is_empty());
    }

    #[test]
    fn support_matches_intersection_counts() {
        let v = VerticalDb::from_horizontal(&db());
        let b = BitsetTidDb::from_vertical(&v);
        let mut scratch = Vec::new();
        assert_eq!(b.support(&[1, 2], &mut scratch), 2);
        assert_eq!(b.support(&[2, 3], &mut scratch), 2);
        assert_eq!(b.support(&[1, 3], &mut scratch), 1);
        assert_eq!(b.support(&[3], &mut scratch), 3);
        assert_eq!(b.support(&[], &mut scratch), 0);
        assert_eq!(b.support(&[1, 9], &mut scratch), 0);
    }

    #[test]
    fn density_heuristic_crossover() {
        // 640 transactions → 10 words (80 bytes) per row. A row is worth
        // a bitmap once it replaces > 20 TIDs (80 bytes / 4).
        assert!(BitsetTidDb::prefer_bitmaps(640, 1, 21));
        assert!(!BitsetTidDb::prefer_bitmaps(640, 1, 20));
        // Sparse: 100 items at 1% density of 6400 txns — tidsets win.
        assert!(!BitsetTidDb::prefer_bitmaps(6400, 100, 6400));
        // Dense: 16 items at 50% density of 640 txns — bitmaps win.
        assert!(BitsetTidDb::prefer_bitmaps(640, 16, 16 * 320));
    }

    #[test]
    fn wide_universe_spans_words() {
        let mut txns: Vec<Vec<Item>> = (0..200).map(|_| vec![7]).collect();
        txns[0].push(8);
        txns[130].push(8);
        let v = VerticalDb::from_horizontal(&TransactionDb::new(txns));
        let b = BitsetTidDb::from_vertical(&v);
        assert_eq!(b.words_per_row(), 4);
        assert_eq!(b.item_support(7), 200);
        let mut scratch = Vec::new();
        assert_eq!(b.support(&[7, 8], &mut scratch), 2);
        assert_eq!(BitsetTidDb::to_tids(b.row(8)), vec![0, 130]);
    }
}
