//! Unified miner interface, mining results, and the brute-force reference
//! miner used as ground truth in tests.

use crate::hash::FxHashMap;
use crate::item::{Item, Itemset, ItemsetRef, Support};

/// One itemset of a result table: `len` items at `offset` in the item
/// buffer, and its support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    offset: u32,
    len: u32,
    support: Support,
}

impl Entry {
    /// The entry's items within the buffer.
    #[inline]
    fn range(&self) -> std::ops::Range<usize> {
        let o = self.offset as usize;
        o..o + self.len as usize
    }
}

/// A buffer length as an entry offset.
fn offset_of(len: usize) -> u32 {
    u32::try_from(len).expect("a result holds fewer than 2^32 items")
}

/// The outcome of a frequent-itemset mining run: every frequent itemset
/// with its (absolute) support.
///
/// Stored as a columnar table: one item buffer plus one
/// `(offset, len, support)` entry per itemset, in canonical order — by
/// size, then lexicographically by items — and without duplicates. So the
/// table is partitioned by size like the PLT's `D_1 … D_k`, each group's
/// rows lie back to back as a `k`-wide matrix, a lookup is a binary search
/// of one such matrix, and dropping a result frees three buffers. An
/// itemset's index in the table is its *id* ([`position`](Self::position),
/// [`get`](Self::get)). A result is only ever built through a
/// [`ResultBuilder`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MiningResult {
    /// Every itemset's items, back to back in canonical order.
    items: Vec<Item>,
    /// One entry per itemset, in canonical order.
    entries: Vec<Entry>,
    /// `group_ends[k − 1]` is the end of the size-`k` group in `entries`,
    /// for `k` in `1..=max_size`; found once, in `finish`.
    group_ends: Vec<u32>,
    min_support: Support,
    num_transactions: u64,
}

impl MiningResult {
    /// Creates an empty result with run metadata.
    pub fn new(min_support: Support, num_transactions: u64) -> Self {
        MiningResult {
            min_support,
            num_transactions,
            ..MiningResult::default()
        }
    }

    /// An empty builder for a result with this run metadata.
    pub fn builder(min_support: Support, num_transactions: u64) -> ResultBuilder {
        ResultBuilder {
            min_support,
            num_transactions,
            ..ResultBuilder::default()
        }
    }

    /// Support of `items`, if the itemset is frequent.
    pub fn support(&self, items: &[Item]) -> Option<Support> {
        self.position(items).map(|id| self.entries[id].support)
    }

    /// The id of `items`, if the itemset is frequent. A sorted,
    /// duplicate-free probe is a binary search in its size group and
    /// allocates nothing; any other probe is normalised first.
    pub fn position(&self, items: &[Item]) -> Option<usize> {
        if !items.windows(2).all(|w| w[0] < w[1]) {
            return self.position(Itemset::from(items).items());
        }
        let (k, group) = (items.len(), self.group(items.len()));
        if group.is_empty() {
            return None;
        }
        // The group's rows are a `k`-wide row-major matrix in the item
        // buffer, so the search reads rows, not entries.
        let rows = &self.items[self.entries[group.start].range().start..][..group.len() * k];
        let row = |i: usize| &rows[i * k..][..k];
        let (mut at, mut size) = (0, group.len());
        while size > 1 {
            let half = size / 2;
            if row(at + half) <= items {
                at += half;
            }
            size -= half;
        }
        (row(at) == items).then_some(group.start + at)
    }

    /// The ids of the entries of exactly `k` items: one contiguous run.
    fn group(&self, k: usize) -> std::ops::Range<usize> {
        let Some(&end) = k.checked_sub(1).and_then(|i| self.group_ends.get(i)) else {
            return 0..0;
        };
        let start = if k >= 2 { self.group_ends[k - 2] } else { 0 };
        start as usize..end as usize
    }

    /// The itemset with id `id` and its support, or `None` past the end.
    pub fn get(&self, id: usize) -> Option<(ItemsetRef<'_>, Support)> {
        self.entries.get(id).map(|e| self.row(e))
    }

    /// True if the itemset is in the frequent set.
    pub fn contains(&self, items: &[Item]) -> bool {
        self.support(items).is_some()
    }

    /// Number of frequent itemsets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was frequent.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The minimum support of the run.
    pub fn min_support(&self) -> Support {
        self.min_support
    }

    /// The number of transactions mined.
    pub fn num_transactions(&self) -> u64 {
        self.num_transactions
    }

    /// Iterates over `(itemset, support)` in canonical order: by size,
    /// then lexicographically.
    pub fn iter(&self) -> impl Iterator<Item = (ItemsetRef<'_>, Support)> {
        self.entries.iter().map(|e| self.row(e))
    }

    /// All frequent itemsets of exactly `k` items, in canonical order: the
    /// size group's slice of the table.
    pub fn of_size(&self, k: usize) -> impl Iterator<Item = (ItemsetRef<'_>, Support)> {
        self.entries[self.group(k)].iter().map(|e| self.row(e))
    }

    /// The `(itemset, support)` row of one entry of this table.
    fn row(&self, e: &Entry) -> (ItemsetRef<'_>, Support) {
        (ItemsetRef::from_sorted(&self.items[e.range()]), e.support)
    }

    /// Size of the largest frequent itemset.
    pub fn max_size(&self) -> usize {
        self.entries.last().map_or(0, |e| e.len as usize)
    }

    /// The itemsets as owned values, in canonical order (by size, then
    /// lexicographically), for display and golden tests.
    pub fn sorted(&self) -> Vec<(Itemset, Support)> {
        self.iter().map(|(s, sup)| (s.to_itemset(), sup)).collect()
    }

    /// Verifies the anti-monotone property internally: every non-empty
    /// subset of a frequent itemset must be frequent with at least the same
    /// support. Used by tests and debug assertions; `O(Σ 2^k)`. Violations
    /// are reported as
    /// [`PltError::AntiMonotoneViolation`](crate::error::PltError::AntiMonotoneViolation).
    pub fn check_anti_monotone(&self) -> crate::error::Result<()> {
        for (itemset, support) in self.iter() {
            for sub in itemset.to_itemset().subsets() {
                match self.support(sub.items()) {
                    None => {
                        return Err(crate::error::PltError::AntiMonotoneViolation {
                            subset: sub,
                            superset: itemset.to_itemset(),
                            subset_support: None,
                            superset_support: support,
                        })
                    }
                    Some(s) if s < support => {
                        return Err(crate::error::PltError::AntiMonotoneViolation {
                            subset: sub,
                            superset: itemset.to_itemset(),
                            subset_support: Some(s),
                            superset_support: support,
                        })
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

impl FromIterator<(Itemset, Support)> for MiningResult {
    fn from_iter<I: IntoIterator<Item = (Itemset, Support)>>(iter: I) -> Self {
        let mut builder = MiningResult::builder(0, 0);
        for (s, sup) in iter {
            builder.push(s, sup);
        }
        builder.finish()
    }
}

/// Accumulates itemsets in any order, duplicates allowed, and orders them
/// once in [`finish`](Self::finish). Miners push every itemset they find
/// straight into one builder; merging results is appending builders (or
/// [`extend_from`](Self::extend_from) a finished result) and finishing
/// once, never a canonical merge per part.
#[derive(Debug, Default)]
pub struct ResultBuilder {
    items: Vec<Item>,
    entries: Vec<Entry>,
    min_support: Support,
    num_transactions: u64,
}

impl ResultBuilder {
    /// Records a frequent itemset given as distinct items in any order.
    /// Re-recording the same itemset must use the same support
    /// (debug-asserted in [`finish`](Self::finish)); miners never
    /// legitimately produce conflicting counts.
    pub fn push<I: IntoIterator<Item = Item>>(&mut self, items: I, support: Support) {
        let start = self.items.len();
        self.items.extend(items);
        // Offset and length are both at most the new buffer length.
        let _ = offset_of(self.items.len());
        let row = &mut self.items[start..];
        if !row.windows(2).all(|w| w[0] < w[1]) {
            row.sort_unstable();
        }
        debug_assert!(!row.is_empty(), "the empty itemset is never reported");
        debug_assert!(
            row.windows(2).all(|w| w[0] < w[1]),
            "an itemset holds distinct items"
        );
        self.entries.push(Entry {
            offset: start as u32,
            len: row.len() as u32,
            support,
        });
    }

    /// Records every itemset of a finished result.
    pub fn extend_from(&mut self, result: &MiningResult) {
        self.extend_rows(&result.items, &result.entries);
    }

    /// Records every itemset of another builder.
    pub fn append(&mut self, other: ResultBuilder) {
        if self.entries.is_empty() {
            self.items = other.items;
            self.entries = other.entries;
        } else {
            self.extend_rows(&other.items, &other.entries);
        }
    }

    fn extend_rows(&mut self, items: &[Item], entries: &[Entry]) {
        let base = self.items.len();
        // Every shifted offset lies below the new length: one check.
        let _ = offset_of(base + items.len());
        self.items.extend_from_slice(items);
        self.entries.extend(entries.iter().map(|e| Entry {
            offset: e.offset + base as u32,
            ..*e
        }));
    }

    /// Orders the itemsets canonically (by size, then items) with one
    /// radix sort (`canonical_order`), then copies them out in that
    /// order, merging each run of duplicates into one row
    /// (debug-asserting equal supports) and compacting the buffer. Last,
    /// it finds where each size group ends.
    pub fn finish(self) -> MiningResult {
        let ResultBuilder {
            items,
            entries,
            min_support,
            num_transactions,
        } = self;
        let order = canonical_order(&items, &entries);
        let mut out = MiningResult {
            items: Vec::with_capacity(items.len()),
            entries: Vec::with_capacity(entries.len()),
            group_ends: Vec::new(),
            min_support,
            num_transactions,
        };
        for &id in &order {
            let e = &entries[id as usize];
            let row = &items[e.range()];
            if let Some(last) = out.entries.last() {
                if out.items[last.range()] == *row {
                    debug_assert_eq!(
                        last.support, e.support,
                        "conflicting supports for an itemset"
                    );
                    continue;
                }
            }
            out.entries.push(Entry {
                offset: out.items.len() as u32,
                ..*e
            });
            out.items.extend_from_slice(row);
        }
        out.group_ends = (1..=out.max_size())
            .map(|k| out.entries.partition_point(|e| e.len as usize <= k) as u32)
            .collect();
        out
    }
}

/// Bits of an item one counting pass sorts by: three passes cover a
/// 32-bit item, with 2^11 buckets each.
const DIGIT_BITS: u32 = 11;

/// The ids of `entries` in canonical order: a counting sort by length,
/// then within each size group one stable LSD counting sort per item
/// column, from the last column to the first, [`DIGIT_BITS`] bits at a
/// time. A digit that is the same in every row of the group orders
/// nothing and is skipped, so items below 2^11 cost one pass per column.
fn canonical_order(items: &[Item], entries: &[Entry]) -> Vec<u32> {
    let max_len = entries.iter().map(|e| e.len as usize).max().unwrap_or(0);
    // `starts[k]` is where the size-`k` group begins in the order.
    let mut starts = vec![0usize; max_len + 2];
    for e in entries {
        starts[e.len as usize + 1] += 1;
    }
    for k in 1..starts.len() {
        starts[k] += starts[k - 1];
    }
    let mut order = vec![0u32; entries.len()];
    let mut next = starts.clone();
    for (id, e) in entries.iter().enumerate() {
        order[next[e.len as usize]] = id as u32;
        next[e.len as usize] += 1;
    }
    let mut scratch = vec![0u32; entries.len()];
    let mut digits: Vec<u16> = Vec::new();
    let mut counts = vec![0u32; 1 << DIGIT_BITS];
    let mut varying = vec![0; max_len];
    let digit_mask = (1 << DIGIT_BITS) - 1;
    for k in 1..=max_len {
        let group = starts[k]..starts[k + 1];
        if group.len() < 2 {
            continue;
        }
        let (mut src, mut dst) = (&mut order[group.clone()], &mut scratch[group]);
        let row = |id: u32| &items[entries[id as usize].range()];
        // The bits that vary down each column pick the passes it needs.
        let first = row(src[0]);
        varying[..k].fill(0);
        for &id in src.iter() {
            for ((v, a), b) in varying.iter_mut().zip(row(id)).zip(first) {
                *v |= a ^ b;
            }
        }
        let mut swapped = false;
        for col in (0..k).rev() {
            for shift in (0..Item::BITS).step_by(DIGIT_BITS as usize) {
                if (varying[col] >> shift) & digit_mask == 0 {
                    continue;
                }
                digits.clear();
                digits.extend(
                    src.iter()
                        .map(|&id| ((row(id)[col] >> shift) & digit_mask) as u16),
                );
                counts.fill(0);
                for &d in &digits {
                    counts[d as usize] += 1;
                }
                let mut at = 0;
                for c in counts.iter_mut() {
                    (*c, at) = (at, at + *c);
                }
                for (&id, &d) in src.iter().zip(&digits) {
                    dst[counts[d as usize] as usize] = id;
                    counts[d as usize] += 1;
                }
                std::mem::swap(&mut src, &mut dst);
                swapped = !swapped;
            }
        }
        if swapped {
            dst.copy_from_slice(src);
        }
    }
    order
}

/// A frequent-itemset miner over a horizontal transaction database.
///
/// The interface is deliberately concrete (`&[Vec<Item>]`) so miners are
/// object-safe and interchangeable inside the benchmark harness.
pub trait Miner {
    /// Human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Mines all itemsets with support `>= min_support` (absolute count).
    ///
    /// # Panics
    /// Implementations may panic on `min_support == 0`; every provided
    /// miner treats it as a programming error.
    fn mine(&self, transactions: &[Vec<Item>], min_support: Support) -> MiningResult;

    /// Like [`Miner::mine`], reporting spans and counters into `obs`.
    ///
    /// The default wraps the whole run in a single `mine/total` span;
    /// miners with internal phases override it to attribute time to
    /// `construct/*` and `mine/*` sub-spans and to flush engine counters.
    /// With `Obs::none()` this is exactly `mine` (the handle is inert),
    /// so implementations need no disabled-path special-casing.
    fn mine_with_obs(
        &self,
        transactions: &[Vec<Item>],
        min_support: Support,
        obs: &mut plt_obs::Obs,
    ) -> MiningResult {
        obs.time("mine/total", || self.mine(transactions, min_support))
    }
}

/// A frequent-itemset miner over an already-constructed
/// [`Plt`](crate::plt::Plt).
///
/// This is the single PLT-level entry point: one obs-taking method, plus a
/// convenience wrapper for callers without an observability pipeline. It is
/// object-safe, so services and benchmarks dispatch engines through
/// `Box<dyn Mine>` instead of per-type match arms. All three PLT miners
/// implement it: `ConditionalMiner`, `TopDownMiner` (plt-core) and
/// `ParallelPltMiner` (plt-parallel).
///
/// Note: types implementing both [`Miner`] and [`Mine`] have two `mine`
/// methods of different arity; when both traits are in scope on a concrete
/// receiver, disambiguate with `Mine::mine(&miner, &plt, &mut obs)`.
/// `Box<dyn Mine>` receivers never hit the ambiguity.
pub trait Mine {
    /// Mines every frequent itemset of `plt` (at the PLT's construction
    /// `min_support`), reporting spans and counters into `obs`. With
    /// `Obs::none()` the handle is inert and this costs nothing extra.
    fn mine(&self, plt: &crate::plt::Plt, obs: &mut plt_obs::Obs) -> MiningResult;

    /// Convenience wrapper: [`Mine::mine`] with observability disabled.
    fn mine_plt(&self, plt: &crate::plt::Plt) -> MiningResult {
        self.mine(plt, &mut plt_obs::Obs::none())
    }
}

/// Ground-truth miner: enumerates every subset of every transaction and
/// counts exactly. Exponential in transaction length — tests only.
#[derive(Debug, Clone, Copy, Default)]
pub struct BruteForceMiner;

impl Miner for BruteForceMiner {
    fn name(&self) -> &'static str {
        "brute-force"
    }

    fn mine(&self, transactions: &[Vec<Item>], min_support: Support) -> MiningResult {
        assert!(min_support >= 1, "minimum support must be at least 1");
        let mut counts: FxHashMap<Itemset, Support> = FxHashMap::default();
        for t in transactions {
            let t = Itemset::from(t.as_slice());
            assert!(
                t.len() <= 20,
                "brute-force miner limited to transactions of <= 20 items"
            );
            for sub in t.subsets() {
                *counts.entry(sub).or_insert(0) += 1;
            }
        }
        let mut result = MiningResult::builder(min_support, transactions.len() as u64);
        for (itemset, support) in counts {
            if support >= min_support {
                result.push(itemset, support);
            }
        }
        result.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn brute_force_on_paper_table1() {
        let r = BruteForceMiner.mine(&table1(), 2);
        // Hand-derived supports (DESIGN.md E-F4).
        assert_eq!(r.support(&[0]), Some(4));
        assert_eq!(r.support(&[1]), Some(5));
        assert_eq!(r.support(&[2]), Some(5));
        assert_eq!(r.support(&[3]), Some(4));
        assert_eq!(r.support(&[0, 1]), Some(4));
        assert_eq!(r.support(&[0, 2]), Some(3));
        assert_eq!(r.support(&[0, 3]), Some(2));
        assert_eq!(r.support(&[1, 2]), Some(4));
        assert_eq!(r.support(&[1, 3]), Some(3));
        assert_eq!(r.support(&[2, 3]), Some(3));
        assert_eq!(r.support(&[0, 1, 2]), Some(3));
        assert_eq!(r.support(&[0, 1, 3]), Some(2));
        assert_eq!(r.support(&[1, 2, 3]), Some(2));
        assert_eq!(r.support(&[0, 2, 3]), None); // support 1
        assert_eq!(r.support(&[0, 1, 2, 3]), None); // support 1
        assert_eq!(r.support(&[4]), None); // E, support 1
        assert_eq!(r.len(), 13);
        assert_eq!(r.max_size(), 3);
        r.check_anti_monotone().unwrap();
    }

    #[test]
    fn result_sorted_is_deterministic() {
        let r = BruteForceMiner.mine(&table1(), 2);
        let a = r.sorted();
        let b = r.sorted();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| {
            w[0].0.len() < w[1].0.len() || (w[0].0.len() == w[1].0.len() && w[0].0 < w[1].0)
        }));
    }

    #[test]
    fn of_size_filters() {
        let r = BruteForceMiner.mine(&table1(), 2);
        assert_eq!(r.of_size(1).count(), 4);
        assert_eq!(r.of_size(2).count(), 6);
        assert_eq!(r.of_size(3).count(), 3);
        assert_eq!(r.of_size(4).count(), 0);
    }

    #[test]
    fn ids_round_trip_through_position_and_get() {
        let r = BruteForceMiner.mine(&table1(), 2);
        for (id, (itemset, support)) in r.iter().enumerate() {
            assert_eq!(r.position(itemset.items()), Some(id));
            assert_eq!(r.get(id), Some((itemset, support)));
        }
        // Any spelling of a frequent itemset finds its id.
        assert_eq!(r.position(&[2, 0, 1, 0]), r.position(&[0, 1, 2]));
        assert_eq!(r.position(&[0, 2, 3]), None); // infrequent
        assert_eq!(r.position(&[]), None);
        assert_eq!(r.position(&[0, 1, 2, 3]), None); // past the largest size
        assert_eq!(r.get(r.len()), None);
        // A result with a gap between its sizes still finds every group.
        let gap: MiningResult = vec![(Itemset::from([1]), 3u64), (Itemset::from([1, 2, 3]), 2)]
            .into_iter()
            .collect();
        assert_eq!(gap.position(&[1, 2, 3]), Some(1));
        assert_eq!(gap.of_size(2).count(), 0);
        assert_eq!(MiningResult::new(1, 0).position(&[1]), None);
    }

    #[test]
    fn min_support_one_counts_everything() {
        let r = BruteForceMiner.mine(&table1(), 1);
        assert_eq!(r.support(&[0, 1, 2, 3]), Some(1));
        assert_eq!(r.support(&[4]), Some(1));
        r.check_anti_monotone().unwrap();
    }

    #[test]
    fn high_min_support_yields_empty() {
        let r = BruteForceMiner.mine(&table1(), 7);
        assert!(r.is_empty());
        assert_eq!(r.max_size(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_min_support_panics() {
        BruteForceMiner.mine(&table1(), 0);
    }

    #[test]
    fn check_anti_monotone_detects_violations() {
        let result = |rows: &[(&[Item], Support)]| {
            let mut b = MiningResult::builder(1, 10);
            for &(items, support) in rows {
                b.push(items.iter().copied(), support);
            }
            b.finish()
        };
        // {1} and {2} missing → violation.
        assert!(result(&[(&[1, 2], 5)]).check_anti_monotone().is_err());
        // {2}'s support below its superset's → violation.
        let low = result(&[(&[1, 2], 5), (&[1], 5), (&[2], 3)]);
        assert!(low.check_anti_monotone().is_err());
    }

    #[test]
    fn from_iterator_collects() {
        let r: MiningResult = vec![(Itemset::from([1]), 3u64), (Itemset::from([2]), 2)]
            .into_iter()
            .collect();
        assert_eq!(r.len(), 2);
        assert_eq!(r.support(&[1]), Some(3));
    }
}
