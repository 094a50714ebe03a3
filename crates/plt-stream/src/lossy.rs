//! Lossy Counting (Manku & Motwani, VLDB'02): deterministic approximate
//! frequency counting over an unbounded stream.
//!
//! The stream is conceptually divided into buckets of width
//! `w = ⌈1/ε⌉`. Each tracked entry carries its observed count and the
//! maximum possible undercount `Δ` (the bucket id when it was first
//! tracked). At every bucket boundary, entries with
//! `count + Δ ≤ current_bucket` are evicted.
//!
//! Deterministic guarantees after `N` observations:
//!
//! 1. **no false negatives** — every item with true frequency `≥ εN` is
//!    tracked, and [`LossyCounter::frequent`]`(s)` (which returns items
//!    with `count ≥ (s − ε)·N`) reports every item with true frequency
//!    `≥ s·N`;
//! 2. **bounded undercount** — `true − count ≤ εN` for tracked items, and
//!    estimated counts never exceed true counts;
//! 3. **bounded memory** — at most `(1/ε)·log₂(εN)` entries (in practice
//!    far fewer).

use plt_core::hash::FxHashMap;
use plt_core::item::Item;

/// One tracked entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    count: u64,
    /// Maximum possible undercount (bucket at first insertion − 1).
    delta: u64,
}

/// The Lossy Counting sketch over items.
///
/// # Examples
///
/// ```
/// use plt_stream::LossyCounter;
///
/// let mut lc = LossyCounter::new(0.01);
/// for _ in 0..90 { lc.observe(7); }
/// for i in 0..10 { lc.observe(i); }
/// assert_eq!(lc.observed(), 100);
/// // Item 7 is a 90% heavy hitter; its estimate is within εN of truth.
/// assert!(lc.estimate(7) >= 90 - 1);
/// assert_eq!(lc.frequent(0.5)[0].0, 7);
/// ```
#[derive(Debug, Clone)]
pub struct LossyCounter {
    epsilon: f64,
    bucket_width: u64,
    entries: FxHashMap<Item, Entry>,
    /// Total observations so far (`N`).
    observed: u64,
    /// Current bucket id (1-based).
    bucket: u64,
}

impl LossyCounter {
    /// Creates a counter with error bound `epsilon ∈ (0, 1)`.
    pub fn new(epsilon: f64) -> LossyCounter {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
        LossyCounter {
            epsilon,
            bucket_width: (1.0 / epsilon).ceil() as u64,
            entries: FxHashMap::default(),
            observed: 0,
            bucket: 1,
        }
    }

    /// The configured error bound.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Observations so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Currently tracked entries (the memory footprint).
    pub fn tracked(&self) -> usize {
        self.entries.len()
    }

    /// Observes one item occurrence.
    pub fn observe(&mut self, item: Item) {
        self.observed += 1;
        self.entries
            .entry(item)
            .and_modify(|e| e.count += 1)
            .or_insert(Entry {
                count: 1,
                delta: self.bucket - 1,
            });
        if self.observed % self.bucket_width == 0 {
            self.prune();
            self.bucket += 1;
        }
    }

    /// Observes every item of a transaction.
    pub fn observe_transaction(&mut self, transaction: &[Item]) {
        for &item in transaction {
            self.observe(item);
        }
    }

    fn prune(&mut self) {
        let bucket = self.bucket;
        self.entries.retain(|_, e| e.count + e.delta > bucket);
    }

    /// The estimated count of an item (never exceeds the true count;
    /// undercounts by at most `εN`). Untracked items estimate 0.
    pub fn estimate(&self, item: Item) -> u64 {
        self.entries.get(&item).map_or(0, |e| e.count)
    }

    /// Items answering a frequency query at support `s ∈ (0, 1]`: every
    /// item with true frequency `≥ s·N` is included (no false negatives);
    /// included items have true frequency `≥ (s − ε)·N`.
    pub fn frequent(&self, s: f64) -> Vec<(Item, u64)> {
        assert!(s > 0.0 && s <= 1.0, "support must be in (0, 1]");
        assert!(
            s >= self.epsilon,
            "querying below epsilon voids the guarantee"
        );
        let threshold = (s - self.epsilon) * self.observed as f64;
        let mut out: Vec<(Item, u64)> = self
            .entries
            .iter()
            .filter(|(_, e)| e.count as f64 >= threshold)
            .map(|(&i, e)| (i, e.count))
            .collect();
        out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Exact counts for comparison.
    fn exact(streamed: &[Item]) -> FxHashMap<Item, u64> {
        let mut m = FxHashMap::default();
        for &i in streamed {
            *m.entry(i).or_insert(0) += 1;
        }
        m
    }

    fn skewed_stream(n: usize, seed: u64) -> Vec<Item> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                // Geometric-ish skew over 64 items.
                let mut item = 0u32;
                while item < 63 && rng.gen::<f64>() < 0.55 {
                    item += 1;
                }
                item
            })
            .collect()
    }

    #[test]
    fn estimates_never_exceed_truth_and_undercount_is_bounded() {
        let stream = skewed_stream(50_000, 1);
        let mut lc = LossyCounter::new(0.001);
        for &i in &stream {
            lc.observe(i);
        }
        let truth = exact(&stream);
        let bound = (0.001 * stream.len() as f64).ceil() as u64;
        for (&item, &true_count) in &truth {
            let est = lc.estimate(item);
            assert!(est <= true_count, "overcount on {item}");
            if est > 0 {
                assert!(
                    true_count - est <= bound,
                    "undercount {} > εN {} on {item}",
                    true_count - est,
                    bound
                );
            } else {
                // Untracked → true count must be ≤ εN.
                assert!(true_count <= bound, "dropped a frequent item {item}");
            }
        }
    }

    #[test]
    fn no_false_negatives_at_query_time() {
        let stream = skewed_stream(30_000, 2);
        let mut lc = LossyCounter::new(0.002);
        lc.observe_transaction(&stream);
        let truth = exact(&stream);
        let s = 0.02;
        let reported: std::collections::HashSet<Item> =
            lc.frequent(s).into_iter().map(|(i, _)| i).collect();
        for (&item, &count) in &truth {
            if count as f64 >= s * stream.len() as f64 {
                assert!(reported.contains(&item), "missed frequent item {item}");
            }
        }
        // And everything reported is at least (s − ε)-frequent.
        for item in reported {
            let count = truth[&item] as f64;
            assert!(count >= (s - lc.epsilon()) * stream.len() as f64);
        }
    }

    #[test]
    fn memory_stays_bounded() {
        let stream = skewed_stream(100_000, 3);
        let mut lc = LossyCounter::new(0.01);
        for &i in &stream {
            lc.observe(i);
        }
        // Theoretical bound: (1/ε)·log2(εN) = 100 · log2(1000) ≈ 997.
        let bound = (1.0 / 0.01) * (0.01 * stream.len() as f64).log2();
        assert!(
            (lc.tracked() as f64) <= bound,
            "{} tracked > bound {bound}",
            lc.tracked()
        );
        assert_eq!(lc.observed(), 100_000);
    }

    #[test]
    fn query_below_epsilon_is_rejected() {
        let lc = LossyCounter::new(0.05);
        let r = std::panic::catch_unwind(|| lc.frequent(0.01));
        assert!(r.is_err());
    }

    #[test]
    #[should_panic]
    fn zero_epsilon_is_rejected() {
        LossyCounter::new(0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The three Lossy Counting invariants hold on arbitrary streams.
        #[test]
        fn prop_invariants(
            stream in proptest::collection::vec(0u32..40, 100..3000),
            eps_thousandths in 2u64..100,
        ) {
            let epsilon = eps_thousandths as f64 / 1000.0;
            let mut lc = LossyCounter::new(epsilon);
            lc.observe_transaction(&stream);
            let truth = exact(&stream);
            let n = stream.len() as f64;
            for (&item, &count) in &truth {
                let est = lc.estimate(item);
                prop_assert!(est <= count);
                prop_assert!(count as f64 - est as f64 <= (epsilon * n).ceil());
            }
        }
    }
}
