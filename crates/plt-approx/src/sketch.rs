//! The itemset-frequency indicator sketch.
//!
//! A uniform Bernoulli sample of the serving window, held as raw
//! transactions, answers `SUPPORT OF {X}` by counting the indicator
//! `1[X ⊆ t]` over the sample and scaling to the window. Hoeffding's
//! inequality on the mean of `m` i.i.d. indicators gives
//!
//! ```text
//! Pr[ |p̂ − p| > ε ] ≤ 2·exp(−2·m·ε²)
//! ```
//!
//! so `m = ⌈ln(2/δ) / (2ε²)⌉` samples suffice for an additive error of
//! `ε·N` with probability `1 − δ` — the classic sample-complexity bound
//! for ±1-valued queries (cf. Price, arXiv:1410.2640, where the same
//! `ln(1/δ)/ε²` shape is the baseline that sketch lower bounds are
//! measured against). Crucially `m` is independent of the window size:
//! the sketch's memory is `O(ln(1/δ)/ε²)` transactions while the exact
//! snapshot holds all `N`.
//!
//! Two refinements:
//!
//! * **Sampling is deterministic.** Whether arrival `seq` is kept is a
//!   hash of `(seq, seed)`, so replaying a stream reproduces the sketch
//!   bit-for-bit — the property tests pin exact outcomes forever.
//! * **Singletons ride the lossy counter.** Until the window first
//!   evicts, the sketch also feeds a [`LossyCounter`], whose singleton
//!   estimates carry a *deterministic* undercount bound of `ε` times
//!   the item occurrences observed (no δ). A singleton answers from
//!   the counter only while that bound is at least as tight as the
//!   sample's Hoeffding bound (on long transactions it needn't be).
//!   Eviction invalidates the counter (it cannot forget), so the
//!   sketch falls back to the sample for singletons from then on.

use std::collections::VecDeque;

use plt_core::item::{Item, Support};
use plt_query::SupportSketch;
use plt_stream::LossyCounter;

/// Sketch parameters. `epsilon`/`delta` state the guarantee: answers are
/// within `±⌈ε·N⌉` of the true window support with probability `1 − δ`
/// (per query, over the sampling randomness).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchConfig {
    /// Additive error, as a fraction of the window size. In `(0, 1]`.
    pub epsilon: f64,
    /// Failure probability. In `(0, 1)`.
    pub delta: f64,
    /// Window capacity the sketch mirrors (FIFO, like the serving
    /// pipeline's `ShardConfig::capacity`).
    pub capacity: usize,
    /// Sampling seed; fixed seed ⇒ fully deterministic sketch.
    pub seed: u64,
}

impl Default for SketchConfig {
    fn default() -> SketchConfig {
        SketchConfig {
            epsilon: 0.05,
            delta: 0.01,
            capacity: 100_000,
            seed: 0x5ee_d5ee,
        }
    }
}

impl SketchConfig {
    /// The Hoeffding sample size `⌈ln(2/δ) / (2ε²)⌉` for this ε/δ.
    pub fn target_samples(&self) -> usize {
        ((2.0 / self.delta).ln() / (2.0 * self.epsilon * self.epsilon)).ceil() as usize
    }
}

/// The sketch. Feed every window arrival through
/// [`observe`](IndicatorSketch::observe); it mirrors the pipeline's FIFO
/// eviction internally, so no eviction callback is needed.
#[derive(Debug, Clone)]
pub struct IndicatorSketch {
    config: SketchConfig,
    /// Arrivals observed over the sketch lifetime.
    seq: u64,
    /// Kept `(seq, transaction)` pairs, oldest first.
    kept: VecDeque<(u64, Vec<Item>)>,
    /// Bytes held by kept transactions (item payload only).
    kept_bytes: usize,
    /// `keep(seq) ⇔ hash(seq, seed) < threshold`; `u64::MAX` ⇒ keep all.
    threshold: u64,
    /// Singleton fast path, valid until the first eviction.
    lossy: LossyCounter,
    lossy_valid: bool,
}

/// One answer: the support estimate and its stated absolute bound.
pub type Estimate = (Support, Support);

impl IndicatorSketch {
    pub fn new(config: SketchConfig) -> IndicatorSketch {
        assert!(
            config.epsilon > 0.0 && config.epsilon <= 1.0,
            "epsilon must be in (0, 1]"
        );
        assert!(
            config.delta > 0.0 && config.delta < 1.0,
            "delta must be in (0, 1)"
        );
        assert!(config.capacity >= 1, "capacity must be at least 1");
        let m = config.target_samples();
        // Keep rate m/capacity, mapped onto the hash's u64 range.
        let threshold = if m >= config.capacity {
            u64::MAX
        } else {
            ((m as f64 / config.capacity as f64) * u64::MAX as f64) as u64
        };
        IndicatorSketch {
            lossy: LossyCounter::new(config.epsilon.min(0.5)),
            config,
            seq: 0,
            kept: VecDeque::new(),
            kept_bytes: 0,
            threshold,
            lossy_valid: true,
        }
    }

    /// Observes one window arrival. Unsorted or duplicated items are
    /// normalized first; the pipeline's already-canonical transactions
    /// skip the copy.
    pub fn observe(&mut self, transaction: &[Item]) {
        if !transaction.windows(2).all(|w| w[0] < w[1]) {
            let mut t = transaction.to_vec();
            t.sort_unstable();
            t.dedup();
            return self.observe_sorted(&t);
        }
        self.observe_sorted(transaction)
    }

    fn observe_sorted(&mut self, transaction: &[Item]) {
        self.seq += 1;
        if self.keeps(self.seq) {
            self.kept_bytes += std::mem::size_of_val(transaction);
            self.kept.push_back((self.seq, transaction.to_vec()));
        }
        if self.lossy_valid {
            self.lossy.observe_transaction(transaction);
        }
        // Mirror the pipeline's FIFO: seqs ≤ seq − capacity have left
        // the window. The lossy counter cannot forget, so the first
        // eviction retires the singleton fast path.
        if self.seq > self.config.capacity as u64 {
            self.lossy_valid = false;
            let horizon = self.seq - self.config.capacity as u64;
            while self.kept.front().is_some_and(|(s, _)| *s <= horizon) {
                let (_, t) = self.kept.pop_front().expect("front checked");
                self.kept_bytes -= std::mem::size_of_val(t.as_slice());
            }
        }
    }

    /// Whether arrival `seq` is sampled: splitmix64 of `(seq, seed)`
    /// against the keep threshold.
    fn keeps(&self, seq: u64) -> bool {
        if self.threshold == u64::MAX {
            return true;
        }
        let mut z = seq ^ self.config.seed;
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) < self.threshold
    }

    /// Current window size: arrivals still inside the FIFO.
    pub fn window_len(&self) -> u64 {
        self.seq.min(self.config.capacity as u64)
    }

    /// Transactions currently held by the sample.
    pub fn kept_len(&self) -> usize {
        self.kept.len()
    }

    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// Whether the sample IS the window (keep rate saturated at 1) —
    /// estimates are then exact and the stated bound is 0.
    pub fn is_exhaustive(&self) -> bool {
        self.threshold == u64::MAX
    }

    /// The ε realized by the *actual* sample size via Hoeffding
    /// (`sqrt(ln(2/δ) / 2m)`), which the stated bound is computed from:
    /// with a healthy sample it sits at or under the configured ε.
    pub fn realized_epsilon(&self) -> f64 {
        if self.is_exhaustive() {
            return 0.0;
        }
        let m = self.kept.len().max(1) as f64;
        ((2.0 / self.config.delta).ln() / (2.0 * m)).sqrt()
    }

    fn estimate_impl(&self, items: &[Item]) -> Estimate {
        let n = self.window_len();
        if n == 0 || items.is_empty() {
            return (0, 0);
        }
        // Singleton fast path: deterministic lossy-counting bound,
        // honest only before the first eviction. The counter's stream
        // is item *occurrences* — a k-item transaction advances it k
        // times — so the εN undercount guarantee is stated over
        // `observed()`, not the transaction count. On long transactions
        // that bound can exceed the sample's Hoeffding bound, so the
        // sketch answers with whichever path states the tighter one.
        let lossy = (items.len() == 1 && self.lossy_valid).then(|| {
            let est = self.lossy.estimate(items[0]);
            let bound =
                ((self.lossy.epsilon() * self.lossy.observed() as f64).ceil() as Support).min(n);
            (est, bound)
        });
        let sample_bound = if self.is_exhaustive() {
            0
        } else {
            ((self.realized_epsilon() * n as f64).ceil() as Support).min(n)
        };
        if let Some((est, bound)) = lossy {
            if bound <= sample_bound {
                return (est, bound);
            }
        }
        let mut probe = items.to_vec();
        probe.sort_unstable();
        probe.dedup();
        let matches = self
            .kept
            .iter()
            .filter(|(_, t)| is_subset(&probe, t))
            .count() as u64;
        if self.is_exhaustive() {
            // The sample is the whole window: exact, bound 0.
            return (matches, 0);
        }
        let m = self.kept.len() as u64;
        if m == 0 {
            // Nothing sampled yet: the vacuous answer.
            return (0, n);
        }
        let est = ((matches as f64 / m as f64) * n as f64).round() as Support;
        (est.min(n), sample_bound)
    }
}

/// `a ⊆ b` for sorted, deduplicated slices (linear merge).
fn is_subset(a: &[Item], b: &[Item]) -> bool {
    let mut it = b.iter();
    'outer: for x in a {
        for y in it.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

impl SupportSketch for IndicatorSketch {
    fn estimate(&self, items: &[Item]) -> Estimate {
        self.estimate_impl(items)
    }

    fn epsilon(&self) -> f64 {
        self.config.epsilon
    }

    fn cost(&self) -> usize {
        self.kept.len()
    }

    fn memory_bytes(&self) -> usize {
        self.kept_bytes
            + self.kept.len() * std::mem::size_of::<(u64, Vec<Item>)>()
            + self.lossy.tracked() * std::mem::size_of::<(Item, (u64, u64))>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(i: u64) -> Vec<Item> {
        let mut t = vec![(i % 5) as Item, 5 + (i % 3) as Item];
        if i % 2 == 0 {
            t.push(8);
        }
        t.sort_unstable();
        t
    }

    fn exact_support(window: &[Vec<Item>], items: &[Item]) -> Support {
        window.iter().filter(|t| is_subset(items, t)).count() as Support
    }

    #[test]
    fn subset_check_is_correct() {
        assert!(is_subset(&[], &[1, 2]));
        assert!(is_subset(&[2], &[1, 2, 3]));
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[4], &[1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(!is_subset(&[0], &[]));
    }

    #[test]
    fn exhaustive_sketches_are_exact_with_zero_bound() {
        // target_samples >= capacity ⇒ the sketch keeps everything.
        let mut sk = IndicatorSketch::new(SketchConfig {
            epsilon: 0.05,
            delta: 0.01,
            capacity: 200,
            seed: 1,
        });
        assert!(sk.is_exhaustive());
        let mut window: VecDeque<Vec<Item>> = VecDeque::new();
        for i in 0..500 {
            let t = txn(i);
            sk.observe(&t);
            window.push_back(t);
            if window.len() > 200 {
                window.pop_front();
            }
        }
        let w: Vec<Vec<Item>> = window.iter().cloned().collect();
        for probe in [vec![0], vec![8], vec![0, 8], vec![5, 8], vec![99]] {
            let (est, bound) = sk.estimate_impl(&probe);
            assert_eq!(bound, 0, "{probe:?}");
            assert_eq!(est, exact_support(&w, &probe), "{probe:?}");
        }
    }

    #[test]
    fn sampled_sketch_stays_within_its_stated_bound() {
        // δ = 1e-6 makes the per-query failure probability negligible;
        // the fixed seed then pins the outcome deterministically.
        let mut sk = IndicatorSketch::new(SketchConfig {
            epsilon: 0.1,
            delta: 1e-6,
            capacity: 20_000,
            seed: 42,
        });
        assert!(!sk.is_exhaustive());
        let mut window: VecDeque<Vec<Item>> = VecDeque::new();
        for i in 0..30_000u64 {
            let t = txn(i);
            sk.observe(&t);
            window.push_back(t);
            if window.len() > 20_000 {
                window.pop_front();
            }
        }
        assert_eq!(sk.window_len(), 20_000);
        assert!(sk.kept_len() < 10_000, "sample should be much smaller");
        let w: Vec<Vec<Item>> = window.iter().cloned().collect();
        for probe in [vec![0], vec![0, 8], vec![5, 8], vec![0, 5, 8], vec![99]] {
            let (est, bound) = sk.estimate_impl(&probe);
            let exact = exact_support(&w, &probe);
            assert!(
                est.abs_diff(exact) <= bound,
                "{probe:?}: est {est} exact {exact} bound {bound}"
            );
            assert!(bound <= (0.1f64 * 20_000.0).ceil() as u64 + 1);
        }
    }

    #[test]
    fn lossy_singleton_path_retires_on_first_eviction() {
        let cfg = SketchConfig {
            epsilon: 0.1,
            delta: 0.01,
            capacity: 50,
            seed: 7,
        };
        let mut sk = IndicatorSketch::new(cfg);
        for i in 0..50 {
            sk.observe(&txn(i));
        }
        assert!(sk.lossy_valid);
        let (est, bound) = sk.estimate_impl(&[8]);
        // Lossy estimates never exceed the truth; undercount ≤ εN.
        assert!(est <= 25 && est + bound >= 25, "est {est} bound {bound}");
        sk.observe(&txn(50)); // first eviction
        assert!(!sk.lossy_valid);
    }

    #[test]
    fn eviction_mirrors_the_fifo_window() {
        let mut sk = IndicatorSketch::new(SketchConfig {
            epsilon: 0.3,
            delta: 0.1,
            capacity: 10,
            seed: 9,
        });
        for i in 0..1000 {
            sk.observe(&txn(i));
            assert!(sk.kept_len() as u64 <= sk.window_len());
            if let Some((s, _)) = sk.kept.front() {
                assert!(*s > sk.seq.saturating_sub(10), "stale seq {s}");
            }
        }
    }

    #[test]
    fn replays_are_bit_identical() {
        let cfg = SketchConfig {
            epsilon: 0.1,
            delta: 0.01,
            capacity: 500,
            seed: 11,
        };
        let (mut a, mut b) = (IndicatorSketch::new(cfg), IndicatorSketch::new(cfg));
        for i in 0..2000 {
            a.observe(&txn(i));
            b.observe(&txn(i));
        }
        assert_eq!(a.kept, b.kept);
        assert_eq!(a.estimate_impl(&[0, 8]), b.estimate_impl(&[0, 8]));
    }

    #[test]
    fn memory_stays_bounded_by_the_target() {
        let cfg = SketchConfig {
            epsilon: 0.1,
            delta: 0.01,
            capacity: 100_000,
            seed: 3,
        };
        let mut sk = IndicatorSketch::new(cfg);
        for i in 0..200_000u64 {
            sk.observe(&txn(i));
        }
        // Binomial concentration: kept ≈ m_target, never ≫ it.
        assert!(sk.kept_len() < 3 * cfg.target_samples());
        assert!(sk.memory_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn zero_epsilon_is_rejected() {
        IndicatorSketch::new(SketchConfig {
            epsilon: 0.0,
            ..SketchConfig::default()
        });
    }

    #[test]
    fn empty_and_unseen_probes() {
        let mut sk = IndicatorSketch::new(SketchConfig::default());
        assert_eq!(sk.estimate_impl(&[1]), (0, 0)); // empty window
        sk.observe(&[1, 2]);
        assert_eq!(sk.estimate_impl(&[]), (0, 0));
        let (est, _) = sk.estimate_impl(&[7, 9]);
        assert_eq!(est, 0);
    }
}
