//! The sharded incremental mining pipeline.
//!
//! See the crate docs for the decomposition argument. The pipeline owns
//! the transaction window, exact item counts, the live [`Plt`], the shard
//! bounds, and one [`MiningResult`] fragment per shard; applying a
//! [`Delta`] updates the structure in place, re-mines only the dirty
//! shards (in parallel, one [`ArenaPool`] per rayon worker), and merges
//! the fragments into a fresh snapshot.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use plt_core::arena::ArenaPool;
use plt_core::error::{PltError, Result};
use plt_core::hash::{FxHashMap, FxHashSet};
use plt_core::item::{Item, Rank, Support};
use plt_core::miner::MiningResult;
use plt_core::plt::Plt;
use plt_core::ranking::{ItemRanking, RankPolicy};
use plt_obs::Obs;
use plt_parallel::project_marked;
use rayon::prelude::*;

/// Default number of rank-range shards. Small enough that fragments stay
/// chunky (merge cost is per-itemset, not per-shard), large enough that a
/// localized delta leaves most of the tree untouched.
pub const DEFAULT_SHARD_COUNT: usize = 16;

/// Configuration for a [`ShardedPipeline`].
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Number of rank-range shards to partition the frequent ranks into.
    /// Clamped to `1..=ranking.len()` at rebuild time.
    pub shard_count: usize,
    /// Absolute minimum support (must be ≥ 1).
    pub min_support: Support,
    /// Item ordering policy for the ranking.
    pub rank_policy: RankPolicy,
    /// Optional sliding-window capacity: when set, applying an add beyond
    /// capacity evicts the oldest transaction first (counted as a removal
    /// for dirty-shard purposes). `None` means the window is unbounded.
    pub capacity: Option<usize>,
    /// When true, [`ShardedPipeline::apply`] does *not* merge the shard
    /// fragments into the snapshot after re-mining; `result()` stays
    /// empty. Set by storage layers (plt-store's `DurablePipeline`) that
    /// spill cold fragments to disk and assemble query answers per shard,
    /// where an eager merge would force every spilled shard resident.
    pub defer_merge: bool,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shard_count: DEFAULT_SHARD_COUNT,
            min_support: 2,
            rank_policy: RankPolicy::Lexicographic,
            capacity: None,
            defer_merge: false,
        }
    }
}

/// A batch of transaction-level changes to apply atomically: removals
/// first, then adds (with capacity eviction interleaved per add).
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// Transactions entering the database.
    pub adds: Vec<Vec<Item>>,
    /// Transactions leaving the database. Each must currently be present
    /// (compared as an item *set*: order and duplicates are ignored).
    pub removes: Vec<Vec<Item>>,
}

impl Delta {
    /// A pure-insert delta.
    pub fn add(adds: Vec<Vec<Item>>) -> Delta {
        Delta {
            adds,
            removes: Vec::new(),
        }
    }

    /// Total number of transaction-level changes in the batch.
    pub fn len(&self) -> usize {
        self.adds.len() + self.removes.len()
    }

    /// True when the delta contains no changes.
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.removes.is_empty()
    }
}

/// What one [`ShardedPipeline::apply`] call did, with phase timings.
#[derive(Debug, Clone, Default)]
pub struct RebuildReport {
    /// Number of shards the tree is currently partitioned into.
    pub total_shards: usize,
    /// How many shards the delta dirtied (and were therefore re-mined).
    pub dirty_shards: usize,
    /// True when the frequent-item set drifted: the pipeline re-ranked,
    /// rebuilt the PLT from the window and re-mined every shard.
    pub reranked: bool,
    /// Time spent updating the window, counts and PLT structure.
    pub update: Duration,
    /// Time spent projecting and re-mining the dirty shards (wall clock
    /// of the parallel section, projection included).
    pub remine: Duration,
    /// Time spent merging the fragments into the snapshot.
    pub merge: Duration,
    /// Per-shard re-mine durations, `(shard index, time)`, sorted by
    /// shard index. CPU time inside the parallel section, so the entries
    /// can sum to more than `remine` wall clock.
    pub shard_timings: Vec<(usize, Duration)>,
}

impl RebuildReport {
    /// Total rebuild wall clock (update + remine + merge).
    pub fn total(&self) -> Duration {
        self.update + self.remine + self.merge
    }
}

/// Sharded, incrementally updatable mining pipeline.
///
/// Invariants between calls:
/// - `window` holds every live transaction, normalized (sorted, deduped);
/// - `counts` is the exact item→frequency map of the window;
/// - the set of ranked items equals the set of items with
///   `counts[item] >= min_support` (enforced by the drift check);
/// - `plt` contains exactly the window's projections under that ranking;
/// - every *clean* fragment `s` equals the frequent itemsets whose last
///   (maximum) rank falls in `(bounds[s], bounds[s+1]]`.
///
/// # Errors
///
/// [`apply`](Self::apply) fails on a removal of an absent transaction
/// ([`PltError::NotPresent`]). The failure is **not** transactional:
/// changes earlier in the batch remain applied and the structure stays
/// internally consistent, but callers who need atomicity should validate
/// removals before applying.
pub struct ShardedPipeline {
    config: ShardConfig,
    window: VecDeque<Vec<Item>>,
    counts: FxHashMap<Item, Support>,
    plt: Plt,
    /// `bounds.len() == shards + 1`; shard `s` covers ranks
    /// `(bounds[s], bounds[s+1]]`.
    bounds: Vec<Rank>,
    /// One fragment per shard; `None` when the fragment has been evicted
    /// by a storage layer (spilled to disk). A dirty shard's fragment is
    /// recomputed from the PLT regardless, so eviction never loses data.
    fragments: Vec<Option<MiningResult>>,
    dirty: Vec<bool>,
    merged: MiningResult,
    last_report: RebuildReport,
}

fn normalize(transaction: &[Item]) -> Vec<Item> {
    let mut t = transaction.to_vec();
    t.sort_unstable();
    t.dedup();
    t
}

impl ShardedPipeline {
    /// Builds the pipeline over an initial batch of transactions and mines
    /// it (all shards start dirty). Rejects a zero minimum support.
    pub fn new(initial: &[Vec<Item>], config: ShardConfig) -> Result<ShardedPipeline> {
        if config.min_support == 0 {
            return Err(PltError::ZeroMinSupport);
        }
        let ranking = ItemRanking::from_frequent_items(Vec::new(), config.rank_policy);
        let plt = Plt::new(ranking, config.min_support)?;
        let mut pipeline = ShardedPipeline {
            window: VecDeque::new(),
            counts: FxHashMap::default(),
            plt,
            bounds: vec![0, 0],
            fragments: vec![None],
            dirty: vec![true],
            merged: MiningResult::new(config.min_support, 0),
            last_report: RebuildReport::default(),
            config,
        };
        // The initial build is just a big delta against the empty window:
        // the drift check sees every frequent item unranked and triggers
        // the full rank-and-rebuild path.
        pipeline.apply(Delta::add(initial.to_vec()))?;
        Ok(pipeline)
    }

    /// Applies a delta without observability. See [`apply_obs`](Self::apply_obs).
    pub fn apply(&mut self, delta: Delta) -> Result<RebuildReport> {
        self.apply_obs(delta, &mut Obs::none())
    }

    /// Applies a batch of adds/removes, re-mines the dirty shards and
    /// refreshes the merged snapshot. Returns the rebuild report (also
    /// retrievable later via [`last_report`](Self::last_report)).
    pub fn apply_obs(&mut self, delta: Delta, obs: &mut Obs) -> Result<RebuildReport> {
        let started = Instant::now();
        let mut touched: FxHashSet<Rank> = FxHashSet::default();

        for raw in &delta.removes {
            let t = normalize(raw);
            let pos = self
                .window
                .iter()
                .position(|w| *w == t)
                .ok_or(PltError::NotPresent)?;
            self.window.remove(pos);
            Self::decrement_counts(&mut self.counts, &t);
            touched.extend(self.plt.ranking().project(&t));
            self.plt.remove_transaction(&t)?;
        }
        for raw in &delta.adds {
            let t = normalize(raw);
            match self.config.capacity {
                Some(0) => continue, // degenerate window: retain nothing
                Some(cap) if self.window.len() >= cap => {
                    let old = self.window.pop_front().expect("window is non-empty");
                    Self::decrement_counts(&mut self.counts, &old);
                    touched.extend(self.plt.ranking().project(&old));
                    self.plt.remove_transaction(&old)?;
                }
                _ => {}
            }
            for &item in &t {
                *self.counts.entry(item).or_insert(0) += 1;
            }
            touched.extend(self.plt.ranking().project(&t));
            self.plt.insert_transaction(&t)?;
            self.window.push_back(t);
        }

        let reranked = self.ranking_drifted();
        if reranked {
            self.rebuild_structure()?;
        } else {
            for &r in &touched {
                let s = self.shard_of(r);
                self.dirty[s] = true;
            }
        }
        let update = started.elapsed();

        let (remine, shard_timings) = self.remine_dirty();

        let merge_started = Instant::now();
        if !self.config.defer_merge {
            self.merged = self.merge_fragments();
        }
        let merge = merge_started.elapsed();

        obs.span("shard/update", update);
        obs.span("shard/remine", remine);
        for &(_, d) in &shard_timings {
            obs.span("shard/remine/shard", d);
        }
        obs.span("shard/merge", merge);
        obs.counter("shard.rebuilds", 1);
        obs.counter("shard.shards_remined", shard_timings.len() as u64);
        if reranked {
            obs.counter("shard.reranks", 1);
        }
        obs.gauge("shard.total", self.dirty.len() as u64);

        let report = RebuildReport {
            total_shards: self.dirty.len(),
            dirty_shards: shard_timings.len(),
            reranked,
            update,
            remine,
            merge,
            shard_timings,
        };
        self.last_report = report.clone();
        Ok(report)
    }

    /// The merged mining result over the current window. Matches what a
    /// full re-mine from scratch at the same minimum support produces.
    pub fn result(&self) -> &MiningResult {
        &self.merged
    }

    /// The live PLT (rebuilt in place on every delta).
    pub fn plt(&self) -> &Plt {
        &self.plt
    }

    /// Number of transactions currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when the window holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Current number of shards.
    pub fn shard_count(&self) -> usize {
        self.dirty.len()
    }

    /// The configuration the pipeline was built with.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// Report from the most recent rebuild.
    pub fn last_report(&self) -> &RebuildReport {
        &self.last_report
    }

    fn decrement_counts(counts: &mut FxHashMap<Item, Support>, transaction: &[Item]) {
        for &item in transaction {
            if let Some(c) = counts.get_mut(&item) {
                *c -= 1;
                if *c == 0 {
                    counts.remove(&item);
                }
            }
        }
    }

    /// True when the set of frequent items no longer matches the ranked
    /// set. Deliberately compares *sets*, not supports or rank order:
    /// stored supports change on every delta, and rank order does not
    /// change the mined result — only vocabulary changes invalidate the
    /// stored vectors and shard assignments.
    fn ranking_drifted(&self) -> bool {
        let min_support = self.config.min_support;
        let mut frequent = 0usize;
        for (&item, &count) in &self.counts {
            if count >= min_support {
                frequent += 1;
                if self.plt.ranking().rank(item).is_none() {
                    return true;
                }
            }
        }
        frequent != self.plt.ranking().len()
    }

    /// Re-ranks from the current counts, rebuilds the PLT from the window,
    /// recomputes shard bounds and marks every shard dirty.
    fn rebuild_structure(&mut self) -> Result<()> {
        let frequent: Vec<(Item, Support)> = self
            .counts
            .iter()
            .filter(|&(_, &c)| c >= self.config.min_support)
            .map(|(&item, &c)| (item, c))
            .collect();
        let ranking = ItemRanking::from_frequent_items(frequent, self.config.rank_policy);
        let mut plt = Plt::new(ranking, self.config.min_support)?;
        for t in &self.window {
            plt.insert_transaction(t)?;
        }
        self.plt = plt;

        let n = self.plt.ranking().len();
        let shards = self.config.shard_count.clamp(1, n.max(1));
        self.bounds = (0..=shards).map(|s| (s * n / shards) as Rank).collect();
        self.fragments = (0..shards).map(|_| None).collect();
        self.dirty = vec![true; shards];
        Ok(())
    }

    /// Shard index covering rank `r` (shard `s` covers `(bounds[s], bounds[s+1]]`).
    fn shard_of(&self, r: Rank) -> usize {
        match self.bounds.binary_search(&r) {
            Ok(i) => i - 1,
            Err(i) => i - 1,
        }
    }

    /// Projects the dirty rank ranges and re-mines each dirty shard in
    /// parallel. Returns the section's wall clock and per-shard timings.
    fn remine_dirty(&mut self) -> (Duration, Vec<(usize, Duration)>) {
        let dirty: Vec<usize> = (0..self.dirty.len()).filter(|&s| self.dirty[s]).collect();
        if dirty.is_empty() {
            return (Duration::ZERO, Vec::new());
        }
        let t0 = Instant::now();

        let n = self.plt.ranking().len();
        let mut marked = vec![false; n + 1];
        for &s in &dirty {
            for r in self.bounds[s] + 1..=self.bounds[s + 1] {
                marked[r as usize] = true;
            }
        }
        let projections = project_marked(&self.plt, &marked);

        let plt = &self.plt;
        let bounds = &self.bounds;
        let min_support = self.config.min_support;
        let mined: Vec<(usize, MiningResult, Duration)> = dirty
            .par_iter()
            .fold(
                || (ArenaPool::new(), Vec::new()),
                |(mut pool, mut acc), &s| {
                    let shard_started = Instant::now();
                    let mut frag = MiningResult::builder(min_support, plt.num_transactions());
                    for r in bounds[s] + 1..=bounds[s + 1] {
                        let support = projections.support(r);
                        if support < min_support {
                            continue;
                        }
                        frag.push([plt.ranking().item(r)], support);
                        let conditional = projections.conditional(r);
                        if !conditional.is_empty() {
                            pool.mine_conditional(conditional.iter(), plt, &[r], &mut frag);
                        }
                    }
                    acc.push((s, frag.finish(), shard_started.elapsed()));
                    (pool, acc)
                },
            )
            .map(|(_, acc)| acc)
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });

        let mut timings = Vec::with_capacity(mined.len());
        for (s, frag, d) in mined {
            self.fragments[s] = Some(frag);
            self.dirty[s] = false;
            timings.push((s, d));
        }
        timings.sort_unstable_by_key(|&(s, _)| s);
        (t0.elapsed(), timings)
    }

    fn merge_fragments(&self) -> MiningResult {
        let mut merged =
            MiningResult::builder(self.config.min_support, self.plt.num_transactions());
        for frag in &self.fragments {
            debug_assert!(
                frag.is_some(),
                "merging with an evicted fragment loses itemsets; \
                 evicting callers must set defer_merge"
            );
            if let Some(frag) = frag {
                merged.extend_from(frag);
            }
        }
        merged.finish()
    }
}

/// Storage hooks: fragment eviction and crash recovery.
/// Consumed by plt-store's `DurablePipeline`; of no use to in-memory
/// callers (the pipeline manages its fragments itself).
impl ShardedPipeline {
    /// The live transaction window, oldest first. Transactions are stored
    /// normalized (sorted, deduped).
    pub fn window(&self) -> impl ExactSizeIterator<Item = &[Item]> {
        self.window.iter().map(Vec::as_slice)
    }

    /// Shard index covering rank `r` under the current bounds.
    pub fn shard_of_rank(&self, r: Rank) -> usize {
        self.shard_of(r)
    }

    /// True when shard `s`'s fragment is stale (will be re-mined on the
    /// next apply).
    pub fn is_dirty(&self, s: usize) -> bool {
        self.dirty[s]
    }

    /// Shard `s`'s fragment, `None` if evicted.
    pub fn fragment(&self, s: usize) -> Option<&MiningResult> {
        self.fragments[s].as_ref()
    }

    /// Removes shard `s`'s fragment from memory and returns it, leaving a
    /// spilled hole. Only meaningful under `defer_merge` — see
    /// [`ShardConfig::defer_merge`].
    pub fn evict_fragment(&mut self, s: usize) -> Option<MiningResult> {
        self.fragments[s].take()
    }

    /// Rebuilds a pipeline from checkpointed state: the window, the exact
    /// ranking in force at checkpoint time, and per-shard fragments
    /// (`None` for shards whose fragments stayed on disk). Shards with no
    /// fragment are *not* dirty — their contents live in segment files;
    /// pass `dirty` to mark shards whose fragments were stale at the
    /// checkpoint.
    ///
    /// The PLT is reconstructed by re-projecting the window under the
    /// given ranking, which is deterministic (Lemma 4.1.2), so the
    /// rebuilt structure is byte-equivalent to the one that was
    /// checkpointed.
    pub fn restore(
        window: Vec<Vec<Item>>,
        ranking: ItemRanking,
        config: ShardConfig,
        fragments: Vec<Option<MiningResult>>,
        dirty: Vec<bool>,
    ) -> Result<ShardedPipeline> {
        if config.min_support == 0 {
            return Err(PltError::ZeroMinSupport);
        }
        let mut counts: FxHashMap<Item, Support> = FxHashMap::default();
        let mut plt = Plt::new(ranking, config.min_support)?;
        let mut normalized: VecDeque<Vec<Item>> = VecDeque::with_capacity(window.len());
        for raw in window {
            let t = normalize(&raw);
            for &item in &t {
                *counts.entry(item).or_insert(0) += 1;
            }
            plt.insert_transaction(&t)?;
            normalized.push_back(t);
        }
        let n = plt.ranking().len();
        let shards = fragments.len().max(1);
        assert_eq!(
            dirty.len(),
            fragments.len(),
            "fragment/dirty length mismatch"
        );
        let bounds: Vec<Rank> = (0..=shards).map(|s| (s * n / shards) as Rank).collect();
        let mut pipeline = ShardedPipeline {
            window: normalized,
            counts,
            plt,
            bounds,
            fragments,
            dirty,
            merged: MiningResult::new(config.min_support, 0),
            last_report: RebuildReport::default(),
            config,
        };
        if pipeline.fragments.is_empty() {
            pipeline.fragments = vec![None];
            pipeline.dirty = vec![true];
        }
        if !config.defer_merge {
            // An eager-merge pipeline has no disk tier to serve holes
            // from: re-mine every missing fragment, then merge via a
            // no-op apply. Deferred-merge callers skip this — their
            // fragments may intentionally stay on disk.
            for s in 0..pipeline.fragments.len() {
                if pipeline.fragments[s].is_none() {
                    pipeline.dirty[s] = true;
                }
            }
            pipeline.apply(Delta::default())?;
        }
        Ok(pipeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plt_core::miner::{BruteForceMiner, Miner};
    use std::collections::BTreeMap;

    fn support_map(result: &MiningResult) -> BTreeMap<Vec<Item>, Support> {
        result
            .iter()
            .map(|(is, s)| (is.items().to_vec(), s))
            .collect()
    }

    fn full_mine(transactions: &[Vec<Item>], min_support: Support) -> MiningResult {
        BruteForceMiner.mine(transactions, min_support)
    }

    fn assert_matches_full(pipeline: &ShardedPipeline, window: &[Vec<Item>]) {
        let full = full_mine(window, pipeline.config().min_support);
        assert_eq!(
            support_map(pipeline.result()),
            support_map(&full),
            "incremental result diverged from full re-mine"
        );
        assert_eq!(
            pipeline.result().num_transactions(),
            window.len() as u64,
            "transaction count diverged"
        );
    }

    fn base() -> Vec<Vec<Item>> {
        vec![
            vec![1, 2, 3],
            vec![1, 2],
            vec![2, 3, 4],
            vec![1, 3, 4],
            vec![2, 4],
            vec![1, 2, 3, 4],
        ]
    }

    #[test]
    fn initial_build_matches_full_mine() {
        let pipeline = ShardedPipeline::new(&base(), ShardConfig::default()).unwrap();
        assert_matches_full(&pipeline, &base());
    }

    #[test]
    fn zero_min_support_rejected() {
        let config = ShardConfig {
            min_support: 0,
            ..ShardConfig::default()
        };
        assert!(matches!(
            ShardedPipeline::new(&[], config),
            Err(PltError::ZeroMinSupport)
        ));
    }

    #[test]
    fn adds_update_result_exactly() {
        let mut window = base();
        let mut pipeline = ShardedPipeline::new(&window, ShardConfig::default()).unwrap();
        let delta = vec![vec![1, 4], vec![2, 3]];
        pipeline.apply(Delta::add(delta.clone())).unwrap();
        window.extend(delta);
        assert_matches_full(&pipeline, &window);
    }

    #[test]
    fn removes_update_result_exactly() {
        let window = base();
        let mut pipeline = ShardedPipeline::new(&window, ShardConfig::default()).unwrap();
        pipeline
            .apply(Delta {
                adds: vec![],
                removes: vec![vec![2, 3, 4]],
            })
            .unwrap();
        let remaining: Vec<Vec<Item>> = window
            .iter()
            .filter(|t| *t != &vec![2, 3, 4])
            .cloned()
            .collect();
        assert_matches_full(&pipeline, &remaining);
    }

    #[test]
    fn removing_absent_transaction_errors() {
        let mut pipeline = ShardedPipeline::new(&base(), ShardConfig::default()).unwrap();
        let err = pipeline
            .apply(Delta {
                adds: vec![],
                removes: vec![vec![7, 8, 9]],
            })
            .unwrap_err();
        assert!(matches!(err, PltError::NotPresent));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let config = ShardConfig {
            capacity: Some(4),
            ..ShardConfig::default()
        };
        let mut pipeline = ShardedPipeline::new(&base()[..4], config).unwrap();
        pipeline
            .apply(Delta::add(vec![vec![2, 4], vec![1, 2, 3, 4]]))
            .unwrap();
        // Window of 4: the two oldest base transactions were evicted.
        let window: Vec<Vec<Item>> = base()[2..].to_vec();
        assert_eq!(pipeline.len(), 4);
        assert_matches_full(&pipeline, &window);
    }

    #[test]
    fn vocabulary_drift_triggers_rerank() {
        let mut pipeline = ShardedPipeline::new(&base(), ShardConfig::default()).unwrap();
        // Item 9 is new; two adds push it to min_support and force a re-rank.
        let r1 = pipeline.apply(Delta::add(vec![vec![9, 1]])).unwrap();
        assert!(!r1.reranked, "one occurrence of item 9 is still infrequent");
        let r2 = pipeline.apply(Delta::add(vec![vec![9, 2]])).unwrap();
        assert!(r2.reranked, "item 9 reached min support: vocabulary drift");
        assert_eq!(r2.dirty_shards, r2.total_shards);
        let mut window = base();
        window.push(vec![1, 9]);
        window.push(vec![2, 9]);
        assert_matches_full(&pipeline, &window);
    }

    #[test]
    fn clean_shards_are_not_remined() {
        // Many distinct items so the rank space is wide; a delta touching
        // only low items must leave high-rank shards clean.
        let mut window: Vec<Vec<Item>> = Vec::new();
        for i in 0..40u32 {
            window.push(vec![i, i + 1, (i + 2) % 40]);
            window.push(vec![i, (i + 3) % 40]);
        }
        let config = ShardConfig {
            shard_count: 8,
            min_support: 2,
            ..ShardConfig::default()
        };
        let mut pipeline = ShardedPipeline::new(&window, config).unwrap();
        let report = pipeline.apply(Delta::add(vec![vec![0, 1, 2]])).unwrap();
        assert!(!report.reranked);
        assert!(
            report.dirty_shards < report.total_shards,
            "a localized delta dirtied {}/{} shards",
            report.dirty_shards,
            report.total_shards
        );
        window.push(vec![0, 1, 2]);
        assert_matches_full(&pipeline, &window);
    }

    #[test]
    fn three_shards_agree() {
        let config = ShardConfig {
            shard_count: 3,
            ..ShardConfig::default()
        };
        let mut window = base();
        let mut pipeline = ShardedPipeline::new(&window, config).unwrap();
        pipeline
            .apply(Delta::add(vec![vec![1, 3], vec![2, 4]]))
            .unwrap();
        window.push(vec![1, 3]);
        window.push(vec![2, 4]);
        assert_matches_full(&pipeline, &window);
    }

    #[test]
    fn report_timings_cover_dirty_shards() {
        let mut pipeline = ShardedPipeline::new(&base(), ShardConfig::default()).unwrap();
        let report = pipeline.apply(Delta::add(vec![vec![1, 2, 4]])).unwrap();
        assert_eq!(report.shard_timings.len(), report.dirty_shards);
        for w in report.shard_timings.windows(2) {
            assert!(w[0].0 < w[1].0, "shard timings sorted by shard index");
        }
    }

    #[test]
    fn empty_delta_is_a_noop_rebuild() {
        let mut pipeline = ShardedPipeline::new(&base(), ShardConfig::default()).unwrap();
        let before = support_map(pipeline.result());
        let report = pipeline.apply(Delta::default()).unwrap();
        assert_eq!(report.dirty_shards, 0);
        assert!(!report.reranked);
        assert_eq!(support_map(pipeline.result()), before);
    }
}
