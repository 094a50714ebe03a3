//! `DurablePipeline`: a [`ShardedPipeline`] wired to a [`Store`].
//!
//! The division of labour:
//!
//! * the sharded pipeline owns the in-memory structures (window, counts,
//!   PLT, fragments) and the incremental re-mine;
//! * the store owns the files (WAL, segments, manifest);
//! * this type owns the *policy*: WAL-before-apply, which shards are
//!   resident, when to spill, when to checkpoint, and how a query routes
//!   between a resident fragment and an mmap segment.
//!
//! Shards key the rank space by the vector-sum (Lemma 4.1.1: a vector's
//! sum is the rank of its last item), so "cold shard" means a rank range
//! no recent delta touched — exactly the fragments worth pushing to
//! disk. The pipeline runs with `defer_merge`: fragments are never
//! force-merged, so a spilled shard costs no memory until a query or a
//! materialized snapshot needs it.

use std::io;
use std::path::Path;
use std::time::Instant;

use plt_core::error::PltError;
use plt_core::item::{Item, Rank, Support};
use plt_core::miner::{MiningResult, ResultBuilder};
use plt_core::posvec::PositionVector;
use plt_core::ranking::ItemRanking;
use plt_obs::Obs;
use plt_shard::{Delta, RebuildReport, ShardConfig, ShardedPipeline};

use crate::segment::ShardEntries;
use crate::store::{CheckpointInput, Recovered, Store, StoreOptions, StoreStats};

/// Errors from the durable pipeline: storage or mining.
#[derive(Debug)]
pub enum StoreError {
    /// File-level failure.
    Io(io::Error),
    /// Mining/structure failure.
    Plt(PltError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage: {e}"),
            StoreError::Plt(e) => write!(f, "pipeline: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<PltError> for StoreError {
    fn from(e: PltError) -> StoreError {
        StoreError::Plt(e)
    }
}

/// Policy knobs for a [`DurablePipeline`].
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// File-level options (fsync batching, compaction, fault injection).
    pub store: StoreOptions,
    /// Resident-shard budget: after each apply, the coldest fragments
    /// beyond this count are spilled to segments and evicted. `None`
    /// keeps everything resident (durability without the memory cap).
    pub resident_shards: Option<usize>,
    /// Maintain the eagerly merged snapshot (`result()`). Disable for
    /// datasets bigger than memory: queries then go through
    /// [`DurablePipeline::support_of`], which touches only one shard.
    pub materialize_merged: bool,
    /// Checkpoint automatically every this many applies. `None` means
    /// only explicit [`DurablePipeline::checkpoint`] calls.
    pub checkpoint_every: Option<u64>,
}

impl Default for DurableOptions {
    fn default() -> DurableOptions {
        DurableOptions {
            store: StoreOptions::default(),
            resident_shards: None,
            materialize_merged: true,
            checkpoint_every: Some(32),
        }
    }
}

/// What recovery did at open.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// Transactions restored from the window snapshot.
    pub window_transactions: usize,
    /// Delta records replayed from the WAL tail.
    pub replayed_deltas: u64,
    /// Wall-clock milliseconds for the whole open-and-replay.
    pub recovery_ms: u64,
}

/// A sharded incremental pipeline with a durable spine. See the module
/// docs for the protocol.
pub struct DurablePipeline {
    pipeline: ShardedPipeline,
    store: Store,
    options: DurableOptions,
    merged: MiningResult,
    /// Shards whose fragments changed since the last checkpoint.
    changed: Vec<bool>,
    /// Apply counter at each shard's last re-mine (cold = small).
    last_touch: Vec<u64>,
    applies: u64,
    applies_since_checkpoint: u64,
    recovery: RecoveryReport,
}

impl DurablePipeline {
    /// Opens a data directory: fresh start when empty, full recovery
    /// (manifest → window + ranking + segments, then WAL-tail replay)
    /// when not. `config.defer_merge` is forced on — merging is this
    /// type's job.
    pub fn open(
        dir: &Path,
        mut config: ShardConfig,
        options: DurableOptions,
    ) -> Result<DurablePipeline, StoreError> {
        config.defer_merge = true;
        let started = Instant::now();
        let (store, recovered) = Store::open(dir, options.store)?;
        let Recovered {
            manifest,
            window,
            tail,
        } = recovered;

        let (pipeline, window_transactions) = match &manifest {
            Some(m) => {
                if m.min_support != config.min_support {
                    return Err(StoreError::Io(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "data dir was written at min_support {}, reopened with {}",
                            m.min_support, config.min_support
                        ),
                    )));
                }
                let n = window.len();
                let pipeline = ShardedPipeline::restore(
                    window,
                    m.ranking(),
                    config,
                    vec![None; m.shard_count],
                    m.dirty.clone(),
                )?;
                (pipeline, n)
            }
            None => (ShardedPipeline::new(&[], config)?, 0),
        };

        let shard_count = pipeline.shard_count();
        let mut durable = DurablePipeline {
            pipeline,
            store,
            options,
            merged: MiningResult::new(config.min_support, 0),
            changed: vec![false; shard_count],
            last_touch: vec![0; shard_count],
            applies: 0,
            applies_since_checkpoint: 0,
            recovery: RecoveryReport::default(),
        };

        // Replay the tail: every delta past the checkpoint, in order.
        // Re-ranks/evictions/checkpoint markers are informational — the
        // pipeline re-derives their effects deterministically.
        let mut replayed = 0u64;
        for rec in &tail {
            if let Some(delta) = rec.record.to_delta() {
                durable.apply_inner(delta, &mut Obs::none(), false)?;
                replayed += 1;
            }
        }
        if durable.options.materialize_merged {
            durable.rebuild_merged();
        }
        let ms = started.elapsed().as_millis() as u64;
        durable.store.set_recovery(ms, replayed);
        durable.recovery = RecoveryReport {
            window_transactions,
            replayed_deltas: replayed,
            recovery_ms: ms,
        };
        Ok(durable)
    }

    /// Applies a delta durably: WAL append first, then the in-memory
    /// apply, then spill/checkpoint policy.
    pub fn apply(&mut self, delta: Delta) -> Result<RebuildReport, StoreError> {
        self.apply_obs(delta, &mut Obs::none())
    }

    /// [`apply`](Self::apply) with observability spans/counters.
    pub fn apply_obs(&mut self, delta: Delta, obs: &mut Obs) -> Result<RebuildReport, StoreError> {
        let report = self.apply_inner(delta, obs, true)?;
        if self.options.materialize_merged {
            self.rebuild_merged();
        }
        if let Some(every) = self.options.checkpoint_every {
            if self.applies_since_checkpoint >= every {
                self.checkpoint()?;
            }
        }
        let stats = self.store.stats();
        obs.gauge("store.wal_bytes", stats.wal_bytes);
        obs.gauge("store.segments", stats.segments);
        obs.gauge("store.segment_bytes", stats.segment_bytes);
        obs.gauge("store.resident_shards", self.resident_shards() as u64);
        Ok(report)
    }

    fn apply_inner(
        &mut self,
        delta: Delta,
        obs: &mut Obs,
        log: bool,
    ) -> Result<RebuildReport, StoreError> {
        if log {
            self.store.append_delta(&delta)?;
        }
        let report = self.pipeline.apply_obs(delta, obs)?;
        self.applies += 1;
        self.applies_since_checkpoint += 1;

        let n = self.pipeline.shard_count();
        if report.reranked {
            // New rank function ⇒ every stored canonical vector is void.
            self.changed = vec![true; n];
            self.last_touch = vec![self.applies; n];
            self.store.invalidate_segments();
            if log {
                self.store
                    .note_rerank(self.pipeline.plt().ranking().len() as u64)?;
            }
        } else {
            self.changed.resize(n, false);
            self.last_touch.resize(n, 0);
            for &(s, _) in &report.shard_timings {
                self.changed[s] = true;
                self.last_touch[s] = self.applies;
            }
        }

        self.enforce_budget()?;
        Ok(report)
    }

    /// Spills the coldest clean fragments beyond the resident budget.
    fn enforce_budget(&mut self) -> Result<(), StoreError> {
        let Some(budget) = self.options.resident_shards else {
            return Ok(());
        };
        let n = self.pipeline.shard_count();
        let mut resident: Vec<usize> = (0..n)
            .filter(|&s| self.pipeline.fragment(s).is_some() && !self.pipeline.is_dirty(s))
            .collect();
        if resident.len() <= budget {
            return Ok(());
        }
        // Coldest first: smallest last-touch apply counter.
        resident.sort_by_key(|&s| self.last_touch[s]);
        let victims: Vec<usize> = resident[..resident.len() - budget].to_vec();

        // Shards whose on-disk copy is stale (or absent) need a spill
        // segment; the rest can be dropped outright.
        let ranking = self.pipeline.plt().ranking().clone();
        let mut to_write: Vec<ShardEntries> = Vec::new();
        for &s in &victims {
            if self.changed[s] || !self.store.has_persisted(s) {
                let frag = self.pipeline.fragment(s).expect("victim is resident");
                to_write.push(fragment_entries(s, frag, &ranking));
            }
        }
        self.store.spill(self.pipeline.len() as u64, &to_write)?;
        for sh in &to_write {
            self.changed[sh.shard as usize] = false;
        }
        for &s in &victims {
            self.pipeline.evict_fragment(s);
        }
        Ok(())
    }

    /// Merges every shard into the materialized snapshot, loading
    /// spilled fragments transiently from their segments.
    fn rebuild_merged(&mut self) {
        let min_support = self.pipeline.config().min_support;
        let num_transactions = self.pipeline.len() as u64;
        let ranking = self.pipeline.plt().ranking();
        let mut merged = MiningResult::builder(min_support, num_transactions);
        for s in 0..self.pipeline.shard_count() {
            if let Some(frag) = self.pipeline.fragment(s) {
                merged.extend_from(frag);
            } else if let Some(entries) = self.store.load_shard(s) {
                entries_fragment(&entries, ranking, &mut merged);
            }
            // A shard that is neither resident nor persisted holds
            // nothing (fresh shard before its first re-mine).
        }
        self.merged = merged.finish();
    }

    /// Publishes a checkpoint: every changed or never-persisted fragment
    /// goes into a segment, the window is snapshotted, the WAL rotates,
    /// the manifest lands atomically.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        let n = self.pipeline.shard_count();
        let ranking = self.pipeline.plt().ranking().clone();
        let mut persist = Vec::new();
        for s in 0..n {
            if self.changed[s] || !self.store.has_persisted(s) {
                if let Some(frag) = self.pipeline.fragment(s) {
                    persist.push(fragment_entries(s, frag, &ranking));
                }
                // Evicted + changed cannot happen (eviction clears
                // `changed`); evicted + never-persisted cannot either
                // (eviction writes the spill segment first).
            }
        }
        let window: Vec<&[Item]> = self.pipeline.window().collect();
        let input = CheckpointInput {
            window,
            ranking_items: ranking
                .entries()
                .map(|(item, _, sup)| (item, sup))
                .collect(),
            policy: ranking.policy(),
            min_support: self.pipeline.config().min_support,
            shard_count: n,
            dirty: (0..n).map(|s| self.pipeline.is_dirty(s)).collect(),
            persist,
        };
        self.store.checkpoint(input)?;
        self.changed = vec![false; n];
        self.applies_since_checkpoint = 0;
        Ok(())
    }

    /// Support of an itemset, routed per shard: resident fragment when
    /// the shard is hot, mmap segment point-lookup when it is spilled.
    /// Exact for every itemset over ranked items; `None` means "not
    /// frequent".
    pub fn support_of(&self, items: &[Item]) -> Option<Support> {
        let mut items = items.to_vec();
        items.sort_unstable();
        items.dedup();
        if items.is_empty() {
            return None;
        }
        let ranking = self.pipeline.plt().ranking();
        let vector = PositionVector::canonical_for(&items, ranking)?;
        let shard = self.pipeline.shard_of_rank(vector.sum());
        match self.pipeline.fragment(shard) {
            Some(frag) => frag.support(&items),
            None => self.store.lookup(shard, vector.positions()),
        }
    }

    /// The materialized snapshot (empty when `materialize_merged` is
    /// off — use [`support_of`](Self::support_of) then).
    pub fn result(&self) -> &MiningResult {
        &self.merged
    }

    /// The underlying sharded pipeline (read-only).
    pub fn pipeline(&self) -> &ShardedPipeline {
        &self.pipeline
    }

    /// Fragments currently held in memory.
    pub fn resident_shards(&self) -> usize {
        (0..self.pipeline.shard_count())
            .filter(|&s| self.pipeline.fragment(s).is_some())
            .count()
    }

    /// Storage counters.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// What recovery did at open.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Transactions in the window.
    pub fn len(&self) -> usize {
        self.pipeline.len()
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.pipeline.is_empty()
    }

    /// Forces the WAL batch to disk without waiting for the next
    /// batched fsync.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.store.sync()?;
        Ok(())
    }
}

/// Converts a fragment into segment entries: each itemset keyed by its
/// canonical position vector under `ranking` (Lemma 4.1.2 makes this a
/// bijection, so the segment can answer exact point lookups).
fn fragment_entries(shard: usize, frag: &MiningResult, ranking: &ItemRanking) -> ShardEntries {
    let entries = frag
        .iter()
        .map(|(itemset, support)| {
            let v = PositionVector::canonical_for(itemset.items(), ranking)
                .expect("fragment itemsets contain only ranked items");
            (v.positions().to_vec(), support)
        })
        .collect();
    ShardEntries {
        shard: shard as u32,
        entries,
    }
}

/// Inverse of [`fragment_entries`]: decodes segment entries under
/// `ranking` into `out` (prefix sums of the positions are the ranks,
/// Lemma 4.1.1).
fn entries_fragment(
    entries: &[(Vec<Rank>, Support)],
    ranking: &ItemRanking,
    out: &mut ResultBuilder,
) {
    for (positions, support) in entries {
        let mut rank: Rank = 0;
        let items = positions.iter().map(|&p| {
            rank += p;
            ranking.item(rank)
        });
        out.push(items, *support);
    }
}
