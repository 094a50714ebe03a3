//! Background snapshot builder: ingests transactions, republishes.
//!
//! The builder owns a [`ShardedPipeline`] (plt-shard) on its own thread.
//! `INGEST` batches arrive over a channel; after each batch the builder
//! applies the delta **incrementally** — only the rank-range shards the
//! batch touches are re-mined, clean fragments are reused, and a
//! vocabulary drift falls back to a full re-rank on its own — assembles
//! a fresh [`Snapshot`], and publishes it to the [`Engine`] — a pointer
//! swap, so in-flight readers keep their generation and new readers see
//! the new one. Queries never wait on mining, and rebuild cost scales
//! with the dirty shards, not the window.
//!
//! A rebuild that panics does **not** kill the service: the unwind is
//! caught, the failure is counted
//! ([`Metrics::builder_failures`](crate::metrics::Metrics::builder_failures)),
//! the engine is marked [`Stale`](crate::engine::ServingState::Stale),
//! and the last good snapshot keeps answering — with `stale: true` on
//! every response — until a later rebuild succeeds. An acknowledged batch is acked with
//! the *old* generation on failure, so waiting ingesters never hang on a
//! dead rebuild.

use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use plt_approx::{IndicatorSketch, SketchConfig};
use plt_core::item::{Item, Support};
use plt_core::RankPolicy;
use plt_query::Snapshot;
use plt_rules::RuleConfig;
use plt_shard::{Delta, RebuildReport, ShardConfig, ShardedPipeline, DEFAULT_SHARD_COUNT};
use plt_store::{DurableOptions, DurablePipeline, StoreError};

use crate::engine::Engine;
use crate::fault::FaultPlan;

/// Builder configuration.
#[derive(Debug, Clone)]
pub struct BuilderConfig {
    /// Sliding-window capacity in transactions.
    pub window_capacity: usize,
    /// Mining threshold (absolute support).
    pub min_support: Support,
    /// Item-ranking policy for the window's PLT.
    pub rank_policy: RankPolicy,
    /// Number of rank-range shards the incremental pipeline partitions
    /// the tree into (see [`plt_shard`]).
    pub shard_count: usize,
    /// Confidence threshold for precomputed recommendation rules.
    pub rule_config: RuleConfig,
    /// Deterministic fault injection for rebuilds (the warmup build is
    /// never faulted — a service that cannot bootstrap should fail
    /// loudly). `None` in production.
    pub fault: Option<Arc<FaultPlan>>,
    /// Data directory for the durable store (WAL + segments + manifest,
    /// see [`plt_store`]). `None` runs fully in memory. When set,
    /// [`bootstrap`] recovers any existing state first and the `warmup`
    /// transactions are applied only on a fresh (empty) directory, so a
    /// restarted service does not double-count its seed data.
    pub data_dir: Option<PathBuf>,
    /// Durable-store policy (fsync batching, resident-shard budget,
    /// checkpoint cadence). Ignored unless `data_dir` is set.
    pub durable: DurableOptions,
    /// When set, the builder maintains an [`IndicatorSketch`] alongside
    /// the window and attaches it to every published snapshot, giving
    /// the query planner an `APPROX`-tier support path that never
    /// touches the index. The sketch's `capacity` is overridden with
    /// [`window_capacity`](BuilderConfig::window_capacity) so its FIFO
    /// eviction mirrors the pipeline's sliding window.
    pub sketch: Option<SketchConfig>,
}

impl Default for BuilderConfig {
    fn default() -> Self {
        BuilderConfig {
            window_capacity: 100_000,
            min_support: 2,
            rank_policy: RankPolicy::default(),
            shard_count: DEFAULT_SHARD_COUNT,
            rule_config: RuleConfig::default(),
            fault: None,
            data_dir: None,
            durable: DurableOptions::default(),
            sketch: None,
        }
    }
}

/// The builder's mining state: plain in-memory pipeline, or the same
/// pipeline wrapped in the durable store (WAL-before-apply, cold-shard
/// spilling, checkpoints).
enum Pipe {
    Memory(Box<ShardedPipeline>),
    Durable(Box<DurablePipeline>),
}

impl Pipe {
    fn apply(&mut self, delta: Delta) -> Result<RebuildReport, StoreError> {
        match self {
            Pipe::Memory(p) => p.apply(delta).map_err(StoreError::from),
            Pipe::Durable(p) => p.apply(delta),
        }
    }

    fn snapshot(&self, generation: u64, rule_config: RuleConfig) -> Snapshot {
        match self {
            Pipe::Memory(p) => {
                Snapshot::build(generation, p.plt().clone(), p.result(), rule_config)
            }
            // The durable pipeline owns the merged result (its inner
            // pipeline runs with deferred merging).
            Pipe::Durable(p) => Snapshot::build(
                generation,
                p.pipeline().plt().clone(),
                p.result(),
                rule_config,
            ),
        }
    }

    /// The sliding window as owned transactions, for the sketch warmup.
    fn window_vec(&self) -> Vec<Vec<Item>> {
        match self {
            Pipe::Memory(p) => p.window().map(<[Item]>::to_vec).collect(),
            Pipe::Durable(p) => p.pipeline().window().map(<[Item]>::to_vec).collect(),
        }
    }

    /// Mirrors store gauges into the metrics registry (no-op in memory).
    fn record_storage(&self, engine: &Engine) {
        if let Pipe::Durable(p) = self {
            engine.metrics().storage.record(&p.store_stats());
        }
    }

    /// Final durability point on clean shutdown: checkpoint + fsync, so
    /// the next open replays an empty WAL tail.
    fn shutdown(&mut self) {
        if let Pipe::Durable(p) = self {
            let _ = p.checkpoint();
            let _ = p.sync();
        }
    }
}

enum Msg {
    /// A batch to apply. With an ack, the builder publishes even when the
    /// batch is empty and sends back the generation that covers it.
    Ingest(Vec<Vec<Item>>, Option<Sender<u64>>),
    Stop,
}

/// Handle to the builder thread. Dropping it without
/// [`stop`](BuilderHandle::stop) detaches the thread (it exits when the
/// channel closes).
pub struct BuilderHandle {
    tx: Sender<Msg>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for BuilderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuilderHandle").finish_non_exhaustive()
    }
}

impl BuilderHandle {
    /// Queues a batch of transactions. Returns `false` if the builder
    /// thread has exited.
    pub fn ingest(&self, transactions: Vec<Vec<Item>>) -> bool {
        self.tx.send(Msg::Ingest(transactions, None)).is_ok()
    }

    /// Forces a rebuild/publish and waits for it; returns the published
    /// generation, or `None` if the builder has exited.
    pub fn flush(&self) -> Option<u64> {
        self.queue().flush()
    }

    /// A cloneable submission handle for connection threads (`Sender`
    /// is `Send + Clone`, so each thread carries its own).
    pub fn queue(&self) -> IngestQueue {
        IngestQueue {
            tx: self.tx.clone(),
        }
    }

    /// Stops the builder thread and joins it.
    pub fn stop(mut self) {
        let _ = self.tx.send(Msg::Stop);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Per-thread handle for submitting work to the builder.
#[derive(Clone)]
pub struct IngestQueue {
    tx: Sender<Msg>,
}

impl std::fmt::Debug for IngestQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestQueue").finish_non_exhaustive()
    }
}

impl IngestQueue {
    /// Queues a batch; `false` if the builder has exited.
    pub fn ingest(&self, transactions: Vec<Vec<Item>>) -> bool {
        self.tx.send(Msg::Ingest(transactions, None)).is_ok()
    }

    /// Queues a batch together with its acknowledgement: the receiver
    /// yields the generation of the one publish that covers the batch.
    /// `None` if the builder has exited.
    pub fn ingest_acked(&self, transactions: Vec<Vec<Item>>) -> Option<Receiver<u64>> {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.tx.send(Msg::Ingest(transactions, Some(ack_tx))).ok()?;
        Some(ack_rx)
    }

    /// Rebuild + publish, waiting for the new generation.
    pub fn flush(&self) -> Option<u64> {
        self.ingest_acked(Vec::new())?.recv().ok()
    }
}

/// Builds the initial snapshot from `warmup`, wraps it in an engine, and
/// spawns the background builder.
///
/// With [`BuilderConfig::data_dir`] set, the service opens the durable
/// store first: an existing directory is recovered (manifest + WAL-tail
/// replay) and becomes the authoritative state — `warmup` is applied
/// only when the recovered window is empty, so restarting with the same
/// seed file does not double-count it.
///
/// Returns the shared engine (for servers / direct callers) and the
/// builder handle (for the ingest path).
pub fn bootstrap(
    warmup: &[Vec<Item>],
    config: BuilderConfig,
) -> Result<(Arc<Engine>, BuilderHandle), StoreError> {
    let shard_config = ShardConfig {
        shard_count: config.shard_count,
        min_support: config.min_support,
        rank_policy: config.rank_policy,
        capacity: Some(config.window_capacity),
        ..ShardConfig::default()
    };
    let pipeline = match &config.data_dir {
        Some(dir) => {
            // The snapshot index is built from the merged result, so the
            // builder always materializes it regardless of the caller's
            // durable options.
            let mut durable_options = config.durable;
            durable_options.materialize_merged = true;
            let mut durable = DurablePipeline::open(dir, shard_config, durable_options)?;
            if durable.is_empty() && !warmup.is_empty() {
                durable.apply(Delta::add(warmup.to_vec()))?;
            }
            Pipe::Durable(Box::new(durable))
        }
        None => Pipe::Memory(Box::new(ShardedPipeline::new(warmup, shard_config)?)),
    };
    // Warm the sketch from the pipeline's own window, not from `warmup`:
    // on a durable restart the recovered window is the authoritative
    // state, and the sketch must mirror it transaction for transaction.
    let sketch = config.sketch.map(|mut sketch_config| {
        sketch_config.capacity = config.window_capacity;
        let mut sk = IndicatorSketch::new(sketch_config);
        for t in pipeline.window_vec() {
            sk.observe(&t);
        }
        sk
    });
    let mut snapshot = pipeline.snapshot(1, config.rule_config);
    if let Some(sk) = &sketch {
        snapshot = snapshot.with_sketch(Box::new(sk.clone()));
    }
    let engine = Arc::new(Engine::new(snapshot));
    pipeline.record_storage(&engine);
    if let Pipe::Durable(p) = &pipeline {
        let r = p.recovery();
        engine
            .metrics()
            .storage
            .recovery_ms
            .store(r.recovery_ms, std::sync::atomic::Ordering::Relaxed);
        engine
            .metrics()
            .storage
            .replayed_records
            .store(r.replayed_deltas, std::sync::atomic::Ordering::Relaxed);
    }

    let (tx, rx) = mpsc::channel::<Msg>();
    let mut rebuilder = Rebuilder {
        pipeline,
        engine: engine.clone(),
        generation: 1,
        rule_config: config.rule_config,
        sketch,
        fault: config.fault.clone(),
    };
    let thread = std::thread::Builder::new()
        .name("plt-snapshot-builder".into())
        .spawn(move || {
            rebuilder.run(rx);
            // Clean shutdown: checkpoint + fsync the durable store so
            // the next open has no WAL tail to replay.
            rebuilder.pipeline.shutdown();
        })
        .expect("spawn builder thread");

    Ok((
        engine,
        BuilderHandle {
            tx,
            thread: Some(thread),
        },
    ))
}

/// The builder thread's state: the pipeline it applies batches to, the
/// engine it publishes into, and the last published generation.
struct Rebuilder {
    pipeline: Pipe,
    engine: Arc<Engine>,
    generation: u64,
    rule_config: RuleConfig,
    sketch: Option<IndicatorSketch>,
    fault: Option<Arc<FaultPlan>>,
}

impl Rebuilder {
    /// Serves the queue until `Stop` or until every sender is gone.
    fn run(&mut self, rx: Receiver<Msg>) {
        while let Ok(Msg::Ingest(mut batch, ack)) = rx.recv() {
            let mut acks: Vec<Sender<u64>> = ack.into_iter().collect();
            // Drain any queued batches so one rebuild covers them all —
            // rebuilds are the expensive part — and ack them together.
            // A disconnect ends the outer loop at the next `recv`.
            let mut stop = false;
            for msg in rx.try_iter() {
                match msg {
                    Msg::Ingest(more, ack) => {
                        batch.extend(more);
                        acks.extend(ack);
                    }
                    Msg::Stop => {
                        stop = true;
                        break;
                    }
                }
            }
            if !batch.is_empty() || !acks.is_empty() {
                self.ingest_and_publish(batch);
            }
            for ack in acks {
                let _ = ack.send(self.generation);
            }
            if stop {
                return;
            }
        }
    }

    /// One rebuild: apply the batch as an incremental delta, re-mine the
    /// dirty shards, publish. Advances the generation — or keeps the old
    /// one if the rebuild panicked, in which case the engine is marked
    /// stale and keeps serving the last good snapshot. The pipeline
    /// retains the applied batch either way, so a later successful
    /// rebuild still covers it.
    fn ingest_and_publish(&mut self, batch: Vec<Vec<Item>>) {
        let started = std::time::Instant::now();
        let engine = &*self.engine;
        engine.mark_rebuilding();
        // The sketch consumes the batch before the pipeline does, so its
        // FIFO window slides in lockstep with the pipeline's.
        if let Some(sk) = self.sketch.as_mut() {
            for t in &batch {
                sk.observe(t);
            }
        }
        // Incremental update: the delta dirties only the shards whose rank
        // ranges it touches; clean fragments are reused, and a vocabulary
        // drift falls back to a full re-rank + re-mine inside `apply`. On
        // the durable path the delta hits the WAL before the in-memory
        // apply.
        let pipeline = &mut self.pipeline;
        let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pipeline.apply(Delta::add(batch))
        }));
        let report = match applied {
            Ok(Ok(report)) => report,
            // An apply error or panic is absorbed like a failed rebuild:
            // the last good snapshot keeps answering. The pipeline
            // documents that it stays internally consistent, so later
            // batches can still land.
            Ok(Err(_)) | Err(_) => {
                engine.mark_stale();
                return;
            }
        };
        engine
            .metrics()
            .record_shards(report.dirty_shards as u64, report.total_shards as u64);
        self.pipeline.record_storage(engine);
        let applied_at = started.elapsed();
        let next = self.generation + 1;
        // The pipeline is consistent past this point; snapshot assembly
        // reads it immutably, so catching its unwind is sound.
        let rebuilt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(plan) = &self.fault {
                plan.maybe_builder_panic();
            }
            self.pipeline.snapshot(next, self.rule_config)
        }));
        let total = started.elapsed();
        // Phase durations feed the metrics registry whether the rebuild
        // landed or was absorbed — failed passes cost real time too. Phase
        // mapping: push = structural update, rerank = dirty-shard re-mine
        // + fragment merge, snapshot = snapshot assembly.
        engine.metrics().record_rebuild(
            report.update,
            report.remine + report.merge,
            total - applied_at,
            total,
        );
        match rebuilt {
            Ok(mut snapshot) => {
                if let Some(sk) = self.sketch.as_ref() {
                    snapshot = snapshot.with_sketch(Box::new(sk.clone()));
                }
                engine.publish(Arc::new(snapshot));
                self.generation = next;
            }
            Err(_) => engine.mark_stale(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::json::Json;
    use crate::proto::Request;
    use std::sync::atomic::Ordering;

    fn warmup() -> Vec<Vec<Item>> {
        vec![vec![0, 1], vec![0, 1], vec![0, 2]]
    }

    fn config() -> BuilderConfig {
        BuilderConfig {
            window_capacity: 1000,
            min_support: 2,
            ..BuilderConfig::default()
        }
    }

    #[test]
    fn bootstrap_serves_the_warmup_generation() {
        let (engine, builder) = bootstrap(&warmup(), config()).unwrap();
        let snap = engine.current();
        assert_eq!(snap.generation(), 1);
        assert_eq!(snap.support(&[0, 1]).support, 2);
        builder.stop();
    }

    #[test]
    fn ingest_publishes_new_generations() {
        let (engine, builder) = bootstrap(&warmup(), config()).unwrap();
        assert!(builder.ingest(vec![vec![0, 2], vec![0, 2]]));
        let generation = builder.flush().expect("builder alive");
        assert!(generation >= 2);
        let snap = engine.current();
        assert_eq!(snap.generation(), generation);
        // {0,2} appeared once in warmup + twice ingested = 3.
        assert_eq!(snap.support(&[0, 2]).support, 3);
        builder.stop();
    }

    #[test]
    fn flush_without_data_still_bumps_generation() {
        let (engine, builder) = bootstrap(&warmup(), config()).unwrap();
        let g1 = builder.flush().unwrap();
        let g2 = builder.flush().unwrap();
        assert!(g2 > g1);
        assert_eq!(engine.current().generation(), g2);
        builder.stop();
    }

    #[test]
    fn panicking_rebuilds_degrade_to_the_last_good_snapshot() {
        // Every rebuild panics: the warmup snapshot must keep serving,
        // flush must ack (with the old generation) instead of hanging,
        // and the failures must be counted and surfaced as staleness.
        let fault = FaultPlan::shared(FaultConfig {
            builder_panic: 1.0,
            ..FaultConfig::disabled(11)
        });
        let cfg = BuilderConfig {
            fault: Some(fault),
            ..config()
        };
        let (engine, builder) = bootstrap(&warmup(), cfg).unwrap();
        assert_eq!(engine.current().generation(), 1);

        assert!(builder.ingest(vec![vec![0, 1], vec![0, 1]]));
        let acked = builder.flush().expect("flush must ack, not hang");
        assert_eq!(acked, 1, "failed rebuild acks the old generation");
        assert!(engine.is_stale());
        assert_eq!(engine.current().generation(), 1);
        assert!(engine.metrics().builder_failures.load(Ordering::Relaxed) >= 1);

        // Queries still answer, flagged stale, from the warmup window.
        let v = Json::parse(&engine.handle(&Request::Support { items: vec![0, 1] })).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("support").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("stale").unwrap().as_bool(), Some(true));
        builder.stop();
    }

    #[test]
    fn rebuild_phases_are_recorded_and_served() {
        let (engine, builder) = bootstrap(&warmup(), config()).unwrap();
        builder.ingest(vec![vec![0, 1], vec![1, 2], vec![0, 2]]);
        builder.flush().expect("builder alive");
        let (rebuilds, _push, _rerank, _snap, total) = engine.metrics().rebuild_report();
        assert!(rebuilds >= 1, "flush must record a rebuild pass");
        assert!(total >= 1, "a real rebuild takes at least a microsecond");
        // And the stats endpoint exposes the same accumulators.
        let v = Json::parse(&engine.handle(&Request::Stats)).unwrap();
        let rebuild = v.get("rebuild").expect("stats carries a rebuild block");
        assert_eq!(rebuild.get("rebuilds").unwrap().as_u64(), Some(rebuilds));
        assert_eq!(rebuild.get("total_us").unwrap().as_u64(), Some(total));
        builder.stop();
    }

    #[test]
    fn durable_bootstrap_recovers_across_restart() {
        let dir = std::env::temp_dir().join(format!(
            "plt-serve-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = BuilderConfig {
            data_dir: Some(dir.clone()),
            ..config()
        };
        let (engine, builder) = bootstrap(&warmup(), cfg.clone()).unwrap();
        assert!(builder.ingest(vec![vec![0, 2], vec![0, 2]]));
        builder.flush().expect("builder alive");
        assert_eq!(engine.current().support(&[0, 2]).support, 3);
        builder.stop(); // checkpoints + fsyncs on the way out
        drop(engine);

        // Restart with the same warmup: the recovered state is
        // authoritative, so the warmup must not be double-counted.
        let (engine, builder) = bootstrap(&warmup(), cfg).unwrap();
        assert_eq!(engine.current().support(&[0, 2]).support, 3);
        assert_eq!(engine.current().support(&[0, 1]).support, 2);
        // The stats endpoint now carries the storage block.
        let v = Json::parse(&engine.handle(&Request::Stats)).unwrap();
        let storage = v.get("storage").expect("storage block present");
        assert!(storage.get("segments").unwrap().as_u64().unwrap() >= 1);
        builder.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn queries_keep_working_across_publishes() {
        let (engine, builder) = bootstrap(&warmup(), config()).unwrap();
        for round in 0..5 {
            builder.ingest(vec![vec![0, 1], vec![1, 2]]);
            builder.flush();
            let response = engine.handle(&Request::Support { items: vec![0] });
            let v = Json::parse(&response).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "round {round}");
        }
        builder.stop();
    }
}
