//! Per-endpoint service metrics: request counters, cache hit/miss
//! counters, and a latency histogram answering p50/p99.
//!
//! Everything is lock-free atomics so the hot read path never blocks on
//! a metrics mutex. Latency is recorded in log₂ microsecond buckets
//! (1µs, 2µs, 4µs, … ~2s); quantiles are answered from the histogram to
//! bucket precision, which is plenty for a `STATS` endpoint.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log₂ latency buckets: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` microseconds; the last bucket absorbs the tail.
const BUCKETS: usize = 22;

/// Latency histogram plus counters for one endpoint.
#[derive(Debug, Default)]
pub struct EndpointStats {
    pub requests: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl EndpointStats {
    /// Records one request with its latency; `cache` is `Some(hit?)` for
    /// cacheable endpoints, `None` for ones that bypass the cache.
    pub fn record(&self, latency: Duration, cache: Option<bool>) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match cache {
            Some(true) => self.cache_hits.fetch_add(1, Ordering::Relaxed),
            Some(false) => self.cache_misses.fetch_add(1, Ordering::Relaxed),
            None => 0,
        };
        let micros = latency.as_micros().max(1) as u64;
        let bucket = (63 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// The `q`-quantile latency (0 < q ≤ 1), to bucket precision: the
    /// lower bound of the bucket containing the quantile sample. `None`
    /// before any sample.
    pub fn quantile_micros(&self, q: f64) -> Option<u64> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let target = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(1u64 << i);
            }
        }
        Some(1u64 << (BUCKETS - 1))
    }

    fn load(&self) -> (u64, u64, u64) {
        (
            self.requests.load(Ordering::Relaxed),
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }
}

/// Endpoints tracked by the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Support,
    TopK,
    Extensions,
    Recommend,
    Query,
    Stats,
    Ingest,
    Ping,
}

impl Endpoint {
    pub const ALL: [Endpoint; 8] = [
        Endpoint::Support,
        Endpoint::TopK,
        Endpoint::Extensions,
        Endpoint::Recommend,
        Endpoint::Query,
        Endpoint::Stats,
        Endpoint::Ingest,
        Endpoint::Ping,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Endpoint::Support => "support",
            Endpoint::TopK => "top_k",
            Endpoint::Extensions => "extensions",
            Endpoint::Recommend => "recommend",
            Endpoint::Query => "query",
            Endpoint::Stats => "stats",
            Endpoint::Ingest => "ingest",
            Endpoint::Ping => "ping",
        }
    }
}

/// One [`Metrics::report`] row:
/// `(name, requests, hits, misses, p50µs, p99µs)`.
pub type EndpointReport = (&'static str, u64, u64, u64, Option<u64>, Option<u64>);

/// All service metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    endpoints: [EndpointStats; 8],
    /// Snapshots published over the service lifetime.
    pub publishes: AtomicU64,
    /// Builder rebuilds that panicked and were absorbed (the service kept
    /// answering from the last good snapshot).
    pub builder_failures: AtomicU64,
    /// Frames rejected as malformed (bad header, over limit, bad UTF-8).
    pub protocol_errors: AtomicU64,
    /// Connections dropped for blowing a read/write deadline.
    pub timeouts: AtomicU64,
    /// Connections refused because the server was at capacity.
    pub rejected_connections: AtomicU64,
    /// Snapshot rebuilds completed (successful or absorbed-failure).
    pub rebuilds: AtomicU64,
    /// Cumulative µs spent pushing batch transactions into the window.
    pub rebuild_push_us: AtomicU64,
    /// Cumulative µs spent reranking the window vocabulary.
    pub rebuild_rerank_us: AtomicU64,
    /// Cumulative µs spent mining + building the new snapshot index.
    pub rebuild_snapshot_us: AtomicU64,
    /// Cumulative µs across whole rebuild passes (push → publish).
    pub rebuild_total_us: AtomicU64,
    /// Cumulative dirty shards re-mined across all incremental rebuilds
    /// (divide by `rebuilds` for the mean dirty fraction).
    pub shards_remined: AtomicU64,
    /// Current shard count of the incremental pipeline (gauge).
    pub shard_count: AtomicU64,
    /// Durable-store gauges; all zero (and hidden from `STATS`) when the
    /// service runs without a data directory.
    pub storage: StorageMetrics,
    /// Reactor counters; all zero (and hidden from `STATS`) while no
    /// reactor serves the engine: in-process use, or the non-Linux
    /// thread-per-connection fallback.
    pub reactor: ReactorMetrics,
    /// Query-language counters; all zero (and hidden from `STATS`) until
    /// the first `query` request.
    pub query: QueryStats,
}

/// Counters for the query endpoint, following the [`StorageMetrics`]
/// enabled-flag pattern: `enabled` flips to 1 on the first query, so
/// `stats` omits the block for services that never see one. Plan-cache
/// hit/miss/eviction/invalidation counts live in the plan cache itself
/// (`plt_query::PlanCache::counters`) and are merged into the same
/// `stats` block by the engine.
#[derive(Debug, Default)]
pub struct QueryStats {
    pub enabled: AtomicU64,
    /// Query requests answered (parse errors included).
    pub requests: AtomicU64,
    /// Expressions rejected by the parser/validator.
    pub parse_errors: AtomicU64,
    /// Chosen-plan counters, indexed like
    /// [`plt_query::PhysOp`]: index_point, ext_traverse, rule_scan,
    /// cond_mine, full_scan, sketch_probe.
    pub plans: [AtomicU64; 6],
    /// `APPROX`-tier requests received (`approx.requests`).
    pub approx_requests: AtomicU64,
    /// Approximate answers served from a sketch (`approx.sketch_answers`).
    pub approx_sketch_answers: AtomicU64,
    /// `APPROX`-tier requests honestly answered by an exact operator
    /// (`approx.exact_fallbacks`).
    pub approx_exact_fallbacks: AtomicU64,
}

impl QueryStats {
    /// Records one answered query and the plan that served it
    /// (`None` = the expression never reached planning).
    pub fn record(&self, plan: Option<plt_query::PhysOp>) {
        self.enabled.store(1, Ordering::Relaxed);
        self.requests.fetch_add(1, Ordering::Relaxed);
        match plan {
            Some(op) => {
                self.plans[Self::plan_index(op)].fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.parse_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records an `APPROX`-tier request and whether a sketch answered
    /// it (mirrors the `approx.*` obs counters in `plt_query`).
    pub fn record_approx(&self, sketch_answered: bool) {
        self.approx_requests.fetch_add(1, Ordering::Relaxed);
        if sketch_answered {
            self.approx_sketch_answers.fetch_add(1, Ordering::Relaxed);
        } else {
            self.approx_exact_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `(requests, sketch_answers, exact_fallbacks)` for `stats`.
    pub fn approx_report(&self) -> (u64, u64, u64) {
        (
            self.approx_requests.load(Ordering::Relaxed),
            self.approx_sketch_answers.load(Ordering::Relaxed),
            self.approx_exact_fallbacks.load(Ordering::Relaxed),
        )
    }

    fn plan_index(op: plt_query::PhysOp) -> usize {
        match op {
            plt_query::PhysOp::IndexPoint => 0,
            plt_query::PhysOp::ExtTraverse => 1,
            plt_query::PhysOp::RuleScan => 2,
            plt_query::PhysOp::CondMine => 3,
            plt_query::PhysOp::FullScan => 4,
            plt_query::PhysOp::SketchProbe => 5,
        }
    }

    /// `(name, count)` rows for the `stats` endpoint's plan breakdown.
    pub fn plan_report(&self) -> [(&'static str, u64); 6] {
        let ops = [
            plt_query::PhysOp::IndexPoint,
            plt_query::PhysOp::ExtTraverse,
            plt_query::PhysOp::RuleScan,
            plt_query::PhysOp::CondMine,
            plt_query::PhysOp::FullScan,
            plt_query::PhysOp::SketchProbe,
        ];
        ops.map(|op| {
            (
                op.as_str(),
                self.plans[Self::plan_index(op)].load(Ordering::Relaxed),
            )
        })
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) != 0
    }
}

/// Counters for the epoll reactor server, following the
/// [`StorageMetrics`] enabled-flag pattern: `enabled` flips to 1 when a
/// reactor starts, so `stats` omits the block for an engine no reactor
/// serves. The reactor threads and the acceptor update them directly;
/// `stats` reports them under `"reactor"`.
#[derive(Debug, Default)]
pub struct ReactorMetrics {
    pub enabled: AtomicU64,
    /// Reactor threads running (gauge).
    pub reactors: AtomicU64,
    /// epoll events handled.
    pub events: AtomicU64,
    /// Connection state-machine transitions.
    pub state_transitions: AtomicU64,
    /// Connections accepted and dispatched to a reactor.
    pub accepted: AtomicU64,
    /// Connections currently registered across all reactors (gauge).
    pub active_connections: AtomicU64,
    /// Connections refused with a `shed` response — reactor budget or
    /// accept backlog full. Also counted into
    /// [`Metrics::rejected_connections`], the refusal counter the
    /// non-Linux fallback shares.
    pub shed_connections: AtomicU64,
    /// Poll-loop latency (one sample per `epoll_wait` round trip).
    pub poll: EndpointStats,
}

impl ReactorMetrics {
    pub fn mark_enabled(&self) {
        self.enabled.store(1, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) != 0
    }
}

/// Gauges mirrored from [`plt_store::StoreStats`] after every apply and
/// checkpoint. `enabled` flips to 1 the first time they are recorded, so
/// the `stats` endpoint can omit the block for in-memory services.
#[derive(Debug, Default)]
pub struct StorageMetrics {
    pub enabled: AtomicU64,
    pub wal_bytes: AtomicU64,
    pub wal_records: AtomicU64,
    pub segments: AtomicU64,
    pub segment_bytes: AtomicU64,
    pub compactions: AtomicU64,
    pub checkpoints: AtomicU64,
    pub spills: AtomicU64,
    pub segment_lookups: AtomicU64,
    pub recovery_ms: AtomicU64,
    pub replayed_records: AtomicU64,
}

impl StorageMetrics {
    /// Overwrites every gauge from a store-stats snapshot.
    pub fn record(&self, s: &plt_store::StoreStats) {
        self.enabled.store(1, Ordering::Relaxed);
        self.wal_bytes.store(s.wal_bytes, Ordering::Relaxed);
        self.wal_records.store(s.wal_records, Ordering::Relaxed);
        self.segments.store(s.segments, Ordering::Relaxed);
        self.segment_bytes.store(s.segment_bytes, Ordering::Relaxed);
        self.compactions.store(s.compactions, Ordering::Relaxed);
        self.checkpoints.store(s.checkpoints, Ordering::Relaxed);
        self.spills.store(s.spills, Ordering::Relaxed);
        self.segment_lookups
            .store(s.segment_lookups, Ordering::Relaxed);
        self.recovery_ms.store(s.recovery_ms, Ordering::Relaxed);
        self.replayed_records
            .store(s.replayed_records, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) != 0
    }
}

impl Metrics {
    pub fn endpoint(&self, e: Endpoint) -> &EndpointStats {
        &self.endpoints[match e {
            Endpoint::Support => 0,
            Endpoint::TopK => 1,
            Endpoint::Extensions => 2,
            Endpoint::Recommend => 3,
            Endpoint::Query => 4,
            Endpoint::Stats => 5,
            Endpoint::Ingest => 6,
            Endpoint::Ping => 7,
        }]
    }

    /// Records one completed rebuild pass with its per-phase durations.
    /// Cumulative sums (not histograms): rebuilds are rare relative to
    /// reads, and the `stats` endpoint divides by `rebuilds` for means.
    pub fn record_rebuild(
        &self,
        push: Duration,
        rerank: Duration,
        snapshot: Duration,
        total: Duration,
    ) {
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        self.rebuild_push_us
            .fetch_add(push.as_micros() as u64, Ordering::Relaxed);
        self.rebuild_rerank_us
            .fetch_add(rerank.as_micros() as u64, Ordering::Relaxed);
        self.rebuild_snapshot_us
            .fetch_add(snapshot.as_micros() as u64, Ordering::Relaxed);
        self.rebuild_total_us
            .fetch_add(total.as_micros() as u64, Ordering::Relaxed);
    }

    /// Records the dirty-shard work of one incremental rebuild.
    pub fn record_shards(&self, dirty: u64, total: u64) {
        self.shards_remined.fetch_add(dirty, Ordering::Relaxed);
        self.shard_count.store(total, Ordering::Relaxed);
    }

    /// Snapshot of the rebuild-phase accumulators:
    /// `(rebuilds, push_us, rerank_us, snapshot_us, total_us)`.
    pub fn rebuild_report(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.rebuilds.load(Ordering::Relaxed),
            self.rebuild_push_us.load(Ordering::Relaxed),
            self.rebuild_rerank_us.load(Ordering::Relaxed),
            self.rebuild_snapshot_us.load(Ordering::Relaxed),
            self.rebuild_total_us.load(Ordering::Relaxed),
        )
    }

    /// Snapshot of every endpoint's counters:
    /// `(name, requests, hits, misses, p50µs, p99µs)`.
    pub fn report(&self) -> Vec<EndpointReport> {
        Endpoint::ALL
            .iter()
            .map(|&e| {
                let s = self.endpoint(e);
                let (req, hit, miss) = s.load();
                (
                    e.as_str(),
                    req,
                    hit,
                    miss,
                    s.quantile_micros(0.50),
                    s.quantile_micros(0.99),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::default();
        m.endpoint(Endpoint::Support)
            .record(Duration::from_micros(10), Some(true));
        m.endpoint(Endpoint::Support)
            .record(Duration::from_micros(10), Some(false));
        m.endpoint(Endpoint::Stats)
            .record(Duration::from_micros(5), None);
        let report = m.report();
        let support = report.iter().find(|r| r.0 == "support").unwrap();
        assert_eq!((support.1, support.2, support.3), (2, 1, 1));
        let stats = report.iter().find(|r| r.0 == "stats").unwrap();
        assert_eq!((stats.1, stats.2, stats.3), (1, 0, 0));
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let s = EndpointStats::default();
        assert_eq!(s.quantile_micros(0.5), None);
        // 99 fast samples at ~8µs, 1 slow at ~1024µs.
        for _ in 0..99 {
            s.record(Duration::from_micros(9), None);
        }
        s.record(Duration::from_micros(1500), None);
        let p50 = s.quantile_micros(0.50).unwrap();
        let p99 = s.quantile_micros(0.99).unwrap();
        assert_eq!(p50, 8); // bucket [8,16)
        assert!(p99 <= 16, "p99 {p99}");
        let p100 = s.quantile_micros(1.0).unwrap();
        assert_eq!(p100, 1024); // bucket [1024,2048)
    }

    #[test]
    fn sub_microsecond_lands_in_first_bucket() {
        let s = EndpointStats::default();
        s.record(Duration::from_nanos(10), None);
        assert_eq!(s.quantile_micros(1.0), Some(1));
    }

    #[test]
    fn exact_power_of_two_latencies_land_in_their_own_bucket() {
        // Bucket i covers [2^i, 2^(i+1)): an exactly-2^i sample must
        // report 2^i, not the bucket below.
        for exp in 0..10u32 {
            let s = EndpointStats::default();
            s.record(Duration::from_micros(1u64 << exp), None);
            assert_eq!(s.quantile_micros(1.0), Some(1u64 << exp), "2^{exp}µs");
        }
    }

    #[test]
    fn one_microsecond_boundary() {
        let s = EndpointStats::default();
        s.record(Duration::from_micros(1), None);
        s.record(Duration::from_nanos(999), None); // clamps up to 1µs
        assert_eq!(s.quantile_micros(0.5), Some(1));
        assert_eq!(s.quantile_micros(1.0), Some(1));
        assert_eq!(s.requests.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn tail_bucket_saturates() {
        // Anything past the last bucket's lower bound (2^21 µs ≈ 2.1s)
        // lands in the saturating tail, including absurd durations.
        let s = EndpointStats::default();
        s.record(Duration::from_secs(3), None);
        s.record(Duration::from_secs(3600), None);
        assert_eq!(s.quantile_micros(0.5), Some(1u64 << 21));
        assert_eq!(s.quantile_micros(1.0), Some(1u64 << 21));
    }

    #[test]
    fn quantile_edge_fractions() {
        let s = EndpointStats::default();
        for _ in 0..10 {
            s.record(Duration::from_micros(4), None);
        }
        // Tiny q still selects the first occupied bucket; q = 1.0 the last.
        assert_eq!(s.quantile_micros(0.0001), Some(4));
        assert_eq!(s.quantile_micros(1.0), Some(4));
    }

    #[test]
    fn service_counters_default_to_zero() {
        let m = Metrics::default();
        assert_eq!(m.builder_failures.load(Ordering::Relaxed), 0);
        assert_eq!(m.protocol_errors.load(Ordering::Relaxed), 0);
        assert_eq!(m.timeouts.load(Ordering::Relaxed), 0);
        assert_eq!(m.rejected_connections.load(Ordering::Relaxed), 0);
        assert_eq!(m.rebuild_report(), (0, 0, 0, 0, 0));
    }

    #[test]
    fn query_stats_flip_enabled_and_count_plans() {
        let m = Metrics::default();
        assert!(!m.query.is_enabled());
        m.query.record(Some(plt_query::PhysOp::IndexPoint));
        m.query.record(Some(plt_query::PhysOp::IndexPoint));
        m.query.record(Some(plt_query::PhysOp::CondMine));
        m.query.record(None); // parse error
        assert!(m.query.is_enabled());
        assert_eq!(m.query.requests.load(Ordering::Relaxed), 4);
        assert_eq!(m.query.parse_errors.load(Ordering::Relaxed), 1);
        let report = m.query.plan_report();
        assert_eq!(report[0], ("index_point", 2));
        assert_eq!(report[3], ("cond_mine", 1));
        assert_eq!(report[4], ("full_scan", 0));
        // The query endpoint has latency stats like any other.
        m.endpoint(Endpoint::Query)
            .record(Duration::from_micros(3), Some(false));
        let r = m.report();
        let q = r.iter().find(|r| r.0 == "query").unwrap();
        assert_eq!((q.1, q.2, q.3), (1, 0, 1));
    }

    #[test]
    fn rebuild_phases_accumulate() {
        let m = Metrics::default();
        m.record_rebuild(
            Duration::from_micros(10),
            Duration::from_micros(20),
            Duration::from_micros(300),
            Duration::from_micros(340),
        );
        m.record_rebuild(
            Duration::from_micros(5),
            Duration::from_micros(5),
            Duration::from_micros(100),
            Duration::from_micros(115),
        );
        assert_eq!(m.rebuild_report(), (2, 15, 25, 400, 455));
    }
}
