//! The query engine: snapshot slot, response cache, metrics.
//!
//! Readers never block writers and writers never block readers for long:
//! the current [`Snapshot`] sits in one slot, an `RwLock<Arc<Snapshot>>`.
//! A request pins one generation for its whole lifetime by cloning that
//! `Arc` (the lock is held only for the clone) and answers from it
//! however many rebuilds publish meanwhile; a replaced snapshot is freed
//! when its last `Arc` drops. Publishing is one pointer swap plus a cache
//! clear. A lock-free generation gauge beside the slot tags the response
//! cache, and lets each reactor keep its own `Option<Arc<Snapshot>>`
//! that it refreshes through the lock only after a publish.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use plt_query::Snapshot;

use crate::cache::ShardedCache;
use crate::json::Json;
use crate::metrics::{Endpoint, Metrics};
use crate::proto::{err_response, ok_response, Request};

/// Response-cache geometry: rendered replies held, over this many shards.
const CACHE_CAPACITY: usize = 1024;
const CACHE_SHARDS: usize = 8;

/// Degradation state of the serving snapshot. The builder drives the
/// transitions: `Fresh` after a successful publish, `Rebuilding` while a
/// re-mine is in flight, `Stale` when a rebuild failed — the engine keeps
/// answering from the last good snapshot and says so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingState {
    /// The current snapshot is the newest successful rebuild.
    Fresh,
    /// The last rebuild failed; answers come from the last good snapshot.
    Stale,
    /// A rebuild is in flight; answers come from the previous snapshot.
    Rebuilding,
}

impl ServingState {
    pub fn as_str(self) -> &'static str {
        match self {
            ServingState::Fresh => "fresh",
            ServingState::Stale => "stale",
            ServingState::Rebuilding => "rebuilding",
        }
    }

    fn from_u8(v: u8) -> ServingState {
        match v {
            1 => ServingState::Stale,
            2 => ServingState::Rebuilding,
            _ => ServingState::Fresh,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            ServingState::Fresh => 0,
            ServingState::Stale => 1,
            ServingState::Rebuilding => 2,
        }
    }
}

/// Shared engine state: one per server, `Arc`-cloned into every
/// connection handler.
#[derive(Debug)]
pub struct Engine {
    snapshot: RwLock<Arc<Snapshot>>,
    /// The slot's generation, readable without the lock: the response
    /// cache's tag and the reactors' staleness check. `publish` stores it
    /// (`Release`) after installing the snapshot, and readers load it
    /// (`Acquire`), so one that sees a generation finds that snapshot, or
    /// a newer one, behind the lock.
    generation: AtomicU64,
    cache: ShardedCache,
    metrics: Metrics,
    state: AtomicU8,
    /// Cost-based plans keyed by normalized query text; entries carry the
    /// generation they were planned against, so a publish invalidates
    /// them lazily on next lookup.
    plans: plt_query::PlanCache,
}

impl Engine {
    /// Wraps an initial snapshot, with an empty response cache.
    pub fn new(initial: Snapshot) -> Engine {
        Engine {
            generation: AtomicU64::new(initial.generation()),
            snapshot: RwLock::new(Arc::new(initial)),
            cache: ShardedCache::new(CACHE_CAPACITY, CACHE_SHARDS),
            metrics: Metrics::default(),
            state: AtomicU8::new(ServingState::Fresh.as_u8()),
            plans: plt_query::PlanCache::new(256),
        }
    }

    /// The query-language plan cache (stats and tests).
    pub fn plan_cache(&self) -> &plt_query::PlanCache {
        &self.plans
    }

    /// Pins the current snapshot: the `Arc` keeps answering from this
    /// generation however many publishes land while it is held. The lock
    /// is held only for the clone.
    pub fn current(&self) -> Arc<Snapshot> {
        self.snapshot
            .read()
            .expect("no thread panics holding the snapshot slot")
            .clone()
    }

    /// Publishes a new snapshot: pointer swap, then cache invalidation
    /// (cached responses answered for the old generation; the clear frees
    /// them, and their generation tag keeps a late write from ever
    /// answering for the new one). In-flight requests keep their pinned
    /// generation; the old snapshot is freed when its last `Arc` drops.
    pub fn publish(&self, snapshot: Arc<Snapshot>) {
        let generation = snapshot.generation();
        // Install first, then advance the gauge (see `generation`).
        *self
            .snapshot
            .write()
            .expect("no thread panics holding the snapshot slot") = snapshot;
        self.generation.store(generation, Ordering::Release);
        self.state
            .store(ServingState::Fresh.as_u8(), Ordering::SeqCst);
        self.cache.clear();
        self.metrics.publishes.fetch_add(1, Ordering::Relaxed);
    }

    /// Current degradation state.
    pub fn state(&self) -> ServingState {
        ServingState::from_u8(self.state.load(Ordering::SeqCst))
    }

    /// Whether answers come from a snapshot older than the data the
    /// service has accepted (the last rebuild failed).
    pub fn is_stale(&self) -> bool {
        self.state() == ServingState::Stale
    }

    fn set_state(&self, state: ServingState) {
        let prev = self.state.swap(state.as_u8(), Ordering::SeqCst);
        if prev != state.as_u8() {
            // Cached responses embed the previous `stale` flag.
            self.cache.clear();
        }
    }

    /// Builder hook: a rebuild is starting.
    pub fn mark_rebuilding(&self) {
        self.set_state(ServingState::Rebuilding);
    }

    /// Builder hook: a rebuild died. The last good snapshot keeps
    /// serving; the failure is counted and surfaced via `STATS` and the
    /// `stale` response field until a publish succeeds.
    pub fn mark_stale(&self) {
        self.metrics
            .builder_failures
            .fetch_add(1, Ordering::Relaxed);
        self.set_state(ServingState::Stale);
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Drops all cached responses (publish does this automatically;
    /// exposed for benchmarks and operational tooling).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Handles one request, returning the rendered single-line JSON
    /// response. Read endpoints go through the cache; `stats` and `ping`
    /// always recompute. `ingest`/`shutdown` are handled by the layers
    /// above (builder/server) — here they only get an acknowledgement.
    pub fn handle(&self, request: &Request) -> String {
        self.handle_inner(request, None)
    }

    /// Like [`handle`](Self::handle), but pinning the snapshot through a
    /// per-worker slot — the reactor's lock-free fast path. The slot is
    /// refreshed through [`current`](Self::current) only when a publish
    /// moved the generation since it was last filled.
    pub fn handle_cached(&self, request: &Request, reader: &mut Option<Arc<Snapshot>>) -> String {
        self.handle_inner(request, Some(reader))
    }

    /// Empties a reactor's slot (see [`handle_cached`](Self::handle_cached))
    /// once a publish has replaced the generation it pins, so an idle
    /// reactor does not keep a replaced snapshot alive. One atomic load
    /// when the slot is current or empty.
    pub fn release_replaced(&self, reader: &mut Option<Arc<Snapshot>>) {
        let current = self.generation.load(Ordering::Acquire);
        if reader.as_ref().is_some_and(|s| s.generation() != current) {
            *reader = None;
        }
    }

    fn handle_inner(
        &self,
        request: &Request,
        reader: Option<&mut Option<Arc<Snapshot>>>,
    ) -> String {
        let start = Instant::now();
        let endpoint = endpoint_of(request);
        // Read once: the reply embeds this flag, and its cache tag must
        // name the same value.
        let stale = self.is_stale();
        if let Some(e) = endpoint.filter(|&e| cacheable(e)) {
            let key = request.cache_key();
            let generation = self.generation.load(Ordering::Acquire);
            if let Some(hit) = self.cache.get(&key, (generation, stale)) {
                self.metrics.endpoint(e).record(start.elapsed(), Some(true));
                // A cached `query` payload froze the provenance of its
                // original (fresh) run; flip `cache_hit` so `--explain`
                // reports this serve truthfully while keeping the frozen
                // plan/cost (the cache is generation-scoped, so the plan
                // is still the one that would be chosen).
                if matches!(e, Endpoint::Query) {
                    return mark_response_cache_hit(hit);
                }
                return hit;
            }
            let snap = self.pin_for(reader);
            // Tagged with the generation the answer is pinned to and the
            // stale flag it embeds: if a publish or a state change lands
            // before the put, lookups under the newer tag miss this entry
            // instead of serving it.
            let tag = (snap.generation(), stale);
            let response = self.answer(request, snap, stale).to_string();
            self.cache.put(key, tag, response.clone());
            self.metrics
                .endpoint(e)
                .record(start.elapsed(), Some(false));
            return response;
        }
        let response = self
            .answer(request, self.pin_for(reader), stale)
            .to_string();
        if let Some(e) = endpoint {
            self.metrics.endpoint(e).record(start.elapsed(), None);
        }
        response
    }

    /// Pins one generation for the whole request: every field of the
    /// response comes from the same snapshot even if a publish lands
    /// mid-answer.
    fn pin_for(&self, reader: Option<&mut Option<Arc<Snapshot>>>) -> Arc<Snapshot> {
        let Some(slot) = reader else {
            return self.current();
        };
        match slot {
            Some(snap) if snap.generation() == self.generation.load(Ordering::Acquire) => {
                snap.clone()
            }
            _ => slot.insert(self.current()).clone(),
        }
    }

    /// Every query response names its generation and whether that
    /// generation is known-stale (`stale`: the last rebuild failed), so
    /// clients can tell degraded answers from fresh ones.
    fn answer(&self, request: &Request, snap: Arc<Snapshot>, stale: bool) -> Json {
        match request {
            Request::Support { items } => {
                let a = snap.support(items);
                ok_response(vec![
                    ("support", Json::from(a.support)),
                    ("frequent", Json::Bool(a.frequent)),
                    ("source", Json::str(a.source.as_str())),
                    ("generation", Json::from(snap.generation())),
                    ("stale", Json::Bool(stale)),
                ])
            }
            Request::TopK { k, min_size } => {
                let rows = snap
                    .top_k(*k, *min_size)
                    .into_iter()
                    .map(|(itemset, support)| {
                        Json::obj(vec![
                            ("items", Json::items(itemset.items())),
                            ("support", Json::from(support)),
                        ])
                    })
                    .collect();
                ok_response(vec![
                    ("itemsets", Json::Arr(rows)),
                    ("generation", Json::from(snap.generation())),
                    ("stale", Json::Bool(stale)),
                ])
            }
            Request::Extensions { items, k } => {
                let rows = snap
                    .extensions(items, *k)
                    .into_iter()
                    .map(|(item, support)| {
                        Json::obj(vec![
                            ("item", Json::from(item as u64)),
                            ("support", Json::from(support)),
                        ])
                    })
                    .collect();
                ok_response(vec![
                    ("extensions", Json::Arr(rows)),
                    ("generation", Json::from(snap.generation())),
                    ("stale", Json::Bool(stale)),
                ])
            }
            Request::Recommend { items, k } => {
                let rows = snap
                    .recommend(items, *k)
                    .into_iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("item", Json::from(r.item as u64)),
                            ("confidence", Json::from(r.confidence)),
                            ("lift", Json::from(r.lift)),
                            ("support", Json::from(r.support)),
                            ("because", Json::items(r.because.items())),
                        ])
                    })
                    .collect();
                ok_response(vec![
                    ("recommendations", Json::Arr(rows)),
                    ("generation", Json::from(snap.generation())),
                    ("stale", Json::Bool(stale)),
                ])
            }
            Request::Query { expr } => {
                let result =
                    plt_query::run_cached(expr, &snap, &self.plans, &mut plt_obs::Obs::none());
                match result {
                    Ok((rows, prov)) => {
                        self.metrics.query.record(Some(prov.plan.op));
                        if prov.approx_requested {
                            self.metrics.query.record_approx(prov.approx);
                        }
                        ok_response(vec![
                            ("row_kind", Json::str(rows.kind())),
                            ("rows", rows_json(&rows)),
                            ("plan", Json::str(prov.plan.op.as_str())),
                            ("cost", Json::from(prov.plan.cost)),
                            ("cache_hit", Json::Bool(prov.cache_hit)),
                            ("approx", Json::Bool(prov.approx)),
                            (
                                "error_bound",
                                prov.error_bound.map(Json::from).unwrap_or(Json::Null),
                            ),
                            ("generation", Json::from(snap.generation())),
                            ("stale", Json::Bool(stale)),
                        ])
                    }
                    Err(e) => {
                        self.metrics.query.record(None);
                        err_response(e.to_string())
                    }
                }
            }
            Request::Stats => {
                let endpoints = self
                    .metrics
                    .report()
                    .into_iter()
                    .map(|(name, requests, hits, misses, p50, p99)| {
                        Json::obj(vec![
                            ("endpoint", Json::str(name)),
                            ("requests", Json::from(requests)),
                            ("cache_hits", Json::from(hits)),
                            ("cache_misses", Json::from(misses)),
                            ("p50_us", p50.map(Json::from).unwrap_or(Json::Null)),
                            ("p99_us", p99.map(Json::from).unwrap_or(Json::Null)),
                        ])
                    })
                    .collect();
                ok_response(vec![
                    ("generation", Json::from(snap.generation())),
                    ("stale", Json::Bool(stale)),
                    ("state", Json::str(self.state().as_str())),
                    (
                        "publishes",
                        Json::from(self.metrics.publishes.load(Ordering::Relaxed)),
                    ),
                    (
                        "builder_failures",
                        Json::from(self.metrics.builder_failures.load(Ordering::Relaxed)),
                    ),
                    (
                        "protocol_errors",
                        Json::from(self.metrics.protocol_errors.load(Ordering::Relaxed)),
                    ),
                    (
                        "timeouts",
                        Json::from(self.metrics.timeouts.load(Ordering::Relaxed)),
                    ),
                    (
                        "rejected_connections",
                        Json::from(self.metrics.rejected_connections.load(Ordering::Relaxed)),
                    ),
                    ("num_transactions", Json::from(snap.num_transactions())),
                    ("min_support", Json::from(snap.min_support())),
                    ("num_itemsets", Json::from(snap.num_itemsets() as u64)),
                    ("num_rules", Json::from(snap.num_rules() as u64)),
                    ("cache_entries", Json::from(self.cache.len() as u64)),
                    ("rebuild", {
                        let (rebuilds, push_us, rerank_us, snapshot_us, total_us) =
                            self.metrics.rebuild_report();
                        Json::obj(vec![
                            ("rebuilds", Json::from(rebuilds)),
                            ("push_us", Json::from(push_us)),
                            ("rerank_us", Json::from(rerank_us)),
                            ("snapshot_us", Json::from(snapshot_us)),
                            ("total_us", Json::from(total_us)),
                            (
                                "dirty_shards",
                                Json::from(self.metrics.shards_remined.load(Ordering::Relaxed)),
                            ),
                            (
                                "shard_count",
                                Json::from(self.metrics.shard_count.load(Ordering::Relaxed)),
                            ),
                        ])
                    }),
                    ("sketch", {
                        match snap.sketch() {
                            Some(sk) => Json::obj(vec![
                                ("epsilon", Json::from(sk.epsilon())),
                                ("cost", Json::from(sk.cost() as u64)),
                                ("memory_bytes", Json::from(sk.memory_bytes() as u64)),
                            ]),
                            None => Json::Null,
                        }
                    }),
                    ("endpoints", Json::Arr(endpoints)),
                    ("storage", {
                        let s = &self.metrics.storage;
                        if s.is_enabled() {
                            Json::obj(vec![
                                ("wal_bytes", Json::from(s.wal_bytes.load(Ordering::Relaxed))),
                                (
                                    "wal_records",
                                    Json::from(s.wal_records.load(Ordering::Relaxed)),
                                ),
                                ("segments", Json::from(s.segments.load(Ordering::Relaxed))),
                                (
                                    "segment_bytes",
                                    Json::from(s.segment_bytes.load(Ordering::Relaxed)),
                                ),
                                (
                                    "compactions",
                                    Json::from(s.compactions.load(Ordering::Relaxed)),
                                ),
                                (
                                    "checkpoints",
                                    Json::from(s.checkpoints.load(Ordering::Relaxed)),
                                ),
                                ("spills", Json::from(s.spills.load(Ordering::Relaxed))),
                                (
                                    "segment_lookups",
                                    Json::from(s.segment_lookups.load(Ordering::Relaxed)),
                                ),
                                (
                                    "recovery_ms",
                                    Json::from(s.recovery_ms.load(Ordering::Relaxed)),
                                ),
                                (
                                    "replayed_records",
                                    Json::from(s.replayed_records.load(Ordering::Relaxed)),
                                ),
                            ])
                        } else {
                            Json::Null
                        }
                    }),
                    ("reactor", {
                        let r = &self.metrics.reactor;
                        if r.is_enabled() {
                            Json::obj(vec![
                                ("reactors", Json::from(r.reactors.load(Ordering::Relaxed))),
                                ("events", Json::from(r.events.load(Ordering::Relaxed))),
                                (
                                    "state_transitions",
                                    Json::from(r.state_transitions.load(Ordering::Relaxed)),
                                ),
                                ("accepted", Json::from(r.accepted.load(Ordering::Relaxed))),
                                (
                                    "active_connections",
                                    Json::from(r.active_connections.load(Ordering::Relaxed)),
                                ),
                                (
                                    "shed_connections",
                                    Json::from(r.shed_connections.load(Ordering::Relaxed)),
                                ),
                                ("polls", Json::from(r.poll.requests.load(Ordering::Relaxed))),
                                (
                                    "poll_p50_us",
                                    r.poll
                                        .quantile_micros(0.50)
                                        .map(Json::from)
                                        .unwrap_or(Json::Null),
                                ),
                                (
                                    "poll_p99_us",
                                    r.poll
                                        .quantile_micros(0.99)
                                        .map(Json::from)
                                        .unwrap_or(Json::Null),
                                ),
                            ])
                        } else {
                            Json::Null
                        }
                    }),
                    ("query", {
                        let q = &self.metrics.query;
                        if q.is_enabled() {
                            let counters = self.plans.counters();
                            Json::obj(vec![
                                ("requests", Json::from(q.requests.load(Ordering::Relaxed))),
                                (
                                    "parse_errors",
                                    Json::from(q.parse_errors.load(Ordering::Relaxed)),
                                ),
                                (
                                    "plans",
                                    Json::obj(
                                        q.plan_report()
                                            .into_iter()
                                            .map(|(name, count)| (name, Json::from(count)))
                                            .collect(),
                                    ),
                                ),
                                (
                                    "plan_cache",
                                    Json::obj(vec![
                                        ("entries", Json::from(self.plans.len() as u64)),
                                        ("hits", Json::from(counters.hits)),
                                        ("misses", Json::from(counters.misses)),
                                        ("evictions", Json::from(counters.evictions)),
                                        ("invalidations", Json::from(counters.invalidations)),
                                    ]),
                                ),
                                ("approx", {
                                    let (requests, sketch_answers, exact_fallbacks) =
                                        q.approx_report();
                                    Json::obj(vec![
                                        ("requests", Json::from(requests)),
                                        ("sketch_answers", Json::from(sketch_answers)),
                                        ("exact_fallbacks", Json::from(exact_fallbacks)),
                                    ])
                                }),
                            ])
                        } else {
                            Json::Null
                        }
                    }),
                ])
            }
            Request::Hello { .. } => ok_response(vec![
                ("version", Json::from(1u64)),
                ("generation", Json::from(snap.generation())),
                ("stale", Json::Bool(stale)),
            ]),
            Request::Ping => ok_response(vec![
                ("pong", Json::Bool(true)),
                ("generation", Json::from(snap.generation())),
                ("stale", Json::Bool(stale)),
            ]),
            Request::Ingest { .. } => {
                // Reached only when no builder is attached (e.g. a
                // static snapshot served from a file).
                err_response("this server has no ingest pipeline")
            }
            Request::Shutdown => ok_response(vec![("stopping", Json::Bool(true))]),
        }
    }
}

fn endpoint_of(request: &Request) -> Option<Endpoint> {
    Some(match request {
        Request::Support { .. } => Endpoint::Support,
        Request::TopK { .. } => Endpoint::TopK,
        Request::Extensions { .. } => Endpoint::Extensions,
        Request::Recommend { .. } => Endpoint::Recommend,
        Request::Query { .. } => Endpoint::Query,
        Request::Stats => Endpoint::Stats,
        Request::Ingest { .. } => Endpoint::Ingest,
        Request::Ping => Endpoint::Ping,
        Request::Hello { .. } | Request::Shutdown => return None,
    })
}

/// Whether an endpoint's responses may be cached. Cacheable ⇔ a pure
/// function of (generation, stale flag, request).
fn cacheable(endpoint: Endpoint) -> bool {
    !matches!(
        endpoint,
        Endpoint::Stats | Endpoint::Ingest | Endpoint::Ping
    )
}

/// Rewrites `cache_hit` to `true` in a cached `query` payload. An
/// engine-rendered query reply holds `"cache_hit":false` exactly once,
/// before any row: `row_kind` and `plan` are fixed identifiers and rows
/// hold only numbers and booleans, so one splice suffices (error
/// replies carry no such field and pass through unchanged).
fn mark_response_cache_hit(payload: String) -> String {
    payload.replacen("\"cache_hit\":false", "\"cache_hit\":true", 1)
}

/// Renders a query result set as the `rows` response field.
fn rows_json(rows: &plt_query::Rows) -> Json {
    match rows {
        plt_query::Rows::Support {
            items,
            support,
            frequent,
        } => Json::Arr(vec![Json::obj(vec![
            ("items", Json::items(items)),
            ("support", Json::from(*support)),
            ("frequent", Json::Bool(*frequent)),
        ])]),
        plt_query::Rows::Itemsets(rows) => Json::Arr(
            rows.iter()
                .map(|(itemset, support)| {
                    Json::obj(vec![
                        ("items", Json::items(itemset.items())),
                        ("support", Json::from(*support)),
                    ])
                })
                .collect(),
        ),
        plt_query::Rows::Rules(rules) => Json::Arr(
            rules
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("antecedent", Json::items(r.antecedent.items())),
                        ("consequent", Json::items(r.consequent.items())),
                        ("support", Json::from(r.support)),
                        ("confidence", Json::from(r.confidence)),
                        ("lift", Json::from(r.lift)),
                    ])
                })
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plt_core::construct::{construct, ConstructOptions};
    use plt_core::{ConditionalMiner, Miner};
    use plt_rules::RuleConfig;

    fn engine() -> Engine {
        let db = vec![
            vec![0, 1, 2],
            vec![0, 1, 2],
            vec![0, 1, 2, 3],
            vec![0, 1, 3, 4],
            vec![1, 2, 3],
            vec![2, 3, 5],
        ];
        let plt = construct(&db, 2, ConstructOptions::conditional()).unwrap();
        let result = ConditionalMiner::default().mine(&db, 2);
        Engine::new(Snapshot::build(1, plt, &result, RuleConfig::default()))
    }

    #[test]
    fn support_responses_are_correct_json() {
        let engine = engine();
        let response = engine.handle(&Request::Support {
            items: vec![0, 1, 2],
        });
        let v = Json::parse(&response).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("support").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("frequent").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("source").unwrap().as_str(), Some("index"));
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let engine = engine();
        let req = Request::TopK { k: 5, min_size: 1 };
        let first = engine.handle(&req);
        let second = engine.handle(&req);
        assert_eq!(first, second);
        let stats = engine.metrics().endpoint(Endpoint::TopK);
        assert_eq!(stats.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(stats.cache_misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn publish_swaps_generation_and_clears_cache() {
        let engine = engine();
        let req = Request::Support { items: vec![1] };
        engine.handle(&req);

        // New generation over a different window.
        let db2 = vec![vec![7, 8], vec![7, 8], vec![7, 9]];
        let plt = construct(&db2, 2, ConstructOptions::conditional()).unwrap();
        let result = ConditionalMiner::default().mine(&db2, 2);
        engine.publish(Arc::new(Snapshot::build(
            2,
            plt,
            &result,
            RuleConfig::default(),
        )));

        let response = engine.handle(&req);
        let v = Json::parse(&response).unwrap();
        assert_eq!(v.get("generation").unwrap().as_u64(), Some(2));
        // Old answer (support of item 1 = 5) must not leak from cache.
        assert_eq!(v.get("support").unwrap().as_u64(), Some(0));
        assert_eq!(engine.current().generation(), 2);
    }

    #[test]
    fn readers_see_consistent_snapshots_during_publishes() {
        let engine = Arc::new(engine());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let keys: Vec<Request> = [vec![0], vec![1], vec![0, 1], vec![2]]
            .into_iter()
            .map(|items| Request::Support { items })
            .collect();
        let keys = &keys;
        std::thread::scope(|scope| {
            // Writer: republish generations 2..=20.
            {
                let engine = engine.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    for generation in 2..=20 {
                        let db = vec![vec![0, 1], vec![0, 1], vec![0, 2]];
                        let plt = construct(&db, 2, ConstructOptions::conditional()).unwrap();
                        let result = ConditionalMiner::default().mine(&db, 2);
                        engine.publish(Arc::new(Snapshot::build(
                            generation,
                            plt,
                            &result,
                            RuleConfig::default(),
                        )));
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
            // Readers: every response must be internally consistent —
            // parseable, ok, and from *some* complete generation.
            for reader in 0..3 {
                let engine = engine.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    let mut i = reader;
                    while !stop.load(Ordering::Relaxed) {
                        let response = engine.handle(&keys[i % keys.len()]);
                        i += 1;
                        let v = Json::parse(&response).unwrap();
                        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
                        let g = v.get("generation").unwrap().as_u64().unwrap();
                        assert!((1..=20).contains(&g));
                    }
                });
            }
        });
        // Once the last publish has returned, no cached reply may name an
        // older generation — not even one whose answer was computed
        // before that publish and written to the cache after it.
        for _ in 0..2 {
            for request in keys {
                let v = Json::parse(&engine.handle(request)).unwrap();
                assert_eq!(
                    v.get("generation").unwrap().as_u64(),
                    Some(20),
                    "{request:?}"
                );
            }
        }
    }

    #[test]
    fn degradation_is_surfaced_and_cleared_by_publish() {
        let engine = engine();
        let req = Request::Support { items: vec![0] };

        // Fresh: responses say stale=false.
        let v = Json::parse(&engine.handle(&req)).unwrap();
        assert_eq!(v.get("stale").unwrap().as_bool(), Some(false));
        assert_eq!(engine.state(), ServingState::Fresh);

        // A failed rebuild: the cached fresh answer must not leak, the
        // same (still correct) payload now carries stale=true, and STATS
        // counts the failure.
        engine.mark_rebuilding();
        assert_eq!(engine.state(), ServingState::Rebuilding);
        engine.mark_stale();
        assert!(engine.is_stale());
        let v = Json::parse(&engine.handle(&req)).unwrap();
        assert_eq!(v.get("stale").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("support").unwrap().as_u64(), Some(4));
        let stats = Json::parse(&engine.handle(&Request::Stats)).unwrap();
        assert_eq!(stats.get("stale").unwrap().as_bool(), Some(true));
        assert_eq!(stats.get("state").unwrap().as_str(), Some("stale"));
        assert_eq!(stats.get("builder_failures").unwrap().as_u64(), Some(1));

        // A successful publish recovers.
        let db = vec![vec![0, 1], vec![0, 1], vec![0, 2]];
        let plt = construct(&db, 2, ConstructOptions::conditional()).unwrap();
        let result = ConditionalMiner::default().mine(&db, 2);
        engine.publish(Arc::new(Snapshot::build(
            2,
            plt,
            &result,
            RuleConfig::default(),
        )));
        assert_eq!(engine.state(), ServingState::Fresh);
        let v = Json::parse(&engine.handle(&req)).unwrap();
        assert_eq!(v.get("stale").unwrap().as_bool(), Some(false));
        // Failure count is cumulative, not reset by recovery.
        let stats = Json::parse(&engine.handle(&Request::Stats)).unwrap();
        assert_eq!(stats.get("builder_failures").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn a_reply_rendered_before_mark_stale_is_never_served_after_it() {
        let engine = engine();
        let keys: Vec<Request> = [vec![0], vec![1], vec![0, 1], vec![2]]
            .into_iter()
            .map(|items| Request::Support { items })
            .collect();
        // The race is narrow — a reader renders `stale:false`,
        // `mark_stale` clears the cache, then the reader's put lands at
        // the unchanged generation — so play it out over many rounds.
        for round in 0..200u64 {
            let stop = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|scope| {
                // Writer: every state transition, ending on a failed
                // rebuild while the readers are still running.
                scope.spawn(|| {
                    for generation in 2 + 2 * round..4 + 2 * round {
                        engine.mark_rebuilding();
                        engine.mark_stale();
                        let db = vec![vec![0, 1], vec![0, 1], vec![0, 2]];
                        let plt = construct(&db, 2, ConstructOptions::conditional()).unwrap();
                        let result = ConditionalMiner::default().mine(&db, 2);
                        engine.publish(Arc::new(Snapshot::build(
                            generation,
                            plt,
                            &result,
                            RuleConfig::default(),
                        )));
                    }
                    engine.mark_rebuilding();
                    engine.mark_stale();
                    stop.store(true, Ordering::SeqCst);
                });
                for reader in 0..3 {
                    let (engine, stop, keys) = (&engine, &stop, &keys);
                    scope.spawn(move || {
                        let mut i = reader;
                        while !stop.load(Ordering::SeqCst) {
                            engine.handle(&keys[i % keys.len()]);
                            i += 1;
                        }
                    });
                }
            });
            for request in &keys {
                let v = Json::parse(&engine.handle(request)).unwrap();
                assert_eq!(
                    v.get("stale").unwrap().as_bool(),
                    Some(true),
                    "round {round}: {request:?}"
                );
            }
        }
    }

    #[test]
    fn query_endpoint_answers_with_plan_provenance() {
        let engine = engine();
        let response = engine.handle(&Request::Query {
            expr: "SUPPORT OF {0, 1, 2}".to_string(),
        });
        let v = Json::parse(&response).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("row_kind").unwrap().as_str(), Some("support"));
        assert_eq!(v.get("plan").unwrap().as_str(), Some("index_point"));
        assert_eq!(v.get("cache_hit").unwrap().as_bool(), Some(false));
        assert!(v.get("cost").unwrap().as_f64().unwrap() > 0.0);
        let rows = v.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("support").unwrap().as_u64(), Some(3));
        assert_eq!(rows[0].get("frequent").unwrap().as_bool(), Some(true));

        // A small unfiltered top-k is cheaper via extension traversal
        // than a full scan, even on this tiny snapshot.
        let v = Json::parse(&engine.handle(&Request::Query {
            expr: "TOP 2".to_string(),
        }))
        .unwrap();
        assert_eq!(v.get("plan").unwrap().as_str(), Some("ext_traverse"));
        let rows = v.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert!(
            rows[0].get("support").unwrap().as_u64() >= rows[1].get("support").unwrap().as_u64()
        );

        // Rules through the rule index.
        let v = Json::parse(&engine.handle(&Request::Query {
            expr: "RULES WHERE confidence >= 0.6 TOP 5".to_string(),
        }))
        .unwrap();
        assert_eq!(v.get("plan").unwrap().as_str(), Some("rule_scan"));
        assert_eq!(v.get("row_kind").unwrap().as_str(), Some("rules"));
        for row in v.get("rows").unwrap().as_arr().unwrap() {
            assert!(row.get("confidence").unwrap().as_f64().unwrap() >= 0.6);
        }
    }

    #[test]
    fn query_errors_are_typed_and_counted() {
        let engine = engine();
        let v = Json::parse(&engine.handle(&Request::Query {
            expr: "SUPPORT OF {}".to_string(),
        }))
        .unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert!(v
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("query:"));
        assert_eq!(
            engine.metrics().query.parse_errors.load(Ordering::Relaxed),
            1
        );
        // The engine still answers afterwards.
        let v = Json::parse(&engine.handle(&Request::Query {
            expr: "SUPPORT OF {0}".to_string(),
        }))
        .unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn query_plan_cache_hits_on_normalized_equivalents_and_publish_invalidates() {
        let engine = engine();
        let first = Json::parse(&engine.handle(&Request::Query {
            expr: "TOP 4 WHERE support >= 2 AND size >= 2".to_string(),
        }))
        .unwrap();
        assert_eq!(first.get("cache_hit").unwrap().as_bool(), Some(false));
        // Different spelling, same normalized AST — and a different
        // response-cache key, so this exercises the *plan* cache.
        let second = Json::parse(&engine.handle(&Request::Query {
            expr: "top 4 where size >= 2 and support >= 2".to_string(),
        }))
        .unwrap();
        assert_eq!(second.get("cache_hit").unwrap().as_bool(), Some(true));
        assert_eq!(
            first.get("rows").unwrap().to_string(),
            second.get("rows").unwrap().to_string()
        );
        assert_eq!(engine.plan_cache().counters().hits, 1);

        // A publish moves the generation; the cached plan is stale.
        let db = vec![vec![0, 1], vec![0, 1], vec![0, 2]];
        let plt = construct(&db, 2, ConstructOptions::conditional()).unwrap();
        let result = ConditionalMiner::default().mine(&db, 2);
        engine.publish(Arc::new(Snapshot::build(
            2,
            plt,
            &result,
            RuleConfig::default(),
        )));
        let third = Json::parse(&engine.handle(&Request::Query {
            expr: "TOP 4 WHERE support >= 2 AND size >= 2".to_string(),
        }))
        .unwrap();
        assert_eq!(third.get("cache_hit").unwrap().as_bool(), Some(false));
        assert_eq!(third.get("generation").unwrap().as_u64(), Some(2));
        assert_eq!(engine.plan_cache().counters().invalidations, 1);
    }

    #[test]
    fn query_response_cache_hits_keep_provenance_and_flip_cache_hit() {
        let engine = engine();
        let req = Request::Query {
            expr: "SUPPORT OF {0, 1, 2}".to_string(),
        };
        let miss = engine.handle(&req);
        let first = Json::parse(&miss).unwrap();
        assert_eq!(first.get("cache_hit").unwrap().as_bool(), Some(false));
        // Same spelling again: served from the response cache, which
        // must still carry the plan provenance — and admit the hit.
        let hit = engine.handle(&req);
        // Byte for byte the miss, once the flag is swapped back.
        assert_eq!(
            hit.replacen("\"cache_hit\":true", "\"cache_hit\":false", 1),
            miss
        );
        let second = Json::parse(&hit).unwrap();
        assert_eq!(second.get("cache_hit").unwrap().as_bool(), Some(true));
        assert_eq!(
            second.get("plan").unwrap().as_str(),
            first.get("plan").unwrap().as_str()
        );
        assert!(second.get("cost").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(
            second.get("rows").unwrap().to_string(),
            first.get("rows").unwrap().to_string()
        );
    }

    #[test]
    fn stats_surface_query_block_after_first_query() {
        let engine = engine();
        // Before any query the block is hidden.
        let stats = Json::parse(&engine.handle(&Request::Stats)).unwrap();
        assert!(matches!(stats.get("query"), Some(Json::Null)));

        engine.handle(&Request::Query {
            expr: "MINE COND {3} TOP 2".to_string(),
        });
        engine.handle(&Request::Query {
            expr: "nonsense".to_string(),
        });
        let stats = Json::parse(&engine.handle(&Request::Stats)).unwrap();
        let q = stats.get("query").unwrap();
        assert_eq!(q.get("requests").unwrap().as_u64(), Some(2));
        assert_eq!(q.get("parse_errors").unwrap().as_u64(), Some(1));
        let plans = q.get("plans").unwrap();
        let mined: u64 = plans.get("ext_traverse").unwrap().as_u64().unwrap()
            + plans.get("cond_mine").unwrap().as_u64().unwrap();
        assert_eq!(mined, 1);
        let cache = q.get("plan_cache").unwrap();
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(cache.get("entries").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn stats_reflect_traffic() {
        let engine = engine();
        engine.handle(&Request::Ping);
        engine.handle(&Request::Support { items: vec![1] });
        engine.handle(&Request::Support { items: vec![1] });
        let stats = engine.handle(&Request::Stats);
        let v = Json::parse(&stats).unwrap();
        let endpoints = v.get("endpoints").unwrap().as_arr().unwrap();
        let support = endpoints
            .iter()
            .find(|e| e.get("endpoint").unwrap().as_str() == Some("support"))
            .unwrap();
        assert_eq!(support.get("requests").unwrap().as_u64(), Some(2));
        assert_eq!(support.get("cache_hits").unwrap().as_u64(), Some(1));
        assert!(support.get("p50_us").unwrap().as_u64().is_some());
    }
}
