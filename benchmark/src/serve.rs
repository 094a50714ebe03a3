//! `serve-read` and `serve-ingest`: the server runs in this process the
//! way `plt-mine serve` runs it (CLI defaults, `ServerConfig::default()`),
//! and one closed-loop client thread drives it over TCP with the seeded
//! request pool, in slices of `READS_PER_SLICE` reads. On `serve-ingest`
//! each slice ends with the next `ingest` batch, sent with `wait: true`
//! on a second connection against a durable data directory, so every
//! slice holds the same reads-to-writes mix.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use plt_core::item::{Item, Support};
use plt_data::{fimi, TransactionDb};
use plt_obs::Obs;
use plt_query::{PhysOp, PlanCache};
use plt_rules::RuleConfig;
use plt_serve::json::Json;
use plt_serve::metrics::Endpoint;
use plt_serve::proto::{read_frame, write_frame};
use plt_serve::{
    bootstrap, serve, BuilderConfig, BuilderHandle, Engine, Request, ServerConfig, ServerHandle,
    Snapshot, SupportSource,
};
use plt_shard::{Delta, ShardConfig};
use plt_store::{DurableOptions, DurablePipeline};

use crate::inputs::{self, SERVE_MIN_SUP};
use crate::measure::{self, Slices, Tracer, ROOT};
use crate::Outcome;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Reads per slice. On `serve-ingest` one 200-transaction batch follows
/// them. A slice's median read latency varies with the snapshot it
/// reads, and 4,000 reads steady it about twice as well as 2,000.
const READS_PER_SLICE: usize = 4_000;
/// Closed-loop reads before the measured phase (caches and allocator
/// warm, connection threads spawned).
const WARMUP: Duration = Duration::from_secs(1);
/// Every this-many-th reply is kept and re-checked after the run.
const KEEP_EVERY: usize = 64;
/// Supports checked against the final window on `serve-ingest`.
const FINAL_CHECKS: usize = 256;
/// Clean-shutdown-then-bootstrap cycles behind `store.restart_s`.
const RESTARTS: usize = 3;
/// A reply slower than this counts as timed out (and failed).
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// Pings behind `server.ping_rtt_us`.
const PINGS: usize = 2_000;
/// Requests in each pass of the trace-overhead comparison.
const OVERHEAD_SLICE: usize = 20_000;

/// One request of the pool: its wire payload, its decoded form, and the
/// itemset whose support it asks for (support and `SUPPORT OF` only).
struct Pooled {
    payload: String,
    request: Request,
    scan: bool,
    support_of: Option<Vec<Item>>,
}

fn load_pool(dir: &Path) -> Vec<Pooled> {
    inputs::read_pool(dir)
        .into_iter()
        .map(|request| {
            let support_of = match &request {
                Request::Support { items } => Some(items.clone()),
                Request::Query { expr } => expr.strip_prefix("SUPPORT OF {").map(|rest| {
                    rest.trim_end_matches('}')
                        .split(',')
                        .map(|i| i.trim().parse().expect("pool itemsets are numeric"))
                        .collect()
                }),
                _ => None,
            };
            Pooled {
                payload: request.to_json().to_string(),
                scan: inputs::is_scan(&request),
                request,
                support_of,
            }
        })
        .collect()
}

/// A running service: engine, builder thread, TCP server.
struct Service {
    engine: Arc<Engine>,
    builder: BuilderHandle,
    server: ServerHandle,
}

impl Service {
    fn stop(self) {
        self.server.shutdown();
        self.builder.stop();
    }
}

/// `plt-mine serve`'s builder configuration with its default flags
/// (`--min-conf 0.5`, window twice the warmup unless given).
fn builder_config(
    warmup_len: usize,
    min_support: Support,
    window: Option<usize>,
    data_dir: Option<PathBuf>,
) -> BuilderConfig {
    BuilderConfig {
        window_capacity: window.unwrap_or_else(|| (warmup_len * 2).max(1)),
        min_support,
        rule_config: RuleConfig {
            min_confidence: 0.5,
        },
        data_dir,
        ..BuilderConfig::default()
    }
}

/// Set-up as the CLI does it: parse the FIMI warmup, `bootstrap`, bind.
/// `slide` sets the window to the warmup size, so ingest slides it from
/// the first batch.
fn start(warmup: &Path, slide: bool, data_dir: Option<PathBuf>) -> (Service, TransactionDb) {
    let db = fimi::read_file(warmup).expect("read the warmup window");
    let min_sup = db.absolute_support(SERVE_MIN_SUP);
    let window = slide.then_some(db.len());
    let config = builder_config(db.len(), min_sup, window, data_dir);
    let (engine, builder) = bootstrap(db.transactions(), config).expect("bootstrap");
    let server = serve(
        "127.0.0.1:0",
        engine.clone(),
        Some(builder.queue()),
        ServerConfig::default(),
    )
    .expect("bind the server");
    (
        Service {
            engine,
            builder,
            server,
        },
        db,
    )
}

/// One framed connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    fn call(&mut self, payload: &str) -> std::io::Result<String> {
        write_frame(&mut self.writer, payload)?;
        read_frame(&mut self.reader)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )
        })
    }
}

fn is_ok(reply: &str) -> bool {
    reply.starts_with("{\"ok\":true")
}

/// The `generation` field of a reply, read without a full parse.
fn generation_of(reply: &str) -> Option<u64> {
    let at = reply.find("\"generation\":")? + "\"generation\":".len();
    let digits: String = reply[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// What the client saw.
#[derive(Default)]
struct Seen {
    point_us: Vec<f64>,
    scan_us: Vec<f64>,
    reads_attempted: u64,
    reads_failed: u64,
    /// `(pool index, reply)` for every `KEEP_EVERY`-th read.
    kept: Vec<(usize, String)>,
    /// Per batch: send to `wait: true` acknowledgement.
    visible_ms: Vec<f64>,
    batches_attempted: u64,
    batches_failed: u64,
    /// Stream indices of the batches the server acknowledged, in order.
    accepted: Vec<usize>,
    /// Replies whose generation is older than one already seen.
    stale: Vec<String>,
}

/// The client: one thread with a reader connection and, on
/// `serve-ingest`, a writer connection. A failed or refused request
/// (error reply, `shed:`, timeout, broken connection) counts as failed,
/// and a broken connection is re-dialed.
struct Client<'a> {
    addr: SocketAddr,
    pool: &'a [Pooled],
    /// Ingest payloads (`wait: true`), sent in order and started over
    /// when used up.
    batches: &'a [String],
    reader: Conn,
    /// Opened only when there are batches to send.
    writer: Option<Conn>,
    /// Pool cursor: the next read is `pool[next % pool.len()]`.
    next: usize,
    sent_batches: usize,
    /// The newest generation any reply has shown: no later reply on
    /// either connection may show an older one.
    generation: u64,
}

impl<'a> Client<'a> {
    fn open(addr: SocketAddr, pool: &'a [Pooled], batches: &'a [String]) -> Client<'a> {
        Client {
            addr,
            pool,
            batches,
            reader: Conn::open(addr).expect("connect the reader"),
            writer: (!batches.is_empty()).then(|| Conn::open(addr).expect("connect the writer")),
            next: 0,
            sent_batches: 0,
            generation: 0,
        }
    }

    /// Slices until `deadline`: `READS_PER_SLICE` closed-loop reads, then
    /// with `ingest` the next batch, then the slice is closed.
    fn run(&mut self, deadline: Instant, ingest: bool, slices: &mut Slices) -> Seen {
        let mut seen = Seen::default();
        let mut slice_us = Vec::with_capacity(READS_PER_SLICE);
        while Instant::now() < deadline {
            slice_us.clear();
            for _ in 0..READS_PER_SLICE {
                slice_us.extend(self.read(&mut seen));
            }
            if ingest {
                self.ingest(&mut seen);
            }
            slices.close(&slice_us);
        }
        seen
    }

    fn check_generation(&mut self, seen: &mut Seen, reply: &str) {
        let Some(generation) = generation_of(reply) else {
            return;
        };
        if generation < self.generation {
            seen.stale.push(format!(
                "generation {generation} after {}: {reply}",
                self.generation
            ));
        }
        self.generation = self.generation.max(generation);
    }

    /// One read; its latency in microseconds if it succeeded.
    fn read(&mut self, seen: &mut Seen) -> Option<f64> {
        let index = self.next % self.pool.len();
        self.next += 1;
        let entry = &self.pool[index];
        seen.reads_attempted += 1;
        let t = Instant::now();
        let reply = match self.reader.call(&entry.payload) {
            Ok(reply) if is_ok(&reply) => reply,
            Ok(_) => {
                seen.reads_failed += 1;
                return None;
            }
            Err(_) => {
                seen.reads_failed += 1;
                self.reader = Conn::open(self.addr).expect("re-dial the reader");
                return None;
            }
        };
        let us = t.elapsed().as_secs_f64() * 1e6;
        if entry.scan {
            seen.scan_us.push(us);
        } else {
            seen.point_us.push(us);
        }
        self.check_generation(seen, &reply);
        if seen.reads_attempted.is_multiple_of(KEEP_EVERY as u64) {
            seen.kept.push((index, reply));
        }
        Some(us)
    }

    fn ingest(&mut self, seen: &mut Seen) {
        let k = self.sent_batches % self.batches.len();
        self.sent_batches += 1;
        seen.batches_attempted += 1;
        let t = Instant::now();
        let writer = self
            .writer
            .as_mut()
            .expect("a writer when there are batches");
        match writer.call(&self.batches[k]) {
            Ok(reply) if is_ok(&reply) => {
                seen.visible_ms.push(t.elapsed().as_secs_f64() * 1e3);
                seen.accepted.push(k);
                self.check_generation(seen, &reply);
            }
            Ok(_) => seen.batches_failed += 1,
            Err(_) => {
                seen.batches_failed += 1;
                *writer = Conn::open(self.addr).expect("re-dial the writer");
            }
        }
    }
}

fn contains_all(transaction: &[Item], items: &[Item]) -> bool {
    items.iter().all(|i| transaction.binary_search(i).is_ok())
}

/// The support a snapshot must report for `items` over `window`: the
/// direct count, or 0 when an item has no rank in the snapshot's PLT
/// (the documented `SupportOracle` semantics).
fn direct_support(window: &[Vec<Item>], snapshot: &Snapshot, items: &[Item]) -> u64 {
    if items
        .iter()
        .any(|&i| snapshot.plt().ranking().rank(i).is_none())
    {
        return 0;
    }
    window.iter().filter(|t| contains_all(t, items)).count() as u64
}

/// The support value inside a `support` or `SUPPORT OF` reply.
fn reply_support(reply: &str) -> Option<u64> {
    let v = Json::parse(reply).ok()?;
    match v.get("support") {
        Some(s) => s.as_u64(),
        None => v.get("rows")?.as_arr()?.first()?.get("support")?.as_u64(),
    }
}

/// Cached query replies carry `cache_hit: true`; a fresh answer says
/// false. Everything else must match byte for byte.
fn normalize(reply: &str) -> String {
    reply.replace("\"cache_hit\":true", "\"cache_hit\":false")
}

/// Cache hits and misses over the read endpoints so far.
fn cache_counts(engine: &Engine) -> (u64, u64) {
    engine
        .metrics()
        .report()
        .iter()
        .filter(|r| ["support", "extensions", "recommend", "query"].contains(&r.0))
        .fold((0, 0), |(h, m), r| (h + r.2, m + r.3))
}

pub fn run(
    workload: &str,
    dir: &Path,
    work: &Path,
    seconds: f64,
    batch: usize,
    tracer: Option<&mut Tracer>,
) -> Outcome {
    let mut out = Outcome::default();
    let ingest = workload == "serve-ingest";
    let warmup_path = dir.join(inputs::WARMUP);
    let pool = load_pool(dir);
    let stream: Vec<Vec<Vec<Item>>> = if ingest {
        fimi::read_file(dir.join(inputs::INGEST))
            .expect("read the ingest stream")
            .transactions()
            .chunks(batch)
            .map(<[Vec<Item>]>::to_vec)
            .collect()
    } else {
        Vec::new()
    };
    let batch_payloads: Vec<String> = stream
        .iter()
        .map(|b| {
            Request::Ingest {
                transactions: b.clone(),
                wait: true,
            }
            .to_json()
            .to_string()
        })
        .collect();

    // Set-up, repeated: half before the measured phase, where the last
    // service is the one measured, and half after it, so `setup_s`
    // spans the run. A durable run gets a fresh data directory each time.
    let data_dir = |rep: usize| ingest.then(|| work.join(format!("data-{rep}")));
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut set_up = |rep: usize| {
        let started = Instant::now();
        let running = start(&warmup_path, ingest, data_dir(rep));
        setup.push(started.elapsed().as_secs_f64());
        running
    };
    for rep in 1..SETUP_REPS / 2 {
        set_up(rep).0.stop();
    }
    let (service, warmup) = set_up(0);
    let addr = service.server.addr();
    let engine = service.engine.clone();

    let mut client = Client::open(addr, &pool, &batch_payloads);
    client.run(Instant::now() + WARMUP, false, &mut Slices::start());
    let first = client.next;
    let cache0 = cache_counts(&engine);
    let publishes0 = engine.metrics().publishes.load(Ordering::Relaxed);
    let cpu0 = measure::process_cpu_s();
    let t0 = Instant::now();
    let mut slices = Slices::start();
    let seen = client.run(t0 + Duration::from_secs_f64(seconds), ingest, &mut slices);
    let elapsed = t0.elapsed().as_secs_f64();
    let cpu = measure::process_cpu_s() - cpu0;
    let rss = measure::peak_rss_mb();
    let cache1 = cache_counts(&engine);
    let publishes = engine.metrics().publishes.load(Ordering::Relaxed) - publishes0;
    drop(client);

    let all_us: Vec<f64> = seen.point_us.iter().chain(&seen.scan_us).copied().collect();
    out.attempted = seen.reads_attempted + seen.batches_attempted;
    out.failed = seen.reads_failed + seen.batches_failed;
    out.set("throughput_ops_s", slices.throughput());
    out.set("latency_us", slices.latency_us());
    out.set("peak_rss_mb", rss);
    out.notes.push(format!(
        "{} reads in {elapsed:.1} s ({} point, {} scan, {} failed; {} slices of \
         {READS_PER_SLICE}); {} ingest batches ({} failed), {} publishes",
        seen.reads_attempted,
        seen.point_us.len(),
        seen.scan_us.len(),
        seen.reads_failed,
        slices.len(),
        seen.batches_attempted,
        seen.batches_failed,
        publishes,
    ));
    out.notes.push(format!(
        "read latency {}, median {:.3} us, p75 {:.3} us",
        measure::tally(&all_us, 0.75),
        measure::median(&all_us),
        measure::percentile(&all_us, 0.75)
    ));

    // Correctness, outside timing.
    if let Some(first) = seen.stale.first() {
        out.problems.push(format!(
            "{} replies older than a generation already seen, first {first}",
            seen.stale.len()
        ));
    }
    let mut window: Vec<Vec<Item>> = warmup.transactions().to_vec();
    if ingest && seen.batches_failed > 0 {
        // A batch that timed out may still have landed, so the final
        // window is unknown; the failures already count against the run.
        out.notes.push(format!(
            "final-window check skipped: {} ingest batches failed",
            seen.batches_failed
        ));
    } else if ingest {
        service.builder.flush().expect("the builder is alive");
        for &k in &seen.accepted {
            window.extend(stream[k].iter().cloned());
        }
        let keep_from = window.len().saturating_sub(warmup.len());
        window.drain(..keep_from);
        check_final_supports(&mut out, addr, &pool, &engine, &window);
    } else {
        check_kept_replies(&mut out, &pool, &seen.kept, &engine, &window);
    }

    // The layers seen from the TCP run, while the service still runs.
    if tracer.is_some() {
        out.set("serve.point_p50_us", measure::median(&seen.point_us));
        out.set(
            "serve.point_p99_us",
            measure::percentile(&seen.point_us, 0.99),
        );
        out.set("serve.scan_p50_us", measure::median(&seen.scan_us));
        out.set(
            "serve.scan_p99_us",
            measure::percentile(&seen.scan_us, 0.99),
        );
        let (hits, misses) = (cache1.0 - cache0.0, cache1.1 - cache0.1);
        out.set(
            "cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        out.notes.push(format!(
            "point latency {}; scan latency {}; ingest visibility {}",
            measure::tally(&seen.point_us, 0.99),
            measure::tally(&seen.scan_us, 0.99),
            measure::tally(&seen.visible_ms, 0.90)
        ));
        out.set("proc.cpu_s", cpu);
        out.set("proc.cpu_us_per_op", slices.cpu_us_per_op());
        out.set("server.ping_rtt_us", ping_rtt_us(addr));
        if ingest {
            out.set("ingest.visible_p50_ms", measure::median(&seen.visible_ms));
            out.set(
                "ingest.visible_p90_ms",
                measure::percentile(&seen.visible_ms, 0.90),
            );
            let (rebuilds, push, rerank, snapshot, _) = engine.metrics().rebuild_report();
            let per = |us: u64| us as f64 / rebuilds.max(1) as f64;
            out.set("stats.rebuild_push_us", per(push));
            out.set("stats.rebuild_rerank_us", per(rerank));
            out.set("stats.rebuild_snapshot_us", per(snapshot));
        }
        let stats = Conn::open(addr)
            .and_then(|mut c| c.call(&Request::Stats.to_json().to_string()))
            .unwrap_or_default();
        out.notes.push(format!("server stats: {stats}"));
    }
    drop(engine);
    service.stop();

    for rep in SETUP_REPS / 2..SETUP_REPS {
        set_up(rep).0.stop();
    }
    out.set("setup_s", measure::median(&setup));
    out.notes.push(format!("{} set-ups", setup.len()));

    if let Some(tracer) = tracer {
        if let Some(data) = data_dir(0) {
            restarts(&mut out, &warmup_path, data);
        }
        let accepted: Vec<&Vec<Vec<Item>>> = seen.accepted.iter().map(|&k| &stream[k]).collect();
        replay_layers(
            tracer,
            &mut out,
            &warmup,
            &pool_slice(&pool, first, seen.reads_attempted as usize),
            &accepted,
            work,
            measure::median(&seen.point_us),
            &seen.visible_ms,
        );
    }
    out
}

/// The measured request stream, in the order the reader sent it.
fn pool_slice(pool: &[Pooled], first: usize, count: usize) -> Vec<&Pooled> {
    (first..first + count)
        .map(|i| &pool[i % pool.len()])
        .collect()
}

/// `serve-read`: each kept reply must equal a fresh `Engine::handle` of
/// its request on the same engine, and a kept support must equal the
/// direct count over the window.
fn check_kept_replies(
    out: &mut Outcome,
    pool: &[Pooled],
    kept: &[(usize, String)],
    engine: &Engine,
    window: &[Vec<Item>],
) {
    let snapshot = engine.current();
    for (index, reply) in kept {
        let entry = &pool[*index];
        engine.clear_cache();
        let fresh = engine.handle(&entry.request);
        if normalize(reply) != normalize(&fresh) {
            out.problems.push(format!(
                "reply to {} differs from the engine's: {reply} vs {fresh}",
                entry.payload
            ));
            continue;
        }
        if let Some(items) = &entry.support_of {
            let want = direct_support(window, &snapshot, items);
            if reply_support(reply) != Some(want) {
                out.problems.push(format!(
                    "{} answered {reply}, the window counts {want}",
                    entry.payload
                ));
            }
        }
    }
    out.notes
        .push(format!("checked {} kept replies", kept.len()));
}

/// `serve-ingest`: after the final flush, `FINAL_CHECKS` supports over
/// TCP must equal the direct count over the final window.
fn check_final_supports(
    out: &mut Outcome,
    addr: SocketAddr,
    pool: &[Pooled],
    engine: &Engine,
    window: &[Vec<Item>],
) {
    let snapshot = engine.current();
    let mut conn = Conn::open(addr).expect("connect the checker");
    let mut checked = 0;
    for items in pool
        .iter()
        .filter_map(|p| p.support_of.as_ref())
        .take(FINAL_CHECKS)
    {
        let payload = Request::Support {
            items: items.clone(),
        }
        .to_json()
        .to_string();
        let want = direct_support(window, &snapshot, items);
        match conn.call(&payload) {
            Ok(reply) if reply_support(&reply) == Some(want) => checked += 1,
            Ok(reply) => out.problems.push(format!(
                "{payload} answered {reply} after the final flush, the window counts {want}"
            )),
            Err(e) => out
                .problems
                .push(format!("{payload} failed after the final flush: {e}")),
        }
    }
    out.notes.push(format!(
        "checked {checked} supports against the final window"
    ));
}

fn ping_rtt_us(addr: SocketAddr) -> f64 {
    let payload = Request::Ping.to_json().to_string();
    let mut conn = Conn::open(addr).expect("connect the pinger");
    let rtts: Vec<f64> = (0..PINGS)
        .filter_map(|_| {
            let t = Instant::now();
            conn.call(&payload).ok()?;
            Some(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    measure::median(&rtts)
}

/// Clean shutdown (done by the caller), then `bootstrap` on the same
/// data directory, `RESTARTS` times.
fn restarts(out: &mut Outcome, warmup: &Path, data: PathBuf) {
    let mut restart_s = Vec::new();
    let mut recovery_ms = Vec::new();
    for _ in 0..RESTARTS {
        let t = Instant::now();
        let (service, _) = start(warmup, true, Some(data.clone()));
        restart_s.push(t.elapsed().as_secs_f64());
        let storage = &service.engine.metrics().storage;
        recovery_ms.push(storage.recovery_ms.load(Ordering::Relaxed) as f64);
        service.stop();
    }
    out.set("store.restart_s", measure::median(&restart_s));
    out.set("store.recovery_ms", measure::median(&recovery_ms));
}

/// An engine over the warmup window, built the way `bootstrap` builds
/// it, with no builder thread.
fn fresh_engine(warmup: &TransactionDb) -> Arc<Engine> {
    let min_sup = warmup.absolute_support(SERVE_MIN_SUP);
    let config = builder_config(warmup.len(), min_sup, None, None);
    let (engine, builder) = bootstrap(warmup.transactions(), config).expect("bootstrap");
    builder.stop();
    engine
}

fn endpoint_of(entry: &Pooled) -> (Endpoint, &'static str, &'static str) {
    match (&entry.request, entry.scan) {
        (Request::Support { .. }, _) => (
            Endpoint::Support,
            "engine.support.hit",
            "engine.support.miss",
        ),
        (Request::Extensions { .. }, _) => (
            Endpoint::Extensions,
            "engine.extensions.hit",
            "engine.extensions.miss",
        ),
        (Request::Recommend { .. }, _) => (
            Endpoint::Recommend,
            "engine.recommend.hit",
            "engine.recommend.miss",
        ),
        (_, false) => (
            Endpoint::Query,
            "engine.query_point.hit",
            "engine.query_point.miss",
        ),
        (_, true) => (
            Endpoint::Query,
            "engine.query_scan.hit",
            "engine.query_scan.miss",
        ),
    }
}

/// One in-process request: `Json::parse` + `Request::from_json`, then
/// `Engine::handle` (a hit or a miss by its endpoint's cache counter),
/// then `write_frame` into a buffer. Returns the total in microseconds.
fn replay_one(engine: &Engine, entry: &Pooled, tracer: Option<&mut Tracer>) -> f64 {
    let t0 = Instant::now();
    let request =
        Request::from_json(&Json::parse(&entry.payload).expect("pool JSON")).expect("pool request");
    let t1 = Instant::now();
    let (endpoint, hit_name, miss_name) = endpoint_of(entry);
    let hits = &engine.metrics().endpoint(endpoint).cache_hits;
    let hits_before = hits.load(Ordering::Relaxed);
    let reply = engine.handle(&request);
    let t2 = Instant::now();
    let hit = hits.load(Ordering::Relaxed) > hits_before;
    let mut frame = Vec::with_capacity(reply.len() + 16);
    write_frame(&mut frame, &reply).expect("write into a Vec");
    std::hint::black_box(&frame);
    let t3 = Instant::now();
    if let Some(tracer) = tracer {
        let name = if entry.scan {
            "request.scan"
        } else {
            "request.point"
        };
        let root = tracer.open(name, ROOT, t0);
        tracer.span("proto.decode", Some(root), t0, t1);
        tracer.span(if hit { hit_name } else { miss_name }, Some(root), t1, t2);
        tracer.span("proto.encode", Some(root), t2, t3);
        tracer.close(root, t3);
    }
    (t3 - t0).as_secs_f64() * 1e6
}

/// The traced replay: the measured request stream in process against an
/// identically bootstrapped engine (on `serve-ingest`, a
/// `DurablePipeline` applies the same accepted batches and
/// `Snapshot::build` + `Engine::publish` run after every
/// `READS_PER_SLICE` reads, as in the TCP run, so cache invalidations
/// match), then a second pass
/// calling `Snapshot::*`, `plt_query::parse` and `run_cached` directly.
#[allow(clippy::too_many_arguments)]
fn replay_layers(
    tracer: &mut Tracer,
    out: &mut Outcome,
    warmup: &TransactionDb,
    requests: &[&Pooled],
    batches: &[&Vec<Vec<Item>>],
    work: &Path,
    tcp_point_p50_us: f64,
    visible_ms: &[f64],
) {
    // Trace overhead: the same slice on two fresh engines, untimed
    // layers against traced layers.
    let slice = &requests[..requests.len().min(OVERHEAD_SLICE)];
    let plain_engine = fresh_engine(warmup);
    let plain: Vec<f64> = slice
        .iter()
        .map(|e| replay_one(&plain_engine, e, None))
        .collect();
    let traced_engine = fresh_engine(warmup);
    let mut scratch = Tracer::new(0);
    let traced: Vec<f64> = slice
        .iter()
        .map(|e| replay_one(&traced_engine, e, Some(&mut scratch)))
        .collect();
    out.set(
        "trace.overhead_ratio",
        measure::median(&traced) / measure::median(&plain) - 1.0,
    );

    let engine = if batches.is_empty() {
        let engine = fresh_engine(warmup);
        for entry in requests {
            replay_one(&engine, entry, Some(tracer));
        }
        engine
    } else {
        replay_with_ingest(tracer, out, warmup, requests, batches, work)
    };

    let counters = engine.plan_cache().counters();
    out.set(
        "query.plan_cache_hit_ratio",
        counters.hits as f64 / (counters.hits + counters.misses).max(1) as f64,
    );
    out.set("proto.decode_us", tracer.median_us("proto.decode"));
    out.set("proto.encode_us", tracer.median_us("proto.encode"));
    out.set(
        "server.self_us",
        tcp_point_p50_us - tracer.median_us("request.point"),
    );
    for (metric, span) in [
        ("engine.support.hit_us", "engine.support.hit"),
        ("engine.support.miss_us", "engine.support.miss"),
        ("engine.extensions.hit_us", "engine.extensions.hit"),
        ("engine.extensions.miss_us", "engine.extensions.miss"),
        ("engine.recommend.hit_us", "engine.recommend.hit"),
        ("engine.recommend.miss_us", "engine.recommend.miss"),
        ("engine.query_point.hit_us", "engine.query_point.hit"),
        ("engine.query_point.miss_us", "engine.query_point.miss"),
        ("engine.query_scan.hit_us", "engine.query_scan.hit"),
        ("engine.query_scan.miss_us", "engine.query_scan.miss"),
    ] {
        out.set(metric, tracer.median_us(span));
    }
    if !batches.is_empty() {
        out.set(
            "builder.wait_ms",
            measure::median(visible_ms)
                - (tracer.median_us("shard.apply") + tracer.median_us("snapshot.build")) / 1e3,
        );
    }

    snapshot_and_query_pass(tracer, out, &engine.current(), requests);
}

/// `serve-ingest`'s replay: reads interleaved with the accepted batches
/// applied through a durable pipeline and published.
fn replay_with_ingest(
    tracer: &mut Tracer,
    out: &mut Outcome,
    warmup: &TransactionDb,
    requests: &[&Pooled],
    batches: &[&Vec<Vec<Item>>],
    work: &Path,
) -> Arc<Engine> {
    let min_sup = warmup.absolute_support(SERVE_MIN_SUP);
    let config = builder_config(warmup.len(), min_sup, Some(warmup.len()), None);
    let shard_config = ShardConfig {
        shard_count: config.shard_count,
        min_support: config.min_support,
        rank_policy: config.rank_policy,
        capacity: Some(config.window_capacity),
        ..ShardConfig::default()
    };
    // As `bootstrap` opens it: the snapshot needs the merged result.
    let options = DurableOptions {
        materialize_merged: true,
        ..config.durable
    };
    let dir = work.join("replay");
    let mut pipe =
        DurablePipeline::open(&dir, shard_config, options).expect("open the replay store");
    pipe.apply(Delta::add(warmup.transactions().to_vec()))
        .expect("apply the warmup");
    let engine = Arc::new(Engine::new(Snapshot::build(
        1,
        pipe.pipeline().plt().clone(),
        pipe.result(),
        config.rule_config,
    )));

    let mut requests = requests.iter();
    let (mut dirty, mut total, mut reranks) = (0usize, 0usize, 0usize);
    let mut wal_per_txn = Vec::new();
    let mut checkpoint_ms = Vec::new();
    for (generation, batch) in (2u64..).zip(batches) {
        for entry in requests.by_ref().take(READS_PER_SLICE) {
            replay_one(&engine, entry, Some(tracer));
        }
        let before = pipe.store_stats();
        let t0 = Instant::now();
        let root = tracer.open("ingest.batch", ROOT, t0);
        let report = pipe
            .apply(Delta::add(batch.to_vec()))
            .expect("apply a replayed batch");
        let t1 = Instant::now();
        tracer.span("shard.apply", Some(root), t0, t1);
        let snapshot = Snapshot::build(
            generation,
            pipe.pipeline().plt().clone(),
            pipe.result(),
            config.rule_config,
        );
        let t2 = Instant::now();
        tracer.span("snapshot.build", Some(root), t1, t2);
        engine.publish(Arc::new(snapshot));
        let t3 = Instant::now();
        tracer.span("engine.publish", Some(root), t2, t3);
        tracer.close(root, t3);

        tracer.sample("shard.update", report.update.as_nanos() as f64);
        tracer.sample("shard.remine", report.remine.as_nanos() as f64);
        dirty += report.dirty_shards;
        total += report.total_shards;
        reranks += usize::from(report.reranked);
        let after = pipe.store_stats();
        if after.checkpoints > before.checkpoints {
            checkpoint_ms.push((t1 - t0).as_secs_f64() * 1e3);
        } else if after.wal_bytes > before.wal_bytes {
            wal_per_txn.push((after.wal_bytes - before.wal_bytes) as f64 / batch.len() as f64);
        }
    }
    for entry in requests {
        replay_one(&engine, entry, Some(tracer));
    }

    let stats = pipe.store_stats();
    let ms = |name: &str| tracer.median_us(name) / 1e3;
    out.set("shard.apply_ms", ms("shard.apply"));
    out.set("shard.update_ms", ms("shard.update"));
    out.set("shard.remine_ms", ms("shard.remine"));
    out.set("shard.dirty_ratio", dirty as f64 / total.max(1) as f64);
    out.set("shard.rerank_ratio", reranks as f64 / batches.len() as f64);
    out.set("snapshot.build_ms", ms("snapshot.build"));
    out.set("store.wal_bytes_per_txn", measure::median(&wal_per_txn));
    out.set("store.checkpoint_apply_ms", measure::median(&checkpoint_ms));
    out.set("store.checkpoints", stats.checkpoints as f64);
    drop(pipe);
    std::fs::remove_dir_all(&dir).ok();
    engine
}

/// The second pass: each layer below the engine called directly on one
/// snapshot, over the same requests.
fn snapshot_and_query_pass(
    tracer: &mut Tracer,
    out: &mut Outcome,
    snapshot: &Snapshot,
    requests: &[&Pooled],
) {
    let plans = PlanCache::new(256);
    let mut supports = 0usize;
    let mut oracle = 0usize;
    for entry in requests {
        let t0 = Instant::now();
        match &entry.request {
            Request::Support { items } => {
                let answer = std::hint::black_box(snapshot.support(items));
                let name = if answer.source == SupportSource::Oracle {
                    oracle += 1;
                    "snapshot.support_oracle"
                } else {
                    "snapshot.support_index"
                };
                supports += 1;
                tracer.span(name, ROOT, t0, Instant::now());
            }
            Request::Extensions { items, k } => {
                std::hint::black_box(snapshot.extensions(items, *k));
                tracer.span("snapshot.extensions", ROOT, t0, Instant::now());
            }
            Request::Recommend { items, k } => {
                std::hint::black_box(snapshot.recommend(items, *k));
                tracer.span("snapshot.recommend", ROOT, t0, Instant::now());
            }
            Request::Query { expr } => {
                std::hint::black_box(plt_query::parse(expr).expect("pool queries parse"));
                let t1 = Instant::now();
                tracer.span("query.parse", ROOT, t0, t1);
                let (_, provenance) =
                    plt_query::run_cached(expr, snapshot, &plans, &mut Obs::none())
                        .expect("pool queries run");
                let name = match provenance.plan.op {
                    PhysOp::IndexPoint => "query.exec.index_point",
                    PhysOp::ExtTraverse => "query.exec.ext_traverse",
                    PhysOp::RuleScan => "query.exec.rule_scan",
                    PhysOp::CondMine => "query.exec.cond_mine",
                    PhysOp::FullScan => "query.exec.full_scan",
                    PhysOp::SketchProbe => "query.exec.sketch_probe",
                };
                tracer.span(name, ROOT, t1, Instant::now());
            }
            other => panic!("the pool holds only read requests, not {other:?}"),
        }
    }
    out.set(
        "snapshot.support_index_us",
        tracer.median_us("snapshot.support_index"),
    );
    out.set(
        "snapshot.support_oracle_us",
        tracer.median_us("snapshot.support_oracle"),
    );
    out.set(
        "snapshot.oracle_share",
        oracle as f64 / supports.max(1) as f64,
    );
    out.set(
        "snapshot.extensions_us",
        tracer.median_us("snapshot.extensions"),
    );
    out.set(
        "snapshot.recommend_us",
        tracer.median_us("snapshot.recommend"),
    );
    out.set("query.parse_us", tracer.median_us("query.parse"));
    for (span, exec_us, share) in [
        (
            "query.exec.index_point",
            "query.exec_us.index_point",
            "query.plan_share.index_point",
        ),
        (
            "query.exec.ext_traverse",
            "query.exec_us.ext_traverse",
            "query.plan_share.ext_traverse",
        ),
        (
            "query.exec.rule_scan",
            "query.exec_us.rule_scan",
            "query.plan_share.rule_scan",
        ),
    ] {
        out.set(exec_us, tracer.median_us(span));
        out.set(share, tracer.count(span) as f64);
    }
}
