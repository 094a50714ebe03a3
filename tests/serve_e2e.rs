//! End-to-end exercise of the serving stack: mine a dataset, stand up a
//! TCP server on an ephemeral port, and drive it through the client —
//! cross-checking every wire answer against the miner's result, and the
//! ingest path against a re-mine of the grown window. Below the wire, a
//! property test drives the engine's snapshot slot through arbitrary
//! publishes, pins and answers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use plt::baselines::FpGrowthMiner;
use plt::core::construct::{construct, ConstructOptions};
use plt::core::miner::Miner;
use plt::data::{BasketConfig, BasketGenerator};
use plt::rules::RuleConfig;
use plt::serve::json::Json;
use plt::serve::{
    bootstrap, serve, BuilderConfig, Client, Engine, Request, ServerConfig, SketchConfig, Snapshot,
};
use plt::store::DurableOptions;
use plt::ConditionalMiner;
use proptest::prelude::*;

/// Start a server over `warmup` and return (handle, builder).
fn start(
    warmup: &[Vec<u32>],
    min_support: u64,
) -> (plt::serve::ServerHandle, plt::serve::BuilderHandle) {
    let config = BuilderConfig {
        window_capacity: warmup.len() * 4,
        min_support,
        ..BuilderConfig::default()
    };
    let (engine, builder) = bootstrap(warmup, config).expect("bootstrap");
    let handle = serve(
        "127.0.0.1:0",
        engine,
        Some(builder.queue()),
        ServerConfig {
            reactors: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    (handle, builder)
}

#[test]
fn wire_answers_match_the_miner() {
    let db = BasketGenerator::new(BasketConfig {
        num_baskets: 400,
        ..Default::default()
    })
    .generate();
    let min_support = db.absolute_support(0.05);
    let truth = ConditionalMiner::default().mine(db.transactions(), min_support);
    assert!(!truth.is_empty(), "dataset must have frequent itemsets");

    let (handle, builder) = start(db.transactions(), min_support);
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Every mined itemset's support is served exactly, from the index.
    for (itemset, support) in truth.iter() {
        let reply = client.support(itemset.items()).expect("support query");
        assert_eq!(reply.support, support, "support({itemset})");
        assert!(reply.frequent, "frequent({itemset})");
        assert_eq!(reply.source, "index", "source({itemset})");
    }

    // Top-k agrees with the miner's ranking by support.
    let top = client.top_k(10, 1).expect("top_k");
    assert!(!top.is_empty());
    assert!(
        top.windows(2).all(|w| w[0].1 >= w[1].1),
        "sorted by support"
    );
    for (items, support) in &top {
        assert_eq!(truth.support(items), Some(*support), "top_k {items:?}");
    }

    // Recommendations name items outside the basket and carry
    // confidences achievable from mined supports.
    let basket = top[0].0.clone();
    if let Ok(recs) = client.recommend(&basket, 5) {
        for (item, confidence) in recs {
            assert!(!basket.contains(&item));
            assert!((0.0..=1.0).contains(&confidence));
        }
    }

    client.shutdown().expect("shutdown");
    handle.join();
    builder.stop();
}

#[test]
fn cache_hits_show_up_in_stats() {
    let warmup = vec![
        vec![1, 2, 3],
        vec![1, 2, 3],
        vec![1, 2],
        vec![2, 3],
        vec![1, 3],
    ];
    let (handle, builder) = start(&warmup, 2);
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Same query three times: one miss, then hits.
    for _ in 0..3 {
        client.support(&[1, 2]).expect("support");
    }
    let stats = client.stats().expect("stats");
    let endpoints = stats
        .get("endpoints")
        .and_then(|v| v.as_arr())
        .expect("endpoints array");
    let support = endpoints
        .iter()
        .find(|e| e.get("endpoint").and_then(|v| v.as_str()) == Some("support"))
        .expect("support endpoint row");
    let hits = support.get("cache_hits").and_then(|v| v.as_u64()).unwrap();
    let misses = support
        .get("cache_misses")
        .and_then(|v| v.as_u64())
        .unwrap();
    assert_eq!(misses, 1, "first query misses");
    assert_eq!(hits, 2, "repeats hit the cache");
    assert!(
        support.get("p50_us").and_then(|v| v.as_u64()).is_some(),
        "latency quantiles populated"
    );

    // The reactor serves every connection on Linux and reports its own
    // gauges in `stats`.
    if cfg!(target_os = "linux") {
        let reactor = stats.get("reactor").expect("reactor stats block");
        assert!(
            reactor.get("reactors").and_then(|v| v.as_u64()).unwrap() >= 1,
            "reactor threads registered"
        );
        assert!(
            reactor.get("accepted").and_then(|v| v.as_u64()).unwrap() >= 1,
            "accepted connections counted"
        );
    }

    client.shutdown().expect("shutdown");
    handle.join();
    builder.stop();
}

#[test]
fn ingest_republishes_and_answers_reflect_the_new_window() {
    let warmup = vec![vec![1, 2], vec![1, 2], vec![1, 3]];
    let (handle, builder) = start(&warmup, 2);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let g0 = client.ping().expect("ping");
    assert_eq!(g0, 1);
    // Item 3 is infrequent in the warmup (1 < min_support), so it holds
    // no rank in generation 1 and the service reports 0 for it.
    let before = client.support(&[1, 3]).unwrap();
    assert_eq!(before.support, 0);
    assert!(!before.frequent);

    // Stream two more {1,3} transactions and wait for the publish.
    let g1 = client
        .ingest(vec![vec![1, 3], vec![1, 3]], true)
        .expect("ingest")
        .expect("generation in wait mode");
    assert!(g1 > g0);

    // The served answers now reflect the grown window...
    assert_eq!(client.support(&[1, 3]).unwrap().support, 3);
    // ...and match an offline re-mine of the same transactions.
    let mut grown = warmup.clone();
    grown.push(vec![1, 3]);
    grown.push(vec![1, 3]);
    let truth = ConditionalMiner::default().mine(&grown, 2);
    for (itemset, support) in truth.iter() {
        let reply = client.support(itemset.items()).expect("support");
        assert_eq!(reply.support, support, "{itemset}");
    }

    client.shutdown().expect("shutdown");
    handle.join();
    builder.stop();
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let warmup: Vec<Vec<u32>> = (0..50).map(|i| vec![1, 2, 3 + (i % 3) as u32]).collect();
    let (handle, builder) = start(&warmup, 2);
    let addr = handle.addr();

    let threads: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..25 {
                    let reply = client.support(&[1, 2]).expect("support");
                    assert_eq!(reply.support, 50);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join();
    builder.stop();
}

#[test]
fn query_endpoint_answers_over_the_wire_with_provenance() {
    // Large enough that the PLT holds many distinct vectors: the cost
    // model must prefer the index operators over the full scan.
    let db = BasketGenerator::new(BasketConfig {
        num_baskets: 400,
        ..Default::default()
    })
    .generate();
    let min_support = db.absolute_support(0.05);
    let (handle, builder) = start(db.transactions(), min_support);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let top = client.top_k(1, 1).expect("top_k");
    let probe = top[0].0.clone();
    let probe_expr = probe
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(", ");

    // Point lookup: provenance names the index operator and the
    // answer matches the dedicated support endpoint exactly.
    let v = client
        .query(&format!("SUPPORT OF {{{probe_expr}}}"))
        .expect("query");
    assert_eq!(v.get("row_kind").and_then(|x| x.as_str()), Some("support"));
    assert_eq!(v.get("plan").and_then(|x| x.as_str()), Some("index_point"));
    assert_eq!(v.get("cache_hit").and_then(|x| x.as_bool()), Some(false));
    assert_eq!(v.get("generation").and_then(|x| x.as_u64()), Some(1));
    assert!(v.get("cost").and_then(|x| x.as_f64()).unwrap() >= 0.0);
    let rows = v.get("rows").and_then(|x| x.as_arr()).expect("rows");
    assert_eq!(rows.len(), 1);
    let support = rows[0].get("support").and_then(|x| x.as_u64()).unwrap();
    assert_eq!(support, client.support(&probe).unwrap().support);

    // Top-k rides the extension index and rows come back in
    // canonical support-descending order.
    let v = client.query("TOP 3").expect("query");
    assert_eq!(v.get("plan").and_then(|x| x.as_str()), Some("ext_traverse"));
    let rows = v.get("rows").and_then(|x| x.as_arr()).expect("rows");
    assert_eq!(rows.len(), 3);
    let sups: Vec<u64> = rows
        .iter()
        .map(|r| r.get("support").and_then(|x| x.as_u64()).unwrap())
        .collect();
    assert!(sups.windows(2).all(|w| w[0] >= w[1]), "{sups:?}");

    // Rules and on-demand conditional mining answer too.
    let v = client
        .query("RULES WHERE confidence >= 0.5 TOP 4")
        .expect("query");
    assert_eq!(v.get("row_kind").and_then(|x| x.as_str()), Some("rules"));
    assert_eq!(v.get("plan").and_then(|x| x.as_str()), Some("rule_scan"));
    let v = client
        .query(&format!("MINE COND {{{}}} TOP 2", probe[0]))
        .expect("query");
    assert_eq!(v.get("row_kind").and_then(|x| x.as_str()), Some("itemsets"));

    client.shutdown().expect("shutdown");
    handle.join();
    builder.stop();
}

#[test]
fn query_plan_cache_hits_and_publish_invalidation_over_the_wire() {
    let warmup = vec![vec![1, 2], vec![1, 2], vec![1, 3], vec![2, 3]];
    let (handle, builder) = start(&warmup, 2);
    let mut client = Client::connect(handle.addr()).expect("connect");

    // First spelling plans fresh; a *different* spelling with the
    // same normal form must hit the plan cache (distinct response
    // cache keys, so the plan layer really answers both).
    let v1 = client
        .query("TOP 3 WHERE support >= 2 AND size >= 1")
        .expect("query");
    assert_eq!(v1.get("cache_hit").and_then(|x| x.as_bool()), Some(false));
    let v2 = client
        .query("top 3 WHERE size >= 1 and SUPPORT >= 2")
        .expect("query");
    assert_eq!(
        v2.get("cache_hit").and_then(|x| x.as_bool()),
        Some(true),
        "normalized spellings share one plan"
    );
    assert_eq!(
        v1.get("rows").map(|r| r.to_string()),
        v2.get("rows").map(|r| r.to_string()),
        "cached plan returns identical rows"
    );

    // Publishing a new generation invalidates the cached plan: the
    // same normalized query re-plans against the new snapshot.
    let g = client
        .ingest(vec![vec![1, 3], vec![1, 3]], true)
        .expect("ingest")
        .expect("generation");
    let v3 = client
        .query("TOP 3 WHERE support >= 2 AND size >= 1")
        .expect("query");
    assert_eq!(v3.get("generation").and_then(|x| x.as_u64()), Some(g));
    assert_eq!(
        v3.get("cache_hit").and_then(|x| x.as_bool()),
        Some(false),
        "publish invalidates cached plans"
    );

    client.shutdown().expect("shutdown");
    handle.join();
    builder.stop();
}

#[test]
fn malformed_queries_are_typed_errors_and_leave_the_connection_usable() {
    let (handle, builder) = start(&[vec![1, 2], vec![1, 2], vec![2, 3]], 2);
    let mut client = Client::connect(handle.addr()).expect("connect");

    for bad in [
        "TOP",
        "SUPPORT OF {}",
        "RULES WHERE size >= 2",
        "MINE COND {1,1}",
        "gibberish",
    ] {
        let err = client.query(bad).unwrap_err();
        assert!(
            err.to_string().contains("query:"),
            "`{bad}` should be a typed query error, got {err}"
        );
    }
    // The connection survives every rejected expression.
    assert_eq!(client.ping().expect("connection still usable"), 1);
    let v = client.query("TOP 1").expect("good query still answers");
    assert_eq!(v.get("row_kind").and_then(|x| x.as_str()), Some("itemsets"));

    client.shutdown().expect("shutdown");
    handle.join();
    builder.stop();
}

#[test]
fn approx_tier_serves_bounded_answers() {
    let db = BasketGenerator::new(BasketConfig {
        num_baskets: 400,
        ..Default::default()
    })
    .generate();
    let min_support = db.absolute_support(0.05);
    let config = BuilderConfig {
        window_capacity: db.transactions().len() * 4,
        min_support,
        sketch: Some(SketchConfig {
            epsilon: 0.05,
            delta: 0.01,
            ..SketchConfig::default()
        }),
        ..BuilderConfig::default()
    };
    let (engine, builder) = bootstrap(db.transactions(), config).expect("bootstrap");
    let handle = serve(
        "127.0.0.1:0",
        engine,
        Some(builder.queue()),
        ServerConfig {
            reactors: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Every APPROX answer honors its stated contract: when a sketch
    // answers, the estimate is within the advertised error bound of
    // the exact support; when the planner falls back, the answer is
    // exact and flagged as such.
    let top = client.top_k(3, 1).expect("top_k");
    for (items, exact) in &top {
        let expr = items
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let v = client
            .query(&format!("SUPPORT OF {{{expr}}} APPROX"))
            .expect("approx query");
        let approx = v
            .get("approx")
            .and_then(|x| x.as_bool())
            .expect("approx flag on every query response");
        let rows = v.get("rows").and_then(|x| x.as_arr()).expect("rows");
        let est = rows[0].get("support").and_then(|x| x.as_u64()).unwrap();
        if approx {
            let bound = v
                .get("error_bound")
                .and_then(|x| x.as_u64())
                .expect("approx answers state their bound");
            assert!(
                est.abs_diff(*exact) <= bound,
                "|{est} - {exact}| > {bound} for {items:?}"
            );
        } else {
            assert_eq!(est, *exact, "exact fallback");
        }
    }

    // The default tier stays EXACT: no approx flag, answers match
    // the dedicated support endpoint.
    let expr = top[0]
        .0
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let v = client
        .query(&format!("SUPPORT OF {{{expr}}}"))
        .expect("exact query");
    assert_eq!(v.get("approx").and_then(|x| x.as_bool()), Some(false));
    let rows = v.get("rows").and_then(|x| x.as_arr()).expect("rows");
    assert_eq!(
        rows[0].get("support").and_then(|x| x.as_u64()),
        Some(top[0].1)
    );

    // An ingest feeds the sketch and republishes; the published
    // answers match an offline exact re-mine of the window.
    let extra = vec![db.transactions()[0].clone(), db.transactions()[1].clone()];
    client
        .ingest(extra.clone(), true)
        .expect("ingest")
        .expect("generation");
    let mut grown = db.transactions().to_vec();
    grown.extend(extra);
    let truth = ConditionalMiner::default().mine(&grown, min_support);
    for (itemset, support) in truth.iter().take(20) {
        let reply = client.support(itemset.items()).expect("support");
        assert_eq!(
            reply.support, support,
            "rebuild must stay exact for {itemset}"
        );
    }

    // Stats surface the approximate tier: sketch gauges and approx
    // counters.
    let stats = client.stats().expect("stats");
    let sketch = stats.get("sketch").expect("sketch stats block");
    assert!(sketch.get("epsilon").and_then(|x| x.as_f64()).unwrap() > 0.0);
    assert!(sketch.get("memory_bytes").and_then(|x| x.as_u64()).unwrap() > 0);
    let approx_stats = stats
        .get("query")
        .and_then(|q| q.get("approx"))
        .expect("approx counters");
    assert!(
        approx_stats
            .get("requests")
            .and_then(|x| x.as_u64())
            .unwrap()
            >= top.len() as u64,
        "APPROX requests counted"
    );

    client.shutdown().expect("shutdown");
    handle.join();
    builder.stop();
}

/// Sorted keys of a JSON object.
fn keys(v: &Json) -> Vec<&str> {
    let Json::Obj(pairs) = v else {
        panic!("expected an object, got {v}");
    };
    let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    keys
}

#[test]
fn stats_reply_fields_are_pinned() {
    let warmup = vec![vec![1, 2], vec![1, 2], vec![1, 3]];
    let (handle, builder) = start(&warmup, 2);
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .ingest(vec![vec![1, 3]], true)
        .expect("ingest")
        .expect("generation");
    let stats = client.stats().expect("stats");

    let expect = [
        "builder_failures",
        "cache_entries",
        "endpoints",
        "generation",
        "min_support",
        "num_itemsets",
        "num_rules",
        "num_transactions",
        "ok",
        "protocol_errors",
        "publishes",
        "query",
        "reactor",
        "rebuild",
        "rejected_connections",
        "sketch",
        "stale",
        "state",
        "storage",
        "timeouts",
    ];
    assert_eq!(keys(&stats), expect);
    let rebuild = stats.get("rebuild").expect("rebuild block");
    assert_eq!(
        keys(rebuild),
        [
            "dirty_shards",
            "push_us",
            "rebuilds",
            "rerank_us",
            "shard_count",
            "snapshot_us",
            "total_us",
        ]
    );
    let endpoint = &stats.get("endpoints").and_then(|e| e.as_arr()).unwrap()[0];
    assert_eq!(
        keys(endpoint),
        [
            "cache_hits",
            "cache_misses",
            "endpoint",
            "p50_us",
            "p99_us",
            "requests"
        ]
    );

    client.shutdown().expect("shutdown");
    handle.join();
    builder.stop();
}

#[test]
fn each_wait_ingest_publishes_exactly_once() {
    let warmup = vec![vec![1, 2], vec![1, 2], vec![1, 3]];
    let config = BuilderConfig {
        window_capacity: 1_000,
        min_support: 2,
        ..BuilderConfig::default()
    };
    let (engine, builder) = bootstrap(&warmup, config).expect("bootstrap");
    let handle = serve(
        "127.0.0.1:0",
        engine.clone(),
        Some(builder.queue()),
        ServerConfig::default(),
    )
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for round in 0..50u32 {
        let before = engine.metrics().publishes.load(Ordering::Relaxed);
        let generation = client
            .ingest(vec![vec![1, 2 + round % 3]], true)
            .expect("ingest")
            .expect("generation in wait mode");
        let after = engine.metrics().publishes.load(Ordering::Relaxed);
        assert_eq!(after, before + 1, "round {round}");
        assert_eq!(engine.current().generation(), generation);
    }

    client.shutdown().expect("shutdown");
    handle.join();
    builder.stop();
}

#[test]
fn malformed_requests_get_protocol_errors() {
    let (handle, builder) = start(&[vec![1, 2], vec![1, 2]], 2);
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Unknown op is a server-reported error, not a dropped connection;
    // the same connection keeps working afterwards.
    let err = client.request_raw(r#"{"op":"warp"}"#).unwrap_err();
    assert!(err.to_string().contains("warp"), "{err}");
    assert_eq!(client.ping().expect("connection still usable"), 1);

    // `Request` round-trips still work via the raw path.
    let v = client
        .request_raw(&Request::Support { items: vec![1] }.to_json().to_string())
        .expect("raw support");
    assert_eq!(v.get("support").and_then(|s| s.as_u64()), Some(2));

    client.shutdown().expect("shutdown");
    handle.join();
    builder.stop();
}

/// Every support the service answers for the FP-growth mine of `window`
/// equals the miner's, and the service holds exactly that many
/// frequent itemsets.
fn assert_serves_window(client: &mut Client, window: &[Vec<u32>], min_support: u64, label: &str) {
    let truth = FpGrowthMiner.mine(window, min_support);
    assert!(truth.len() > 10, "{label}: fixture needs a real family");
    for (itemset, support) in truth.iter() {
        let reply = client.support(itemset.items()).expect("support");
        assert_eq!(reply.support, support, "{label}: support({itemset})");
        assert!(reply.frequent, "{label}: frequent({itemset})");
    }
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.get("num_itemsets").and_then(|v| v.as_u64()),
        Some(truth.len() as u64),
        "{label}: itemset count"
    );
}

#[test]
fn durable_service_recovers_its_window_across_a_wire_restart() {
    let dir = std::env::temp_dir().join(format!("plt-serve-e2e-durable-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = BasketGenerator::new(BasketConfig {
        num_baskets: 240,
        ..Default::default()
    })
    .generate();
    let (warmup, stream) = db.transactions().split_at(120);
    // The window holds 180 transactions, so the stream slides it.
    let capacity = 180;
    let min_support = 9;
    let config = BuilderConfig {
        window_capacity: capacity,
        min_support,
        data_dir: Some(dir.clone()),
        durable: DurableOptions {
            checkpoint_every: Some(3),
            ..DurableOptions::default()
        },
        ..BuilderConfig::default()
    };
    let start = |config: BuilderConfig| {
        let (engine, builder) = bootstrap(warmup, config).expect("bootstrap");
        let handle = serve(
            "127.0.0.1:0",
            engine,
            Some(builder.queue()),
            ServerConfig::default(),
        )
        .expect("bind ephemeral port");
        (handle, builder)
    };

    let (handle, builder) = start(config.clone());
    let addr = handle.addr();
    // One connection reads while another ingests with `wait: true`: the
    // reader never sees the generation go backwards.
    let writing = Arc::new(AtomicBool::new(true));
    let reader = std::thread::spawn({
        let writing = writing.clone();
        let probe = warmup[0].clone();
        move || {
            let mut client = Client::connect(addr).expect("reader connect");
            let (mut reads, mut last) = (0u64, 0u64);
            while reads == 0 || writing.load(Ordering::SeqCst) {
                let reply = client.support(&probe).expect("read during ingest");
                assert!(reply.generation >= last, "generation went backwards");
                last = reply.generation;
                reads += 1;
            }
            reads
        }
    });
    let mut writer = Client::connect(addr).expect("writer connect");
    let mut generation = writer.ping().expect("ping");
    for batch in stream.chunks(12) {
        let published = writer
            .ingest(batch.to_vec(), true)
            .expect("ingest")
            .expect("generation in wait mode");
        assert!(published > generation, "each wait ingest publishes");
        generation = published;
    }
    writing.store(false, Ordering::SeqCst);
    assert!(reader.join().expect("reader thread") > 0);

    let window = &db.transactions()[db.len() - capacity..];
    assert_serves_window(&mut writer, window, min_support, "before restart");
    let stats = writer.stats().expect("stats");
    let storage = stats.get("storage").expect("storage block");
    assert!(
        storage.get("checkpoints").and_then(|v| v.as_u64()).unwrap() >= 1,
        "ingest checkpointed: {stats}"
    );
    writer.shutdown().expect("shutdown");
    handle.join();
    builder.stop();

    // Same directory, fresh process state: the store's window wins over
    // the warmup handed to `bootstrap`.
    let (handle, builder) = start(config);
    let mut client = Client::connect(handle.addr()).expect("connect after restart");
    assert_serves_window(&mut client, window, min_support, "after restart");
    client.shutdown().expect("shutdown");
    handle.join();
    builder.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Itemsets whose supports move with the generation (see
/// `generation_snapshot`), so a pin on the wrong generation shows.
const PROBES: [&[u32]; 3] = [&[0], &[1], &[0, 1]];

/// Generation `g`'s snapshot, over a window where `{0, 1}` appears
/// `g % 4 + 1` times and `{1}` `g % 3 + 1` times beside two `{0, 2}`.
fn generation_snapshot(generation: u64) -> Snapshot {
    let mut db = vec![vec![0, 2], vec![0, 2]];
    db.extend((0..generation % 4 + 1).map(|_| vec![0, 1]));
    db.extend((0..generation % 3 + 1).map(|_| vec![1]));
    let plt = construct(&db, 1, ConstructOptions::conditional()).unwrap();
    let result = ConditionalMiner::default().mine(&db, 1);
    Snapshot::build(generation, plt, &result, RuleConfig::default())
}

fn probe_supports(snapshot: &Snapshot) -> Vec<u64> {
    PROBES.iter().map(|p| snapshot.support(p).support).collect()
}

/// One step of an engine interleaving, decoded from a `(tag, arg)` pair
/// because the vendored proptest has no `prop_oneof`.
#[derive(Debug)]
enum Step {
    /// Publish the next generation.
    Publish,
    /// Pin with `current()` and keep the `Arc`.
    Pin,
    /// Drop a kept pin (by index, modulo the pins alive).
    Unpin(usize),
    /// Answer a `support` request for `PROBES[probe]`, through `handle`
    /// (`via: None`) or `handle_cached` with reactor slot `via`.
    Answer { via: Option<usize>, probe: usize },
}

fn decode_step((tag, arg): (u8, u8)) -> Step {
    let arg = usize::from(arg);
    match tag {
        0 => Step::Publish,
        1 => Step::Pin,
        2 => Step::Unpin(arg),
        _ => Step::Answer {
            via: [None, Some(0), Some(1)][arg % 3],
            probe: arg / 3 % PROBES.len(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under arbitrary interleavings of publishes, kept pins, unpins and
    /// `support` answers (direct and through two reactor slots):
    ///
    /// * a kept pin's generation and supports never change;
    /// * a fresh pin and every reply name the last published generation
    ///   and answer from it, so the response cache never answers for an
    ///   older one;
    /// * a replaced snapshot is freed once no pin and no reactor slot
    ///   holds it.
    #[test]
    fn prop_pins_hold_one_generation_and_replaced_snapshots_are_freed(
        raw_steps in proptest::collection::vec((0u8..4, any::<u8>()), 1..64),
    ) {
        let engine = Engine::new(generation_snapshot(1));
        let mut last = 1u64;
        // `expected[g - 1]` and `freed[g - 1]`: generation g's probe
        // supports and a handle that upgrades while anything holds it.
        let mut expected = vec![probe_supports(&engine.current())];
        let mut freed = vec![Arc::downgrade(&engine.current())];
        let mut slots: [Option<Arc<Snapshot>>; 2] = [None, None];
        let mut pins: Vec<(Arc<Snapshot>, u64, Vec<u64>)> = Vec::new();

        for step in raw_steps.into_iter().map(decode_step) {
            match step {
                Step::Publish => {
                    last += 1;
                    let snapshot = Arc::new(generation_snapshot(last));
                    expected.push(probe_supports(&snapshot));
                    freed.push(Arc::downgrade(&snapshot));
                    engine.publish(snapshot);
                }
                Step::Pin => {
                    let pin = engine.current();
                    prop_assert_eq!(pin.generation(), last);
                    let supports = probe_supports(&pin);
                    prop_assert_eq!(&supports, &expected[last as usize - 1]);
                    pins.push((pin, last, supports));
                }
                Step::Unpin(i) => {
                    if !pins.is_empty() {
                        pins.swap_remove(i % pins.len());
                    }
                }
                Step::Answer { via, probe } => {
                    let request = Request::Support { items: PROBES[probe].to_vec() };
                    let reply = match via {
                        None => engine.handle(&request),
                        Some(slot) => engine.handle_cached(&request, &mut slots[slot]),
                    };
                    let v = Json::parse(&reply).unwrap();
                    prop_assert_eq!(v.get("generation").and_then(|g| g.as_u64()), Some(last));
                    prop_assert_eq!(
                        v.get("support").and_then(|s| s.as_u64()),
                        Some(expected[last as usize - 1][probe])
                    );
                }
            }
            for (pin, generation, supports) in &pins {
                prop_assert_eq!(pin.generation(), *generation);
                prop_assert_eq!(&probe_supports(pin), supports);
            }
            for (i, handle) in freed.iter().enumerate() {
                let generation = i as u64 + 1;
                let held = generation == last
                    || pins.iter().any(|(_, g, _)| *g == generation)
                    || slots.iter().flatten().any(|s| s.generation() == generation);
                prop_assert_eq!(
                    handle.upgrade().is_some(),
                    held,
                    "generation {} (last {})",
                    generation,
                    last
                );
            }
        }

        drop(pins);
        drop(slots);
        for (i, handle) in freed.iter().enumerate() {
            prop_assert_eq!(handle.upgrade().is_some(), i as u64 + 1 == last);
        }
    }
}
