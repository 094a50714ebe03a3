//! Seeded chaos suite for the serving stack: deterministic fault
//! injection must be bit-reproducible, chaos runs must never produce a
//! wrong answer (differential-checked against the miner on the same
//! window), builder panics must degrade the service to its last good
//! snapshot — and raw malformed wire input must yield typed error
//! frames, never a panic or a hang.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use plt::core::miner::Miner;
use plt::serve::{
    bootstrap, serve, BuilderConfig, Client, ClientConfig, FaultConfig, FaultPlan, RetryPolicy,
    ServerConfig, ServerHandle,
};
use plt::ConditionalMiner;

/// Seeds every chaos test runs under — distinct, fixed, and echoed in
/// assertion messages so a failure names its seed.
const CHAOS_SEEDS: [u64; 3] = [0xA11CE, 0x0B0B_5EED, 0xC0FFEE];

fn warmup_db() -> Vec<Vec<u32>> {
    // Small but non-trivial: overlapping itemsets across 6 items so the
    // mined family has depth (pairs and triples), deterministic content.
    (0..48)
        .map(|i: u32| match i % 4 {
            0 => vec![1, 2, 3],
            1 => vec![1, 2, 4],
            2 => vec![2, 3, 5],
            _ => vec![1, 3, 6],
        })
        .collect()
}

fn start(
    warmup: &[Vec<u32>],
    min_support: u64,
    server_fault: Option<Arc<FaultPlan>>,
    builder_fault: Option<Arc<FaultPlan>>,
) -> (
    ServerHandle,
    plt::serve::BuilderHandle,
    Arc<plt::serve::Engine>,
) {
    let config = BuilderConfig {
        window_capacity: warmup.len() * 4,
        min_support,
        fault: builder_fault,
        ..BuilderConfig::default()
    };
    let (engine, builder) = bootstrap(warmup, config).expect("bootstrap");
    let handle = serve(
        "127.0.0.1:0",
        engine.clone(),
        Some(builder.queue()),
        ServerConfig {
            reactors: 2,
            fault: server_fault,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    (handle, builder, engine)
}

// ---------------------------------------------------------------------------
// Reproducibility: the fault sequence is a pure function of the seed.
// ---------------------------------------------------------------------------

/// Drives a plan through a fixed mixed-site draw schedule, as the server,
/// client, and builder would, and returns the injected-event log.
fn drive(plan: &FaultPlan) -> Vec<plt::serve::FaultEvent> {
    use plt::serve::Site;
    for i in 0..400 {
        let _ = plan.frame_fault(Site::ServerWrite, 64 + i % 37);
        let _ = plan.frame_fault(Site::ClientWrite, 32 + i % 17);
        let _ = plan.io_fault(Site::ServerRead);
        let _ = plan.io_fault(Site::ClientRead);
        let _ = plan.io_fault(Site::ClientWrite);
    }
    plan.events()
}

#[test]
fn same_seed_reproduces_the_exact_fault_sequence() {
    for seed in CHAOS_SEEDS {
        let a = drive(&FaultPlan::new(FaultConfig::chaos(seed)));
        let b = drive(&FaultPlan::new(FaultConfig::chaos(seed)));
        assert!(!a.is_empty(), "seed {seed:#x}: chaos knobs never fired");
        assert_eq!(a, b, "seed {seed:#x}: fault sequence not reproducible");
    }
    // Distinct seeds give distinct sequences — the knob is real.
    let a = drive(&FaultPlan::new(FaultConfig::chaos(CHAOS_SEEDS[0])));
    let b = drive(&FaultPlan::new(FaultConfig::chaos(CHAOS_SEEDS[1])));
    assert_ne!(a, b);
}

// ---------------------------------------------------------------------------
// Chaos differential: under injected faults on both sides of the wire,
// every *successful* answer must still be exactly the miner's answer.
// ---------------------------------------------------------------------------

#[test]
fn chaos_runs_never_return_a_wrong_answer() {
    let db = warmup_db();
    let min_support = 6;
    let truth = ConditionalMiner::default().mine(&db, min_support);
    assert!(truth.len() >= 10, "fixture must have a real family");

    for seed in CHAOS_SEEDS {
        let server_plan = FaultPlan::shared(FaultConfig::chaos(seed));
        let client_plan = FaultPlan::shared(FaultConfig::chaos(seed.wrapping_add(1)));
        let (handle, builder, _engine) = start(&db, min_support, Some(server_plan.clone()), None);

        let mut client = Client::with_config(
            handle.addr(),
            ClientConfig {
                retry: RetryPolicy {
                    max_retries: 8,
                    base_backoff: Duration::from_millis(2),
                    max_backoff: Duration::from_millis(20),
                    jitter_seed: seed,
                },
                fault: Some(client_plan.clone()),
                ..ClientConfig::default()
            },
        )
        .expect("connect");

        let mut answered = 0usize;
        for (itemset, support) in truth.iter() {
            // A request may exhaust its retries under chaos — that is a
            // visible transport error, which is fine. What is never fine
            // is a *wrong* answer.
            if let Ok(reply) = client.support(itemset.items()) {
                assert_eq!(
                    reply.support, support,
                    "seed {seed:#x}: wrong support for {itemset}"
                );
                assert!(reply.frequent, "seed {seed:#x}: {itemset} not frequent");
                assert!(!reply.stale, "seed {seed:#x}: no rebuild failed");
                answered += 1;
            }
        }
        assert!(
            answered * 2 >= truth.len(),
            "seed {seed:#x}: chaos starved the client ({answered}/{})",
            truth.len()
        );
        assert!(
            !server_plan.events().is_empty() || !client_plan.events().is_empty(),
            "seed {seed:#x}: chaos run injected nothing"
        );

        // The server survived the whole run: a fresh client (high retry
        // budget — the server's fault plan also applies to it) still
        // gets exact answers.
        let mut probe = Client::with_config(
            handle.addr(),
            ClientConfig {
                retry: RetryPolicy {
                    max_retries: 8,
                    base_backoff: Duration::from_millis(2),
                    max_backoff: Duration::from_millis(20),
                    jitter_seed: seed.wrapping_add(2),
                },
                ..ClientConfig::default()
            },
        )
        .expect("clean connect");
        assert_eq!(probe.ping().expect("ping after chaos"), 1);
        let (some_itemset, some_support) = truth.iter().next().unwrap();
        assert_eq!(
            probe
                .support(some_itemset.items())
                .expect("clean support")
                .support,
            some_support
        );
        // `shutdown` is never retried, and the faulty server may tear its
        // ack — stop via the handle instead.
        handle.shutdown();
        builder.stop();
    }
}

// ---------------------------------------------------------------------------
// Graceful degradation: builder panics every rebuild, the service keeps
// answering from the last good snapshot and says so.
// ---------------------------------------------------------------------------

#[test]
fn builder_panics_degrade_to_the_last_good_snapshot() {
    let db = warmup_db();
    let min_support = 6;
    let truth = ConditionalMiner::default().mine(&db, min_support);
    let builder_plan = FaultPlan::shared(FaultConfig {
        builder_panic: 1.0,
        ..FaultConfig::disabled(0xDEAD)
    });
    // The warmup build is never faulted; every later rebuild panics.
    let (handle, builder, _engine) = start(&db, min_support, None, Some(builder_plan.clone()));
    let mut client = Client::connect(handle.addr()).expect("connect");

    assert_eq!(client.ping().expect("ping"), 1);
    assert!(!client.support(&[1, 2]).expect("fresh support").stale);

    // Two ingests, both rebuilds panic: flush still acks (with the old
    // generation), the server never hangs.
    for _ in 0..2 {
        let g = client
            .ingest(vec![vec![1, 2, 3], vec![1, 2, 3]], true)
            .expect("ingest must not hang on a failed rebuild");
        assert_eq!(g, Some(1), "failed rebuild keeps the old generation");
    }
    assert!(
        builder_plan.events().iter().any(|e| e.kind == "panic"),
        "builder fault never fired"
    );

    // Degradation is visible: answers carry stale=true but are still the
    // last good snapshot's exact answers.
    for (itemset, support) in truth.iter().take(10) {
        let reply = client.support(itemset.items()).expect("degraded support");
        assert_eq!(reply.support, support, "degraded answer for {itemset}");
        assert!(reply.stale, "degraded answers must be marked stale");
    }
    assert_eq!(client.ping().expect("ping"), 1, "generation unchanged");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("stale").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(stats.get("state").and_then(|v| v.as_str()), Some("stale"));
    // Each `ingest wait=true` triggers one or two rebuilds (the batch
    // and the racing flush may coalesce or not), all of which panic.
    let failures = stats
        .get("builder_failures")
        .and_then(|v| v.as_u64())
        .expect("builder_failures in stats");
    assert!((2..=4).contains(&failures), "failures = {failures}");

    client.shutdown().expect("shutdown");
    handle.join();
    builder.stop();
}

// ---------------------------------------------------------------------------
// Malformed wire input: typed error frames, never a panic or a hang.
// ---------------------------------------------------------------------------

/// Reads one `<len>\n<payload>\n` frame off a raw socket.
fn read_raw_frame(r: &mut impl BufRead) -> Option<String> {
    let mut header = String::new();
    if r.read_line(&mut header).ok()? == 0 {
        return None;
    }
    let len: usize = header.trim().parse().ok()?;
    let mut payload = vec![0u8; len + 1];
    r.read_exact(&mut payload).ok()?;
    payload.pop(); // trailing newline
    String::from_utf8(payload).ok()
}

/// Sends raw bytes, returns the first response frame (None on EOF).
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> Option<String> {
    let mut stream = TcpStream::connect(addr).expect("raw connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(bytes).expect("raw write");
    let mut reader = BufReader::new(stream);
    read_raw_frame(&mut reader)
}

fn assert_error_frame(frame: Option<String>, needle: &str, label: &str) {
    let frame = frame.unwrap_or_else(|| panic!("{label}: connection closed with no error frame"));
    assert!(
        frame.contains("\"ok\":false"),
        "{label}: expected a typed error frame, got {frame}"
    );
    assert!(
        frame.contains(needle),
        "{label}: error should mention {needle:?}, got {frame}"
    );
}

#[test]
fn malformed_wire_input_yields_typed_error_frames() {
    let (handle, builder, engine) = start(&warmup_db(), 6, None, None);
    let addr = handle.addr();

    // Non-numeric length prefix: error frame, then the connection closes.
    assert_error_frame(
        raw_exchange(addr, b"notanumber\n{}\n"),
        "invalid frame header",
        "non-numeric length",
    );

    // Length past the frame limit: rejected before allocation.
    let huge = format!("{}\n", 16 * 1024 * 1024 + 1);
    assert_error_frame(
        raw_exchange(addr, huge.as_bytes()),
        "exceeds limit",
        "oversized length",
    );

    // Missing trailing newline after the payload.
    assert_error_frame(
        raw_exchange(addr, b"2\n{}X"),
        "trailing newline",
        "missing frame terminator",
    );

    // Truncated JSON in a well-formed frame: error frame, and the
    // connection *stays usable* — JSON-level errors are recoverable.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let bad = r#"{"op":"sup"#;
    write!(stream, "{}\n{}\n", bad.len(), bad).unwrap();
    let read_stream = stream.try_clone().unwrap();
    let mut reader = BufReader::new(read_stream);
    let frame = read_raw_frame(&mut reader).expect("error frame for truncated JSON");
    assert!(frame.contains("\"ok\":false"), "{frame}");
    // Same connection, now a valid request:
    let ping = r#"{"op":"ping"}"#;
    write!(stream, "{}\n{}\n", ping.len(), ping).unwrap();
    let frame = read_raw_frame(&mut reader).expect("ping after recoverable error");
    assert!(frame.contains("\"ok\":true"), "{frame}");

    // Trailing garbage after a complete JSON value.
    let garbage = r#"{"op":"ping"} extra"#;
    let framed = format!("{}\n{}\n", garbage.len(), garbage);
    assert_error_frame(
        raw_exchange(addr, framed.as_bytes()),
        "trailing characters",
        "trailing garbage",
    );

    // Every case above was counted, and none of them took the server
    // down.
    let errors = engine
        .metrics()
        .protocol_errors
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(errors >= 5, "expected >=5 protocol errors, saw {errors}");
    let mut client = Client::connect(addr).expect("server still up");
    assert_eq!(client.ping().expect("ping"), 1);
    client.shutdown().expect("shutdown");
    handle.join();
    builder.stop();
}

// ---------------------------------------------------------------------------
// Backpressure and deadlines.
// ---------------------------------------------------------------------------

#[test]
fn connections_past_the_cap_are_refused_with_an_error_frame() {
    let db = warmup_db();
    let config = BuilderConfig {
        window_capacity: db.len() * 2,
        min_support: 6,
        ..BuilderConfig::default()
    };
    let (engine, builder) = bootstrap(&db, config).expect("bootstrap");
    let handle = serve(
        "127.0.0.1:0",
        engine.clone(),
        Some(builder.queue()),
        ServerConfig {
            reactors: 1,
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    // First connection holds the only slot.
    let mut first = Client::connect(handle.addr()).expect("first connection");
    assert_eq!(first.ping().expect("ping"), 1);

    // Second is refused with a typed error frame.
    assert_error_frame(
        raw_exchange(handle.addr(), b""),
        "connection capacity",
        "capacity rejection",
    );
    assert!(
        engine
            .metrics()
            .rejected_connections
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );

    // Dropping the first frees the slot; a new client gets in (the
    // server releases it once it sees the close, so poll briefly).
    drop(first);
    let mut again = None;
    for _ in 0..50 {
        if let Ok(mut c) = Client::with_config(
            handle.addr(),
            ClientConfig {
                retry: RetryPolicy::none(),
                ..ClientConfig::default()
            },
        ) {
            if c.ping().is_ok() {
                again = Some(c);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut again = again.expect("slot was never released");
    again.shutdown().expect("shutdown");
    handle.join();
    builder.stop();
}

#[test]
fn a_silent_peer_is_dropped_at_the_read_deadline() {
    let db = warmup_db();
    let config = BuilderConfig {
        window_capacity: db.len() * 2,
        min_support: 6,
        ..BuilderConfig::default()
    };
    let (engine, builder) = bootstrap(&db, config).expect("bootstrap");
    let handle = serve(
        "127.0.0.1:0",
        engine.clone(),
        None,
        ServerConfig {
            reactors: 1,
            read_deadline: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    // Connect and send nothing: the server must hang up, not hold the
    // connection forever.
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 64];
    let n = (&stream).read(&mut buf).expect("read until server close");
    assert_eq!(n, 0, "server should close a silent connection");
    assert!(
        engine
            .metrics()
            .timeouts
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1,
        "deadline expiry must be counted"
    );

    handle.shutdown();
    builder.stop();
}

// ---------------------------------------------------------------------------
// Adversarial clients: slowloris, one-byte writes, mid-frame disconnects.
// The server must shrug all of them off.
// ---------------------------------------------------------------------------

#[test]
fn slowloris_one_byte_writes_still_get_exact_answers() {
    let db = warmup_db();
    let min_support = 6;
    let truth = ConditionalMiner::default().mine(&db, min_support);
    let (some_itemset, some_support) = truth.iter().next().unwrap();
    let request = plt::serve::Request::Support {
        items: some_itemset.items().to_vec(),
    }
    .to_json()
    .to_string();
    let framed = format!("{}\n{}\n", request.len(), request);

    let (handle, builder, _engine) = start(&db, min_support, None, None);

    // Dribble the frame one byte at a time with small pauses — slow,
    // but inside the read deadline. The server must buffer partial
    // frames and answer exactly.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for &b in framed.as_bytes() {
        stream.write_all(&[b]).expect("one-byte write");
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let frame = read_raw_frame(&mut reader).expect("response to slowloris frame");
    assert!(
        frame.contains(&format!("\"support\":{some_support}")),
        "slowloris answer wrong: {frame}"
    );

    // A second dribbled request on the same connection also works —
    // decoder state is per-connection, not per-read.
    for &b in framed.as_bytes() {
        stream.write_all(&[b]).expect("one-byte write");
    }
    let frame = read_raw_frame(&mut reader).expect("second slowloris response");
    assert!(frame.contains("\"ok\":true"), "{frame}");

    handle.shutdown();
    builder.stop();
}

// ---------------------------------------------------------------------------
// Query endpoint under chaos: fault-injected disconnects mid-query and
// read-deadline expiry during a MINE COND frame degrade per DESIGN.md
// §7 — visible transport errors and dropped peers, never a hang and
// never a wrong answer.
// ---------------------------------------------------------------------------

/// Offline ground truth for an itemsets query: the same expression run
/// through plt-query against a snapshot built directly from the window.
fn offline_itemset_rows(db: &[Vec<u32>], min_support: u64, expr: &str) -> Vec<(Vec<u32>, u64)> {
    use plt::core::construct::{construct, ConstructOptions};
    let tree = construct(db, min_support, ConstructOptions::conditional()).unwrap();
    let result = ConditionalMiner::default().mine(db, min_support);
    let snap = plt::query::Snapshot::build(1, tree, &result, plt::rules::RuleConfig::default());
    let (rows, _) = plt::query::run(expr, &snap, &mut plt::obs::Obs::none()).unwrap();
    match rows {
        plt::query::Rows::Itemsets(v) => v
            .into_iter()
            .map(|(set, sup)| (set.items().to_vec(), sup))
            .collect(),
        other => panic!("expected itemset rows for `{expr}`, got {other:?}"),
    }
}

/// Decodes the wire `rows` array of an itemsets answer.
fn wire_itemset_rows(v: &plt::serve::json::Json) -> Vec<(Vec<u32>, u64)> {
    v.get("rows")
        .and_then(|x| x.as_arr())
        .expect("rows array")
        .iter()
        .map(|r| {
            (
                r.get("items").and_then(|x| x.as_items()).expect("items"),
                r.get("support").and_then(|x| x.as_u64()).expect("support"),
            )
        })
        .collect()
}

#[test]
fn fault_injected_queries_disconnect_cleanly_never_wrongly() {
    let db = warmup_db();
    let min_support = 6;
    let exprs = ["TOP 5", "MINE COND {1} TOP 5", "MINE COND {2}"];
    let expected: Vec<Vec<(Vec<u32>, u64)>> = exprs
        .iter()
        .map(|e| offline_itemset_rows(&db, min_support, e))
        .collect();
    assert!(expected.iter().any(|rows| !rows.is_empty()));

    for seed in CHAOS_SEEDS {
        let server_plan = FaultPlan::shared(FaultConfig::chaos(seed));
        let client_plan = FaultPlan::shared(FaultConfig::chaos(seed.wrapping_add(1)));
        let (handle, builder, _engine) = start(&db, min_support, Some(server_plan.clone()), None);
        let addr = handle.addr();

        // A burst of peers that send a complete query frame and hang up
        // without ever reading the answer — the write side hits a dead
        // socket mid-response.
        let query_frame = {
            let req = plt::serve::Request::Query {
                expr: "MINE COND {1} TOP 5".into(),
            }
            .to_json()
            .to_string();
            format!("{}\n{}\n", req.len(), req)
        };
        for cut in [query_frame.len(), query_frame.len() / 2, 3] {
            for _ in 0..4 {
                let mut s = TcpStream::connect(addr).expect("connect");
                s.write_all(&query_frame.as_bytes()[..cut]).expect("write");
                drop(s); // disconnect mid-query
            }
        }

        // A chaos-faulted client hammers the query endpoint: exhausted
        // retries are visible errors, but every Ok answer is exact.
        let mut client = Client::with_config(
            addr,
            ClientConfig {
                retry: RetryPolicy {
                    max_retries: 8,
                    base_backoff: Duration::from_millis(2),
                    max_backoff: Duration::from_millis(20),
                    jitter_seed: seed,
                },
                fault: Some(client_plan),
                ..ClientConfig::default()
            },
        )
        .expect("connect");
        let mut answered = 0usize;
        for round in 0..12 {
            let i = round % exprs.len();
            if let Ok(v) = client.query(exprs[i]) {
                assert_eq!(
                    wire_itemset_rows(&v),
                    expected[i],
                    "seed {seed:#x}: wrong answer for `{}`",
                    exprs[i]
                );
                answered += 1;
            }
        }
        assert!(
            answered >= 4,
            "seed {seed:#x}: chaos starved the query client ({answered}/12)"
        );

        // The server survived every disconnect and fault.
        let mut probe = Client::with_config(
            addr,
            ClientConfig {
                retry: RetryPolicy {
                    max_retries: 8,
                    base_backoff: Duration::from_millis(2),
                    max_backoff: Duration::from_millis(20),
                    jitter_seed: seed.wrapping_add(2),
                },
                ..ClientConfig::default()
            },
        )
        .expect("clean connect");
        assert_eq!(probe.ping().expect("ping after chaos"), 1);
        handle.shutdown();
        builder.stop();
    }
}

#[test]
fn deadline_expiry_during_mine_cond_drops_the_peer_not_the_server() {
    let db = warmup_db();
    let min_support = 6;
    let expected = offline_itemset_rows(&db, min_support, "MINE COND {1} TOP 5");
    let config = BuilderConfig {
        window_capacity: db.len() * 2,
        min_support,
        ..BuilderConfig::default()
    };
    let (engine, builder) = bootstrap(&db, config).expect("bootstrap");
    let handle = serve(
        "127.0.0.1:0",
        engine.clone(),
        None,
        ServerConfig {
            reactors: 1,
            read_deadline: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    // Half a MINE COND frame, then silence: the read deadline must
    // fire mid-query and close the connection — not hold it open.
    let req = plt::serve::Request::Query {
        expr: "MINE COND {1} TOP 5".into(),
    }
    .to_json()
    .to_string();
    let framed = format!("{}\n{}\n", req.len(), req);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&framed.as_bytes()[..framed.len() / 2])
        .expect("half frame");
    let mut buf = [0u8; 64];
    let n = (&stream)
        .read(&mut buf)
        .expect("read until server closes the stalled query");
    assert_eq!(n, 0, "stalled MINE COND must be dropped");
    assert!(
        engine
            .metrics()
            .timeouts
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1,
        "deadline expiry must be counted"
    );

    // Degraded for that peer only: a fresh client gets the exact
    // mined answer immediately.
    let mut client = Client::connect(handle.addr()).expect("server still up");
    let v = client.query("MINE COND {1} TOP 5").expect("query");
    assert_eq!(wire_itemset_rows(&v), expected);

    handle.shutdown();
    builder.stop();
}

#[test]
fn mid_frame_disconnects_leave_the_server_healthy() {
    let db = warmup_db();
    let (handle, builder, engine) = start(&db, 6, None, None);
    let addr = handle.addr();

    // A burst of clients that all hang up mid-frame: after the header,
    // mid-payload, and right before the trailing newline.
    for cut in [
        b"1".as_slice(),
        b"24\n".as_slice(),
        b"24\n{\"op\":\"supp".as_slice(),
    ] {
        for _ in 0..8 {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(cut).expect("partial write");
            drop(s); // RST or FIN mid-frame
        }
    }

    // Give the server a beat to reap them, then verify health: a
    // clean client still gets exact answers and nothing leaked into
    // the protocol-error path (truncation is a disconnect, not a
    // protocol violation).
    std::thread::sleep(Duration::from_millis(100));
    let mut client = Client::connect(addr).expect("server still accepting");
    assert_eq!(client.ping().expect("ping"), 1);
    assert_eq!(
        engine
            .metrics()
            .protocol_errors
            .load(std::sync::atomic::Ordering::Relaxed),
        0,
        "mid-frame EOF must not count as a protocol error"
    );

    client.shutdown().expect("shutdown");
    handle.join();
    builder.stop();
}
