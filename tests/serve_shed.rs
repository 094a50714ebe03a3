//! Load-shedding boundary tests for the reactor server: admission
//! control must refuse with an explicit `shed` error frame — never a
//! hang — at the exact connection-budget and accept-backlog edges, the
//! refusals must be visible in `stats`, and a shed client retrying with
//! backoff must get in once load drops.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use plt::serve::{
    bootstrap, serve, BuilderConfig, Client, ClientConfig, FaultConfig, FaultPlan, Request,
    RetryPolicy, ServerConfig,
};

fn warmup() -> Vec<Vec<u32>> {
    (0..16).map(|_| vec![1, 2, 3]).collect()
}

fn start(config: ServerConfig) -> (plt::serve::ServerHandle, plt::serve::BuilderHandle) {
    let (engine, builder) = bootstrap(
        &warmup(),
        BuilderConfig {
            window_capacity: 64,
            min_support: 2,
            ..BuilderConfig::default()
        },
    )
    .expect("bootstrap");
    let handle = serve("127.0.0.1:0", engine, Some(builder.queue()), config).expect("bind");
    (handle, builder)
}

/// Reads one `<len>\n<payload>\n` frame off a raw socket.
fn read_raw_frame(r: &mut impl BufRead) -> Option<String> {
    let mut header = String::new();
    if r.read_line(&mut header).ok()? == 0 {
        return None;
    }
    let len: usize = header.trim().parse().ok()?;
    let mut payload = vec![0u8; len + 1];
    r.read_exact(&mut payload).ok()?;
    payload.pop();
    String::from_utf8(payload).ok()
}

/// Connects and reads whatever frame the server volunteers (a shed
/// refusal), with a bounded wait — a hang here is the failure mode this
/// suite exists to catch. `None` means the connection was admitted (no
/// refusal arrived within the wait) or closed silently.
fn connect_expecting_shed(addr: std::net::SocketAddr, wait: Duration) -> Option<String> {
    read_volunteered_frame(TcpStream::connect(addr).ok()?, wait)
}

/// The frame the server volunteers on an already-open connection, if one
/// arrives within `wait`.
fn read_volunteered_frame(stream: TcpStream, wait: Duration) -> Option<String> {
    stream.set_read_timeout(Some(wait)).unwrap();
    let mut reader = BufReader::new(stream);
    read_raw_frame(&mut reader)
}

#[cfg(target_os = "linux")]
#[test]
fn the_connection_budget_edge_sheds_exactly_past_the_cap() {
    let cap = 4;
    let (handle, builder) = start(ServerConfig {
        reactors: 1,
        max_connections: cap,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Exactly `cap` clients all get in and all work.
    let mut residents: Vec<Client> = (0..cap)
        .map(|i| {
            let mut c = Client::with_config(
                addr,
                ClientConfig {
                    retry: RetryPolicy::none(),
                    ..ClientConfig::default()
                },
            )
            .unwrap_or_else(|e| panic!("resident {i} refused under the cap: {e}"));
            assert_eq!(c.ping().expect("resident ping"), 1);
            c
        })
        .collect();

    // The cap+1'th is shed with the budget message — an answer, not a
    // hang, and not a silent close.
    let frame =
        connect_expecting_shed(addr, Duration::from_secs(5)).expect("shed frame, not silence");
    assert!(frame.contains("\"ok\":false"), "{frame}");
    assert!(
        frame.contains("shed: server at connection capacity"),
        "wrong shed reason: {frame}"
    );

    // The refusal is visible in stats, from a resident's connection.
    let stats = residents[0].stats().expect("stats");
    let reactor = stats.get("reactor").expect("reactor stats");
    assert!(
        reactor
            .get("shed_connections")
            .and_then(|v| v.as_u64())
            .unwrap()
            >= 1,
        "shed not counted: {stats}"
    );
    assert!(
        stats
            .get("rejected_connections")
            .and_then(|v| v.as_u64())
            .unwrap()
            >= 1
    );

    // Dropping one resident frees budget; a shed-aware client retrying
    // with backoff succeeds once the load drops.
    drop(residents.pop());
    let mut late = None;
    for _ in 0..50 {
        if let Ok(mut c) = Client::with_config(
            addr,
            ClientConfig {
                retry: RetryPolicy {
                    max_retries: 6,
                    base_backoff: Duration::from_millis(5),
                    max_backoff: Duration::from_millis(50),
                    jitter_seed: 7,
                },
                ..ClientConfig::default()
            },
        ) {
            if c.ping().is_ok() {
                late = Some(c);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(late.is_some(), "budget never freed after a resident left");

    drop(residents);
    drop(late);
    handle.shutdown();
    builder.stop();
}

#[cfg(target_os = "linux")]
#[test]
fn a_full_accept_backlog_sheds_instead_of_queueing() {
    // One reactor, a one-slot handoff queue, and a fault plan that
    // stalls every reactor I/O call for 150 ms: the reactor can't drain
    // accepted sockets as fast as we connect, so the dispatching
    // acceptor must hit the backlog edge and shed — not block, not
    // queue unboundedly.
    let stall = FaultPlan::shared(FaultConfig {
        stall: 1.0,
        stall_ms: 150,
        ..FaultConfig::disabled(0xBAC0)
    });
    let (handle, builder) = start(ServerConfig {
        reactors: 1,
        accept_backlog: 1,
        max_connections: 1024,
        fault: Some(stall),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Occupy the reactor: a conn whose read is mid-stall.
    let mut busy = TcpStream::connect(addr).expect("first connect");
    busy.write_all(b"1")
        .expect("poke the reactor into a stalled read");

    // Burst more connections than the backlog can hold while the
    // reactor sleeps. Every connect is made before any reply is read, so
    // the whole burst lands inside the stalled read (reading between
    // connects would give the reactor time to drain the one-slot queue).
    // At least one must come back with the backlog shed frame; none may
    // hang.
    let burst: Vec<TcpStream> = (0..12)
        .map(|_| TcpStream::connect(addr).expect("burst connect"))
        .collect();
    // Shed frames come straight off the acceptor thread, so a short
    // read window suffices; an admitted-but-unanswered socket gives up
    // quickly instead of waiting out a full deadline.
    let mut sheds = 0;
    for stream in burst {
        if let Some(frame) = read_volunteered_frame(stream, Duration::from_millis(400)) {
            assert!(
                frame.contains("shed: accept backlog full"),
                "unexpected refusal: {frame}"
            );
            sheds += 1;
        }
    }
    assert!(
        sheds >= 1,
        "backlog edge never shed under a stalled reactor"
    );

    drop(busy);
    handle.shutdown();
    builder.stop();
}

#[test]
fn pipelined_batches_answer_in_order_on_both_models() {
    let (handle, builder) = start(ServerConfig {
        reactors: 1,
        ..ServerConfig::default()
    });

    let mut client = Client::connect(handle.addr()).expect("connect");
    // A mixed batch: point queries, a bad request in the middle (it
    // must not abort the batch), and more queries after it.
    let mut requests: Vec<Request> = Vec::new();
    for i in 0..32 {
        requests.push(Request::Support {
            items: if i % 2 == 0 {
                vec![1, 2]
            } else {
                vec![1, 2, 3]
            },
        });
    }
    requests.insert(
        16,
        Request::Extensions {
            items: vec![],
            k: 0,
        },
    );

    let replies = client.pipeline(&requests, 8).expect("pipeline transport");
    assert_eq!(replies.len(), requests.len());
    for (i, reply) in replies.iter().enumerate() {
        match (&requests[i], reply) {
            (Request::Support { .. }, Ok(v)) => {
                // All 16 warmup baskets are {1,2,3}, so every
                // queried subset has support 16.
                assert_eq!(
                    v.get("support").and_then(|s| s.as_u64()),
                    Some(16),
                    "reply {i} out of order or wrong"
                );
            }
            (Request::Extensions { .. }, _) => {
                // Empty-itemset extensions may answer or error by
                // protocol rules; either way it lands at position 16.
            }
            (req, Err(e)) => panic!("{req:?} failed: {e}"),
            _ => {}
        }
    }

    client.shutdown().expect("shutdown");
    handle.join();
    builder.stop();
}
