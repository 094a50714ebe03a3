//! TCP server: multiple acceptor threads over one listener, one handler
//! thread per connection, engine shared via `Arc`.
//!
//! Built on `std::net` only. The listener is `try_clone`d into N
//! acceptor threads (the kernel load-balances `accept` across them), so
//! accept throughput scales with cores without an async runtime. Each
//! connection speaks the framed protocol of [`proto`](crate::proto)
//! until EOF or a `shutdown` request; handlers only touch the engine
//! through `Arc`, so a slow connection never blocks another.
//!
//! Robustness knobs (all in [`ServerConfig`]): per-connection read and
//! write deadlines (a stalled peer is timed out, counted, and dropped —
//! it cannot pin a handler thread forever), a max-frame limit enforced
//! before allocation, and a connection cap — past it, new connections get
//! an error frame and are refused rather than queueing unboundedly. A
//! [`FaultPlan`] wired into the config injects deterministic faults into
//! the server's own reads and writes for chaos testing.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use plt_query::Snapshot;

use crate::builder::IngestQueue;
use crate::engine::Engine;
use crate::fault::{FaultPlan, FaultyStream, Site};
use crate::json::Json;
use crate::proto::{
    err_response, ok_response, read_frame_limited, write_frame, write_frame_with, Request,
    MAX_FRAME_BYTES,
};
use crate::reader_pool::ReaderCache;

/// Which concurrency model serves connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerModel {
    /// One handler thread per connection (the original model). Simple,
    /// portable, and the differential oracle for the reactor.
    #[default]
    Threads,
    /// Epoll reactor threads multiplexing nonblocking connections
    /// ([`reactor`](crate::reactor)). Linux-only; elsewhere `serve`
    /// falls back to `Threads`.
    Reactor,
}

impl ServerModel {
    /// Parses the `--server-model` CLI spelling.
    pub fn parse(s: &str) -> Result<ServerModel, String> {
        match s {
            "threads" => Ok(ServerModel::Threads),
            "reactor" => Ok(ServerModel::Reactor),
            other => Err(format!(
                "unknown server model {other:?} (expected \"threads\" or \"reactor\")"
            )),
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            ServerModel::Threads => "threads",
            ServerModel::Reactor => "reactor",
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrency model; see [`ServerModel`].
    pub server_model: ServerModel,
    /// Acceptor threads sharing the listener (threads model only; the
    /// reactor model has one dispatching acceptor). Defaults to
    /// available parallelism, capped at 8.
    pub acceptors: usize,
    /// Reactor threads (reactor model only). Defaults to available
    /// parallelism, capped at 8.
    pub reactors: usize,
    /// Accepted-but-unregistered sockets queued per reactor; past it the
    /// acceptor sheds (reactor model only).
    pub accept_backlog: usize,
    /// Per-connection read deadline. A peer that sends nothing for this
    /// long is timed out and dropped. `None` blocks forever.
    pub read_deadline: Option<Duration>,
    /// Per-connection write deadline. A peer that stops draining its
    /// socket for this long is timed out and dropped. `None` blocks
    /// forever.
    pub write_deadline: Option<Duration>,
    /// Largest accepted frame, checked before allocation.
    pub max_frame: usize,
    /// Concurrent-connection cap; connections past it are answered with
    /// an error frame and refused (backpressure, not an unbounded queue).
    pub max_connections: usize,
    /// Deterministic fault injection for the server's own I/O. `None` in
    /// production.
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServerConfig {
            server_model: ServerModel::Threads,
            acceptors: cores.min(8),
            reactors: cores.min(8),
            accept_backlog: 256,
            read_deadline: Some(Duration::from_secs(30)),
            write_deadline: Some(Duration::from_secs(10)),
            max_frame: MAX_FRAME_BYTES,
            max_connections: 1024,
            fault: None,
        }
    }
}

/// A running server. Stop it with [`shutdown`](Self::shutdown) or by
/// sending the protocol `shutdown` request; either way
/// [`join`](Self::join) returns once every acceptor has exited.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Extra wakeups fired on shutdown (reactor eventfds); the acceptor
    /// dial in [`wake_acceptors`] covers threads parked in `accept`.
    wake_fns: Vec<Box<dyn Fn() + Send + Sync>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    pub(crate) fn from_parts(
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        threads: Vec<JoinHandle<()>>,
        wake_fns: Vec<Box<dyn Fn() + Send + Sync>>,
    ) -> ServerHandle {
        ServerHandle {
            addr,
            stop,
            threads,
            wake_fns,
        }
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and waits for the server threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for wake in &self.wake_fns {
            wake();
        }
        wake_acceptors(self.addr, self.threads.len());
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Blocks until the server stops (e.g. a client sent `shutdown`).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Decrements the active-connection count when a handler exits, however
/// it exits.
struct ConnectionPermit(Arc<AtomicUsize>);

impl Drop for ConnectionPermit {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn try_acquire(active: &Arc<AtomicUsize>, max: usize) -> Option<ConnectionPermit> {
    if active.fetch_add(1, Ordering::SeqCst) >= max {
        active.fetch_sub(1, Ordering::SeqCst);
        return None;
    }
    Some(ConnectionPermit(active.clone()))
}

/// Binds `addr` (use port 0 for an ephemeral port) and starts serving
/// `engine`. `ingest` wires the `INGEST` endpoint to a snapshot
/// builder; without it, ingest requests are answered with an error.
pub fn serve(
    addr: &str,
    engine: Arc<Engine>,
    ingest: Option<IngestQueue>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    #[cfg(target_os = "linux")]
    if config.server_model == ServerModel::Reactor {
        return crate::reactor::serve_reactor(listener, engine, ingest, config, addr);
    }
    // Non-Linux builds have no epoll; the thread model is the fallback.
    let stop = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));
    let acceptors = (0..config.acceptors.max(1))
        .map(|i| {
            let listener = listener.try_clone()?;
            let engine = engine.clone();
            let ingest = ingest.clone();
            let stop = stop.clone();
            let active = active.clone();
            let config = config.clone();
            std::thread::Builder::new()
                .name(format!("plt-serve-acceptor-{i}"))
                .spawn(move || acceptor_loop(listener, engine, ingest, stop, active, config, addr))
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok(ServerHandle {
        addr,
        stop,
        threads: acceptors,
        wake_fns: Vec::new(),
    })
}

#[allow(clippy::too_many_arguments)]
fn acceptor_loop(
    listener: TcpListener,
    engine: Arc<Engine>,
    ingest: Option<IngestQueue>,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    config: ServerConfig,
    addr: SocketAddr,
) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let permit = match try_acquire(&active, config.max_connections) {
                    Some(p) => p,
                    None => {
                        // At capacity: say so and refuse, rather than
                        // letting the backlog grow without bound.
                        engine
                            .metrics()
                            .rejected_connections
                            .fetch_add(1, Ordering::Relaxed);
                        let mut w = BufWriter::new(stream);
                        let _ = write_frame(
                            &mut w,
                            &err_response("shed: server at connection capacity").to_string(),
                        );
                        continue;
                    }
                };
                let engine = engine.clone();
                let ingest = ingest.clone();
                let stop = stop.clone();
                let config = config.clone();
                let _ = std::thread::Builder::new()
                    .name("plt-serve-conn".into())
                    .spawn(move || {
                        let _permit = permit;
                        if handle_connection(stream, &engine, ingest.as_ref(), &stop, &config)
                            == ConnectionOutcome::ShutdownRequested
                        {
                            wake_acceptors(addr, usize::MAX);
                        }
                    });
            }
            Err(_) => {
                // Accept errors are transient (EMFILE, aborted
                // handshakes); re-check the stop flag and continue.
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

#[derive(PartialEq, Eq)]
enum ConnectionOutcome {
    Closed,
    ShutdownRequested,
}

/// What a dispatched request wants the serving loop to do. Shared by
/// both server models so their observable behavior cannot drift.
pub(crate) enum Dispatch {
    /// Write this response and keep serving.
    Respond(String),
    /// Write this response, then stop the whole server.
    ShutdownRequested(String),
    /// An `ingest {wait: true}` was submitted with its acknowledgement;
    /// block on `ack` (inline for the threads model, on a waiter thread
    /// for the reactor) and answer with `accepted` + the generation of
    /// the publish that covered the batch.
    AwaitFlush { accepted: u64, ack: Receiver<u64> },
}

/// Parses and dispatches one request payload. Everything except the
/// flush wait and the stop-flag plumbing happens here, identically for
/// both server models. `reader`, when given, pins snapshots through a
/// per-worker cache (the reactor's lock-free path).
pub(crate) fn dispatch_request(
    payload: &str,
    engine: &Engine,
    ingest: Option<&IngestQueue>,
    reader: Option<&mut ReaderCache<Snapshot>>,
) -> Dispatch {
    let request = match Json::parse(payload) {
        Err(e) => {
            engine
                .metrics()
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return Dispatch::Respond(err_response(e.to_string()).to_string());
        }
        Ok(v) => match Request::from_json(&v) {
            Err(e) => {
                engine
                    .metrics()
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                return Dispatch::Respond(err_response(e).to_string());
            }
            Ok(r) => r,
        },
    };
    match request {
        Request::Shutdown => Dispatch::ShutdownRequested(engine.handle(&Request::Shutdown)),
        Request::Ingest { transactions, wait } => match ingest {
            None => {
                Dispatch::Respond(err_response("this server has no ingest pipeline").to_string())
            }
            Some(queue) => {
                let accepted = transactions.len() as u64;
                let exited =
                    || Dispatch::Respond(err_response("snapshot builder has exited").to_string());
                if wait {
                    match queue.ingest_acked(transactions) {
                        Some(ack) => Dispatch::AwaitFlush { accepted, ack },
                        None => exited(),
                    }
                } else if queue.ingest(transactions) {
                    Dispatch::Respond(
                        ok_response(vec![("accepted", Json::from(accepted))]).to_string(),
                    )
                } else {
                    exited()
                }
            }
        },
        request => Dispatch::Respond(match reader {
            Some(cache) => engine.handle_cached(&request, cache),
            None => engine.handle(&request),
        }),
    }
}

/// The reply to an `ingest {wait: true}` once its acknowledgement
/// arrived (`None`: the builder exited before publishing the batch).
pub(crate) fn ingest_ack_response(
    engine: &Engine,
    accepted: u64,
    generation: Option<u64>,
) -> String {
    match generation {
        Some(generation) => ok_response(vec![
            ("accepted", Json::from(accepted)),
            ("generation", Json::from(generation)),
            ("stale", Json::Bool(engine.is_stale())),
        ])
        .to_string(),
        None => err_response("snapshot builder has exited").to_string(),
    }
}

/// Is this I/O error a blown read/write deadline?
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn handle_connection(
    stream: TcpStream,
    engine: &Engine,
    ingest: Option<&IngestQueue>,
    stop: &AtomicBool,
    config: &ServerConfig,
) -> ConnectionOutcome {
    // Deadlines turn a stalled peer into an I/O error on this thread
    // instead of an eternally parked handler.
    if stream.set_read_timeout(config.read_deadline).is_err()
        || stream.set_write_timeout(config.write_deadline).is_err()
    {
        return ConnectionOutcome::Closed;
    }
    let read_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return ConnectionOutcome::Closed,
    };
    // With a fault plan, the server's own byte stream misbehaves too —
    // boxed so faulted and clean connections share one handler loop.
    let (read_half, write_half): (Box<dyn Read>, Box<dyn Write>) = match &config.fault {
        Some(plan) => (
            Box::new(FaultyStream::new(
                read_stream,
                plan.clone(),
                Site::ServerRead,
            )),
            Box::new(FaultyStream::new(stream, plan.clone(), Site::ServerWrite)),
        ),
        None => (Box::new(read_stream), Box::new(stream)),
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(write_half);
    let frame_fault = config
        .fault
        .as_deref()
        .map(|plan| (plan, Site::ServerWrite));
    loop {
        let payload = match read_frame_limited(&mut reader, config.max_frame) {
            Ok(Some(p)) => p,
            Ok(None) => return ConnectionOutcome::Closed,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Tell the peer what was wrong with the frame, then
                // drop the connection — framing is unrecoverable.
                engine
                    .metrics()
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let _ = write_frame_with(
                    &mut writer,
                    &err_response(e.to_string()).to_string(),
                    frame_fault,
                );
                return ConnectionOutcome::Closed;
            }
            Err(e) => {
                if is_timeout(&e) {
                    engine.metrics().timeouts.fetch_add(1, Ordering::Relaxed);
                }
                return ConnectionOutcome::Closed;
            }
        };
        let response = match dispatch_request(&payload, engine, ingest, None) {
            Dispatch::Respond(response) => response,
            Dispatch::ShutdownRequested(response) => {
                stop.store(true, Ordering::SeqCst);
                let _ = write_frame_with(&mut writer, &response, frame_fault);
                return ConnectionOutcome::ShutdownRequested;
            }
            Dispatch::AwaitFlush { accepted, ack } => {
                ingest_ack_response(engine, accepted, ack.recv().ok())
            }
        };
        match write_frame_with(&mut writer, &response, frame_fault) {
            Ok(()) => {}
            Err(e) => {
                if is_timeout(&e) {
                    engine.metrics().timeouts.fetch_add(1, Ordering::Relaxed);
                }
                return ConnectionOutcome::Closed;
            }
        }
    }
}

/// Unblocks acceptor threads stuck in `accept` by dialing the listener.
/// Best effort; `n` connects at most (acceptors count or a few).
pub(crate) fn wake_acceptors(addr: SocketAddr, n: usize) {
    for _ in 0..n.min(16) {
        match TcpStream::connect(addr) {
            Ok(_) => {}
            Err(_) => break,
        }
    }
}
