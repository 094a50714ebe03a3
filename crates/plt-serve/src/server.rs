//! TCP server: one listener, one acceptor thread, engine shared via
//! `Arc`.
//!
//! On Linux [`serve`] runs the epoll [`reactor`](crate::reactor): the
//! acceptor hands sockets to a few event-loop threads that multiplex
//! every connection. Other targets have no epoll, so there the acceptor
//! spawns one handler thread per connection instead — a portable
//! fallback, the way plt-store reads a segment into memory where it
//! cannot `mmap` it. Both loops speak the framed protocol of
//! [`proto`](crate::proto) and answer through one `dispatch_request`,
//! so their replies cannot drift; handlers only touch the engine through
//! `Arc`, so a slow connection never blocks another.
//!
//! Robustness knobs (all in [`ServerConfig`]): per-connection read and
//! write deadlines (a stalled peer is timed out, counted, and dropped),
//! a max-frame limit enforced before allocation, and a connection cap —
//! past it, new connections get an error frame and are refused rather
//! than queueing unboundedly. A [`FaultPlan`] wired into the config
//! injects deterministic faults into the server's own reads and writes
//! for chaos testing.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use plt_query::Snapshot;

use crate::builder::IngestQueue;
use crate::engine::Engine;
use crate::fault::FaultPlan;
use crate::json::Json;
use crate::proto::{err_response, ok_response, Request, MAX_FRAME_BYTES};

#[cfg(target_os = "linux")]
use crate::reactor::serve_reactor as serve_listener;
#[cfg(not(target_os = "linux"))]
use threads::serve_threads as serve_listener;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Reactor threads. Defaults to available parallelism, capped at 8.
    /// The non-Linux fallback runs a thread per connection and ignores
    /// it.
    pub reactors: usize,
    /// Accepted-but-unregistered sockets queued per reactor; past it the
    /// acceptor sheds. Ignored by the non-Linux fallback.
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
/// [`join`](Self::join) returns once every server thread has exited.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Extra wakeups fired on shutdown (reactor eventfds); the dial in
    /// [`wake_acceptor`] covers the acceptor parked in `accept`.
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
        wake_acceptor(self.addr);
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

/// Binds `addr` (use port 0 for an ephemeral port) and starts serving
/// `engine`: the epoll reactor on Linux, a thread per connection
/// elsewhere. `ingest` wires the `INGEST` endpoint to a snapshot
/// builder; without it, ingest requests are answered with an error.
pub fn serve(
    addr: &str,
    engine: Arc<Engine>,
    ingest: Option<IngestQueue>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    serve_listener(listener, engine, ingest, config, addr)
}

/// What a dispatched request wants the serving loop to do.
pub(crate) enum Dispatch {
    /// Write this response and keep serving.
    Respond(String),
    /// Write this response, then stop the whole server.
    ShutdownRequested(String),
    /// An `ingest {wait: true}` was submitted with its acknowledgement;
    /// block on `ack` (on a reactor's waiter thread, or inline in the
    /// fallback's handler thread) and answer with `accepted` + the
    /// generation of the publish that covered the batch.
    AwaitFlush { accepted: u64, ack: Receiver<u64> },
}

/// Parses and dispatches one request payload. Everything except the
/// flush wait and the stop-flag plumbing happens here. `reader`, when
/// given, is the per-worker snapshot slot requests pin through (the
/// reactor's lock-free path).
pub(crate) fn dispatch_request(
    payload: &str,
    engine: &Engine,
    ingest: Option<&IngestQueue>,
    reader: Option<&mut Option<Arc<Snapshot>>>,
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

/// Unblocks the acceptor thread parked in `accept` by dialing the
/// listener once. Best effort.
pub(crate) fn wake_acceptor(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

/// The thread-per-connection server for targets without epoll: one
/// acceptor thread admits connections under the cap and spawns a
/// blocking handler thread for each, with the same deadlines, frame
/// limit and fault injection as the reactor.
#[cfg(not(target_os = "linux"))]
mod threads {
    use std::io::{BufReader, BufWriter, Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::{
        dispatch_request, ingest_ack_response, wake_acceptor, Dispatch, ServerConfig, ServerHandle,
    };
    use crate::builder::IngestQueue;
    use crate::engine::Engine;
    use crate::fault::{FaultyStream, Site};
    use crate::proto::{err_response, read_frame_limited, write_frame, write_frame_with};

    pub(super) fn serve_threads(
        listener: TcpListener,
        engine: Arc<Engine>,
        ingest: Option<IngestQueue>,
        config: ServerConfig,
        addr: SocketAddr,
    ) -> std::io::Result<ServerHandle> {
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = std::thread::Builder::new()
            .name("plt-serve-acceptor".into())
            .spawn({
                let stop = stop.clone();
                move || acceptor_loop(listener, engine, ingest, stop, config, addr)
            })?;
        Ok(ServerHandle::from_parts(
            addr,
            stop,
            vec![acceptor],
            Vec::new(),
        ))
    }

    /// Decrements the active-connection count when a handler exits,
    /// however it exits.
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

    fn acceptor_loop(
        listener: TcpListener,
        engine: Arc<Engine>,
        ingest: Option<IngestQueue>,
        stop: Arc<AtomicBool>,
        config: ServerConfig,
        addr: SocketAddr,
    ) {
        let active = Arc::new(AtomicUsize::new(0));
        loop {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            // Accept errors are transient (EMFILE, aborted handshakes);
            // re-check the stop flag and continue.
            let Ok((stream, _peer)) = listener.accept() else {
                continue;
            };
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let Some(permit) = try_acquire(&active, config.max_connections) else {
                // At capacity: say so and refuse, rather than letting
                // the backlog grow without bound.
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
            };
            let engine = engine.clone();
            let ingest = ingest.clone();
            let stop = stop.clone();
            let config = config.clone();
            let _ = std::thread::Builder::new()
                .name("plt-serve-conn".into())
                .spawn(move || {
                    let _permit = permit;
                    if handle_connection(stream, &engine, ingest.as_ref(), &stop, &config) {
                        wake_acceptor(addr);
                    }
                });
        }
    }

    /// Is this I/O error a blown read/write deadline?
    fn is_timeout(e: &std::io::Error) -> bool {
        matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        )
    }

    /// Serves one connection until EOF, an error or a `shutdown`
    /// request; true when the peer asked the server to stop.
    fn handle_connection(
        stream: TcpStream,
        engine: &Engine,
        ingest: Option<&IngestQueue>,
        stop: &AtomicBool,
        config: &ServerConfig,
    ) -> bool {
        // Deadlines turn a stalled peer into an I/O error on this thread
        // instead of an eternally parked handler.
        if stream.set_read_timeout(config.read_deadline).is_err()
            || stream.set_write_timeout(config.write_deadline).is_err()
        {
            return false;
        }
        let Ok(read_stream) = stream.try_clone() else {
            return false;
        };
        // With a fault plan, the server's own byte stream misbehaves too
        // — boxed so faulted and clean connections share one loop.
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
                Ok(None) => return false,
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
                    return false;
                }
                Err(e) => {
                    if is_timeout(&e) {
                        engine.metrics().timeouts.fetch_add(1, Ordering::Relaxed);
                    }
                    return false;
                }
            };
            let response = match dispatch_request(&payload, engine, ingest, None) {
                Dispatch::Respond(response) => response,
                Dispatch::ShutdownRequested(response) => {
                    stop.store(true, Ordering::SeqCst);
                    let _ = write_frame_with(&mut writer, &response, frame_fault);
                    return true;
                }
                Dispatch::AwaitFlush { accepted, ack } => {
                    ingest_ack_response(engine, accepted, ack.recv().ok())
                }
            };
            if let Err(e) = write_frame_with(&mut writer, &response, frame_fault) {
                if is_timeout(&e) {
                    engine.metrics().timeouts.fetch_add(1, Ordering::Relaxed);
                }
                return false;
            }
        }
    }
}
