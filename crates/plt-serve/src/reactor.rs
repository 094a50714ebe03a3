//! Epoll reactor: the Linux server, thousands of connections per core,
//! `std`-only.
//!
//! A fixed set of reactor threads serves the framed protocol for every
//! connection, so a peer costs a slab slot and its buffers, not a thread
//! stack. One blocking *dispatching acceptor* accepts and hands sockets
//! round-robin to per-reactor bounded queues (admission control happens
//! right there — a peer past the connection budget or the accept
//! backlog gets an explicit `shed` error frame, not a hang); each
//! reactor runs an `epoll` loop over nonblocking connection state
//! machines built on the incremental [`FrameDecoder`], with partial-read
//! and partial-write resumption.
//!
//! A connection walks `Reading → Writing → Reading …`, detouring through
//! `AwaitingFlush` for `ingest {wait:true}` (the blocking wait for the
//! batch's acknowledgement runs on a per-reactor waiter thread; the
//! connection stops decoding further frames until the completion
//! arrives, preserving per-connection response ordering, and a slot
//! *epoch* guards completions against slab reuse). Requests pin one
//! snapshot generation through a per-reactor `Option<Arc<Snapshot>>`
//! that is refreshed from the engine only after a publish, so the fast
//! path takes no lock.
//!
//! Kernel access is direct `extern "C"` (`epoll_create1`/`epoll_ctl`/
//! `epoll_wait`/`eventfd`), the same pattern plt-store uses for `mmap` —
//! no `libc` crate. The module is Linux-only; on other platforms
//! [`serve`](crate::server::serve) runs a thread per connection instead.
//!
//! Fault injection matches the blocking streams of that fallback and of
//! the client: `short_io`/`stall` apply per nonblocking read/write at
//! `ServerRead`/`ServerWrite`, and frame faults (torn/oversized) are
//! applied when a response is encoded — after the injected bytes flush,
//! the connection closes, as a blocking writer erroring out would.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use plt_query::Snapshot;

use crate::builder::IngestQueue;
use crate::decode::{encode_frame, encode_frame_with, FrameDecoder};
use crate::engine::Engine;
use crate::fault::{IoFault, Site};
use crate::proto::err_response;
use crate::server::{
    dispatch_request, ingest_ack_response, wake_acceptor, Dispatch, ServerConfig, ServerHandle,
};

/// Raw kernel bindings, declared directly like `plt_store::mmap` does.
mod sys {
    /// One epoll event. The kernel ABI packs this struct on x86-64 (no
    /// padding between `events` and `data`); other architectures use
    /// natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn close(fd: i32) -> i32;
    }

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    /// `EFD_NONBLOCK` == `O_NONBLOCK`.
    pub const EFD_NONBLOCK: i32 = 0o4000;
}

/// Owned epoll instance.
struct Epoll {
    fd: RawFd,
}

impl Epoll {
    fn new() -> std::io::Result<Epoll> {
        let fd = unsafe { sys::epoll_create1(0) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, data: u64) -> std::io::Result<()> {
        let mut ev = sys::EpollEvent { events, data };
        let rc = unsafe { sys::epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&self, events: &mut [sys::EpollEvent], timeout: Duration) -> usize {
        let rc = unsafe {
            sys::epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout.as_millis().min(i32::MAX as u128) as i32,
            )
        };
        // EINTR and friends surface as "no events"; the loop re-polls.
        rc.max(0) as usize
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { sys::close(self.fd) };
    }
}

/// Cross-thread wakeup for a reactor parked in `epoll_wait`: an eventfd
/// registered alongside the connections.
pub(crate) struct Waker {
    file: File,
}

impl Waker {
    fn new() -> std::io::Result<Waker> {
        let fd = unsafe { sys::eventfd(0, sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Waker {
            file: unsafe { File::from_raw_fd(fd) },
        })
    }

    pub(crate) fn wake(&self) {
        let _ = (&self.file).write(&1u64.to_ne_bytes());
    }

    fn drain(&self) {
        let mut buf = [0u8; 8];
        while (&self.file).read(&mut buf).is_ok() {}
    }

    fn fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }
}

/// Slab token reserved for the reactor's own eventfd.
const WAKE_TOKEN: u64 = u64::MAX;

/// How long `epoll_wait` parks before re-checking the stop flag and
/// sweeping deadlines.
const POLL_TIMEOUT: Duration = Duration::from_millis(25);

/// Connection lifecycle for the `state_transitions` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Waiting for (more of) a request frame.
    Reading,
    /// Draining a response through partial writes.
    Writing,
    /// An `ingest {wait:true}` flush is in flight on the waiter thread;
    /// frame decoding is suspended to preserve response ordering.
    AwaitingFlush,
}

/// One nonblocking connection state machine.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Frames decoded but not yet dispatched (a pipelining client can
    /// land several per read).
    pending: VecDeque<String>,
    /// A protocol-error frame owed to the peer once `pending` drains.
    pending_error: Option<String>,
    /// Outgoing bytes; `sent` of them are already on the wire.
    out: Vec<u8>,
    sent: usize,
    state: ConnState,
    /// Guards async flush completions against slab-slot reuse.
    epoch: u64,
    last_activity: Instant,
    /// Peer half-closed its write side (clean EOF seen).
    read_closed: bool,
    /// Close once `out` drains (shutdown ack, injected torn frame, or a
    /// terminal protocol error).
    close_after_flush: bool,
    /// Currently registered epoll interest mask.
    interest: u32,
}

/// Job for the waiter thread: wait for a connection's ingest ack.
struct FlushJob {
    token: usize,
    epoch: u64,
    accepted: u64,
    /// Yields the generation that covers the batch.
    ack: Receiver<u64>,
}

/// Completion from the waiter thread.
struct FlushDone {
    token: usize,
    epoch: u64,
    response: String,
}

/// What one nonblocking write step decided (computed under the `Conn`
/// borrow, acted on after it ends).
enum WriteStep {
    /// Buffer drained; close if the flag says so.
    Drained {
        close: bool,
    },
    Progress,
    WouldBlock,
    Dead,
}

struct Reactor {
    id: usize,
    epoll: Epoll,
    waker: Arc<Waker>,
    conn_rx: Receiver<TcpStream>,
    flush_tx: Sender<FlushJob>,
    done_rx: Receiver<FlushDone>,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    epoch: u64,
    engine: Arc<Engine>,
    ingest: Option<IngestQueue>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    all_wakers: Arc<Vec<Arc<Waker>>>,
    addr: SocketAddr,
    /// This reactor's pin of the current snapshot, refreshed by the next
    /// request after a publish and emptied by the next poll turn.
    snapshot: Option<Arc<Snapshot>>,
    /// Scratch for nonblocking reads, allocated once per reactor rather
    /// than zeroed per read.
    read_buf: Box<[u8]>,
}

impl Reactor {
    fn conn(&mut self, idx: usize) -> &mut Conn {
        self.slab[idx].as_mut().expect("live connection slot")
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.release_refused();
            return;
        }
        let _ = stream.set_nodelay(true);
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slab.push(None);
                self.slab.len() - 1
            }
        };
        self.epoch += 1;
        let fd = stream.as_raw_fd();
        let interest = sys::EPOLLIN | sys::EPOLLRDHUP;
        let conn = Conn {
            stream,
            decoder: FrameDecoder::new(self.config.max_frame),
            pending: VecDeque::new(),
            pending_error: None,
            out: Vec::new(),
            sent: 0,
            state: ConnState::Reading,
            epoch: self.epoch,
            last_activity: Instant::now(),
            read_closed: false,
            close_after_flush: false,
            interest,
        };
        if self
            .epoll
            .ctl(sys::EPOLL_CTL_ADD, fd, interest, idx as u64)
            .is_err()
        {
            self.free.push(idx);
            self.release_refused();
            return;
        }
        self.slab[idx] = Some(conn);
    }

    /// Undo the acceptor's connection accounting for a socket that never
    /// became a registered connection.
    fn release_refused(&self) {
        self.engine
            .metrics()
            .reactor
            .active_connections
            .fetch_sub(1, Ordering::Relaxed);
    }

    fn transition(&mut self, idx: usize, state: ConnState) {
        let changed = {
            let conn = self.conn(idx);
            if conn.state != state {
                conn.state = state;
                true
            } else {
                false
            }
        };
        if changed {
            self.engine
                .metrics()
                .reactor
                .state_transitions
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.slab[idx].take() {
            let _ = self
                .epoll
                .ctl(sys::EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, 0);
            self.free.push(idx);
            let reactor = &self.engine.metrics().reactor;
            reactor.state_transitions.fetch_add(1, Ordering::Relaxed);
            reactor.active_connections.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Recomputes and applies the epoll interest mask from the
    /// connection's buffers and state.
    fn update_interest(&mut self, idx: usize) {
        let Some(conn) = self.slab[idx].as_mut() else {
            return;
        };
        let mut want = sys::EPOLLRDHUP;
        if !conn.read_closed && conn.state != ConnState::AwaitingFlush {
            want |= sys::EPOLLIN;
        }
        if conn.sent < conn.out.len() {
            want |= sys::EPOLLOUT;
        }
        if want != conn.interest {
            conn.interest = want;
            let fd = conn.stream.as_raw_fd();
            let _ = self.epoll.ctl(sys::EPOLL_CTL_MOD, fd, want, idx as u64);
        }
    }

    /// Encodes `payload` (applying any frame fault) onto the
    /// connection's out-buffer and attempts an immediate flush.
    fn queue_response(&mut self, idx: usize, payload: &str) {
        let fault = self.config.fault.as_deref().map(|p| (p, Site::ServerWrite));
        let (bytes, close_after) = encode_frame_with(payload, fault);
        {
            let conn = self.conn(idx);
            conn.out.extend_from_slice(&bytes);
            conn.close_after_flush |= close_after;
        }
        self.transition(idx, ConnState::Writing);
        self.do_write(idx);
    }

    /// One deterministic I/O fault draw; a stall sleeps in place (the
    /// reactor is deliberately held — chaos tests exercise exactly that).
    fn short_io(&self, site: Site) -> bool {
        match self.config.fault.as_deref().and_then(|p| p.io_fault(site)) {
            Some(IoFault::Short) => true,
            Some(IoFault::Stall(d)) => {
                std::thread::sleep(d);
                false
            }
            None => false,
        }
    }

    fn do_read(&mut self, idx: usize) {
        loop {
            let window = if self.short_io(Site::ServerRead) {
                1
            } else {
                self.read_buf.len()
            };
            let read = {
                let conn = self.slab[idx].as_mut().expect("live connection slot");
                conn.stream.read(&mut self.read_buf[..window])
            };
            match read {
                Ok(0) => {
                    let finish = {
                        let conn = self.conn(idx);
                        conn.read_closed = true;
                        conn.last_activity = Instant::now();
                        conn.decoder.finish()
                    };
                    if let Err(e) = finish {
                        // Garbage trailing header: an error frame is
                        // owed, exactly like the blocking codec. Clean
                        // EOF and mid-frame truncation close silently.
                        self.protocol_error(idx, e.to_string());
                    }
                    break;
                }
                Ok(n) => {
                    {
                        let conn = self.slab[idx].as_mut().expect("live connection slot");
                        conn.last_activity = Instant::now();
                        conn.decoder.push(&self.read_buf[..n]);
                    }
                    self.drain_decoder(idx);
                    // A short read emptied the socket. The registration
                    // is level-triggered, so later bytes (or EOF) are
                    // reported again; skip the read that would only
                    // return WouldBlock.
                    if n < window {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
        self.process_pending(idx);
        if self.slab[idx].is_some() {
            self.check_quiescent(idx);
        }
        if self.slab[idx].is_some() {
            self.update_interest(idx);
        }
    }

    /// Pops every complete frame out of the decoder into the pending
    /// queue; a framing error is parked until the queue drains.
    fn drain_decoder(&mut self, idx: usize) {
        loop {
            let result = {
                let conn = self.conn(idx);
                if conn.pending_error.is_some() {
                    return;
                }
                conn.decoder.next_frame()
            };
            match result {
                Ok(Some(frame)) => self.conn(idx).pending.push_back(frame),
                Ok(None) => return,
                Err(e) => {
                    self.protocol_error(idx, e.to_string());
                    return;
                }
            }
        }
    }

    /// Records a framing violation and parks the error frame to be sent
    /// once earlier (already-decoded) requests have been answered.
    fn protocol_error(&mut self, idx: usize, message: String) {
        self.engine
            .metrics()
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
        let conn = self.conn(idx);
        if conn.pending_error.is_none() {
            conn.pending_error = Some(err_response(message).to_string());
        }
    }

    /// Dispatches decoded frames in order, stopping at an async flush
    /// (ordering) or when the connection is marked for closure.
    fn process_pending(&mut self, idx: usize) {
        enum Next {
            Frame(String),
            Error(String),
            Done,
        }
        loop {
            if self.slab[idx].is_none() {
                return;
            }
            let next = {
                let conn = self.conn(idx);
                if conn.state == ConnState::AwaitingFlush || conn.close_after_flush {
                    return;
                }
                if let Some(frame) = conn.pending.pop_front() {
                    Next::Frame(frame)
                } else if let Some(error) = conn.pending_error.take() {
                    conn.close_after_flush = true;
                    Next::Error(error)
                } else {
                    Next::Done
                }
            };
            match next {
                Next::Frame(frame) => self.dispatch_one(idx, &frame),
                Next::Error(error) => {
                    self.queue_response(idx, &error);
                    return;
                }
                Next::Done => return,
            }
        }
    }

    fn dispatch_one(&mut self, idx: usize, payload: &str) {
        match dispatch_request(
            payload,
            &self.engine,
            self.ingest.as_ref(),
            Some(&mut self.snapshot),
        ) {
            Dispatch::Respond(response) => self.queue_response(idx, &response),
            Dispatch::ShutdownRequested(response) => {
                self.stop.store(true, Ordering::SeqCst);
                for w in self.all_wakers.iter() {
                    w.wake();
                }
                wake_acceptor(self.addr);
                self.conn(idx).close_after_flush = true;
                self.queue_response(idx, &response);
            }
            Dispatch::AwaitFlush { accepted, ack } => {
                let epoch = self.conn(idx).epoch;
                self.transition(idx, ConnState::AwaitingFlush);
                if self
                    .flush_tx
                    .send(FlushJob {
                        token: idx,
                        epoch,
                        accepted,
                        ack,
                    })
                    .is_err()
                {
                    self.transition(idx, ConnState::Writing);
                    self.queue_response(
                        idx,
                        &err_response("snapshot builder has exited").to_string(),
                    );
                }
            }
        }
    }

    fn do_write(&mut self, idx: usize) {
        loop {
            let short = self.short_io(Site::ServerWrite);
            let step = {
                let conn = self.conn(idx);
                if conn.sent >= conn.out.len() {
                    conn.out.clear();
                    conn.sent = 0;
                    WriteStep::Drained {
                        close: conn.close_after_flush,
                    }
                } else {
                    let end = if short { conn.sent + 1 } else { conn.out.len() };
                    match conn.stream.write(&conn.out[conn.sent..end]) {
                        Ok(0) => WriteStep::Dead,
                        Ok(n) => {
                            conn.sent += n;
                            conn.last_activity = Instant::now();
                            WriteStep::Progress
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            WriteStep::WouldBlock
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                            WriteStep::Progress
                        }
                        Err(_) => WriteStep::Dead,
                    }
                }
            };
            match step {
                WriteStep::Drained { close: true } => {
                    self.close(idx);
                    return;
                }
                WriteStep::Drained { close: false } => {
                    if self.conn(idx).state == ConnState::Writing {
                        self.transition(idx, ConnState::Reading);
                    }
                    break;
                }
                WriteStep::Progress => continue,
                WriteStep::WouldBlock => break,
                WriteStep::Dead => {
                    self.close(idx);
                    return;
                }
            }
        }
        self.update_interest(idx);
    }

    /// Closes a half-closed connection once nothing remains to answer.
    fn check_quiescent(&mut self, idx: usize) {
        let done = {
            let conn = self.conn(idx);
            conn.read_closed
                && conn.pending.is_empty()
                && conn.pending_error.is_none()
                && conn.state != ConnState::AwaitingFlush
                && conn.sent >= conn.out.len()
        };
        if done {
            self.close(idx);
        }
    }

    fn handle_event(&mut self, token: u64, revents: u32) {
        let idx = token as usize;
        if idx >= self.slab.len() || self.slab[idx].is_none() {
            return;
        }
        if revents & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            self.close(idx);
            return;
        }
        if revents & sys::EPOLLOUT != 0 {
            self.do_write(idx);
        }
        if self.slab[idx].is_some() && revents & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 {
            self.do_read(idx);
        }
    }

    fn handle_completion(&mut self, done: FlushDone) {
        let idx = done.token;
        // The slot may have been reused since the job was queued; the
        // epoch check makes a late completion a no-op instead of a
        // response on a stranger's connection.
        let live = {
            let Some(conn) = self.slab.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            conn.epoch == done.epoch && conn.state == ConnState::AwaitingFlush
        };
        if !live {
            return;
        }
        self.queue_response(idx, &done.response);
        self.process_pending(idx);
        if self.slab[idx].is_some() {
            self.check_quiescent(idx);
        }
        if self.slab[idx].is_some() {
            self.update_interest(idx);
        }
    }

    /// Times out stalled peers, as socket deadlines would in a blocking
    /// loop: reading conns against `read_deadline`, writing conns (peer
    /// not draining) against `write_deadline`.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        let mut expired = Vec::new();
        for (idx, slot) in self.slab.iter().enumerate() {
            let Some(conn) = slot else { continue };
            let deadline = match conn.state {
                ConnState::Reading => self.config.read_deadline,
                ConnState::Writing => self.config.write_deadline,
                // A flush can legitimately outlast both deadlines; the
                // builder's own health is watched elsewhere.
                ConnState::AwaitingFlush => None,
            };
            if let Some(d) = deadline {
                if now.duration_since(conn.last_activity) > d {
                    expired.push(idx);
                }
            }
        }
        for idx in expired {
            self.engine
                .metrics()
                .timeouts
                .fetch_add(1, Ordering::Relaxed);
            self.close(idx);
        }
    }

    fn run(mut self) {
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 512];
        {
            let r = &self.engine.metrics().reactor;
            r.mark_enabled();
            r.reactors.fetch_add(1, Ordering::Relaxed);
        }
        loop {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let n = self.epoll.wait(&mut events, POLL_TIMEOUT);
            let handle_start = Instant::now();
            let mut handled = 0u64;
            for event in events.iter().take(n) {
                let (data, revents) = (event.data, event.events);
                handled += 1;
                if data == WAKE_TOKEN {
                    self.waker.drain();
                    while let Ok(stream) = self.conn_rx.try_recv() {
                        self.register(stream);
                    }
                    while let Ok(done) = self.done_rx.try_recv() {
                        self.handle_completion(done);
                    }
                } else {
                    self.handle_event(data, revents);
                }
            }
            self.sweep_deadlines();
            // At most one poll timeout after a publish, even with no
            // request to refresh it, the replaced snapshot is let go.
            self.engine.release_replaced(&mut self.snapshot);
            if handled > 0 {
                let r = &self.engine.metrics().reactor;
                r.events.fetch_add(handled, Ordering::Relaxed);
                r.poll.record(handle_start.elapsed(), None);
            }
        }
        // Unwind: every registered connection, plus any accepted sockets
        // still parked in the dispatch queue, count off the active gauge.
        for idx in 0..self.slab.len() {
            self.close(idx);
        }
        while self.conn_rx.try_recv().is_ok() {
            self.release_refused();
        }
    }
}

/// Waiter thread: blocks on ingest acknowledgements so the reactor never
/// parks. One per reactor; acks serialize behind the builder anyway.
fn waiter_loop(
    engine: Arc<Engine>,
    jobs: Receiver<FlushJob>,
    done: Sender<FlushDone>,
    waker: Arc<Waker>,
) {
    while let Ok(job) = jobs.recv() {
        let response = ingest_ack_response(&engine, job.accepted, job.ack.recv().ok());
        if done
            .send(FlushDone {
                token: job.token,
                epoch: job.epoch,
                response,
            })
            .is_err()
        {
            return;
        }
        waker.wake();
    }
}

/// Dispatching acceptor: blocking `accept`, admission control, and
/// round-robin handoff to reactor queues.
fn acceptor_loop(
    listener: TcpListener,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    queues: Vec<SyncSender<TcpStream>>,
    wakers: Arc<Vec<Arc<Waker>>>,
    config: ServerConfig,
) {
    let mut next = 0usize;
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => continue,
        };
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let reactor_metrics = &engine.metrics().reactor;
        if reactor_metrics.active_connections.load(Ordering::Relaxed)
            >= config.max_connections as u64
        {
            shed(&engine, stream, "shed: server at connection capacity");
            continue;
        }
        // Optimistically count the connection; a reactor that fails to
        // register it gives the slot back.
        reactor_metrics
            .active_connections
            .fetch_add(1, Ordering::Relaxed);
        let mut parked = Some(stream);
        for attempt in 0..queues.len() {
            let r = (next + attempt) % queues.len();
            match queues[r].try_send(parked.take().unwrap()) {
                Ok(()) => {
                    next = r + 1;
                    reactor_metrics.accepted.fetch_add(1, Ordering::Relaxed);
                    wakers[r].wake();
                    break;
                }
                Err(TrySendError::Full(s)) | Err(TrySendError::Disconnected(s)) => {
                    parked = Some(s);
                }
            }
        }
        if let Some(stream) = parked {
            reactor_metrics
                .active_connections
                .fetch_sub(1, Ordering::Relaxed);
            shed(&engine, stream, "shed: accept backlog full");
        }
    }
}

/// Refuses a connection with an explicit shed frame (bounded write so a
/// hostile peer cannot pin the acceptor) and counts it in
/// `reactor.shed_connections` and `rejected_connections`.
fn shed(engine: &Engine, mut stream: TcpStream, reason: &str) {
    let m = engine.metrics();
    m.rejected_connections.fetch_add(1, Ordering::Relaxed);
    m.reactor.shed_connections.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let frame = encode_frame(&err_response(reason).to_string());
    let _ = stream.write_all(&frame);
    let _ = stream.flush();
}

/// Starts the reactor server on an already-bound listener.
pub(crate) fn serve_reactor(
    listener: TcpListener,
    engine: Arc<Engine>,
    ingest: Option<IngestQueue>,
    config: ServerConfig,
    addr: SocketAddr,
) -> std::io::Result<ServerHandle> {
    let stop = Arc::new(AtomicBool::new(false));
    let reactors = config.reactors.max(1);
    engine.metrics().reactor.mark_enabled();

    let mut wakers = Vec::with_capacity(reactors);
    for _ in 0..reactors {
        wakers.push(Arc::new(Waker::new()?));
    }
    let wakers = Arc::new(wakers);

    let mut queues = Vec::with_capacity(reactors);
    let mut threads = Vec::new();
    for i in 0..reactors {
        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(config.accept_backlog.max(1));
        queues.push(conn_tx);
        let (flush_tx, flush_rx) = mpsc::channel::<FlushJob>();
        let (done_tx, done_rx) = mpsc::channel::<FlushDone>();
        let waker = wakers[i].clone();

        let epoll = Epoll::new()?;
        epoll.ctl(sys::EPOLL_CTL_ADD, waker.fd(), sys::EPOLLIN, WAKE_TOKEN)?;

        threads.push(
            std::thread::Builder::new()
                .name(format!("plt-serve-waiter-{i}"))
                .spawn({
                    let engine = engine.clone();
                    let waker = waker.clone();
                    move || waiter_loop(engine, flush_rx, done_tx, waker)
                })?,
        );

        let reactor = Reactor {
            id: i,
            epoll,
            waker,
            conn_rx,
            flush_tx,
            done_rx,
            slab: Vec::new(),
            free: Vec::new(),
            epoch: 0,
            engine: engine.clone(),
            ingest: ingest.clone(),
            config: config.clone(),
            stop: stop.clone(),
            all_wakers: wakers.clone(),
            addr,
            snapshot: None,
            read_buf: vec![0; 16 * 1024].into_boxed_slice(),
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("plt-serve-reactor-{}", reactor.id))
                .spawn(move || reactor.run())?,
        );
    }

    threads.push(
        std::thread::Builder::new()
            .name("plt-serve-dispatch".into())
            .spawn({
                let engine = engine.clone();
                let stop = stop.clone();
                let wakers = wakers.clone();
                let config = config.clone();
                move || acceptor_loop(listener, engine, stop, queues, wakers, config)
            })?,
    );

    let wake_fns: Vec<Box<dyn Fn() + Send + Sync>> = wakers
        .iter()
        .map(|w| {
            let w = w.clone();
            Box::new(move || w.wake()) as Box<dyn Fn() + Send + Sync>
        })
        .collect();
    Ok(ServerHandle::from_parts(addr, stop, threads, wake_fns))
}
