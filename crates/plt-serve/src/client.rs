//! Blocking client for the framed protocol — used by the CLI's `query`
//! subcommand and the end-to-end tests. Replies come in the server's one
//! flat envelope (`{"ok":true,…}` or `{"ok":false,"error":…}`), so a
//! connection needs no handshake before its first request.
//!
//! The client is resilient by default: transport failures on idempotent
//! requests (every read endpoint plus `ping`/`stats`) are retried on a
//! fresh connection with capped exponential backoff and deterministic
//! jitter. Non-idempotent requests (`ingest`, `shutdown`) and raw
//! payloads are never retried — a retry there could double-apply a
//! batch. A [`FaultPlan`] in the config injects client-side faults for
//! chaos testing.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use plt_core::item::{Item, Support};

use crate::fault::{FaultPlan, FaultyStream, Site};
use crate::json::Json;
use crate::proto::{read_frame, write_frame_with, Request};

/// Retry policy for idempotent requests.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Additional attempts after the first failure (0 = no retry).
    pub max_retries: u32,
    /// First backoff delay; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter sequence.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            jitter_seed: 0x9e3779b97f4a7c15,
        }
    }
}

impl RetryPolicy {
    /// No retries at all.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }
}

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Socket read deadline (`None` blocks forever).
    pub read_timeout: Option<Duration>,
    /// Socket write deadline.
    pub write_timeout: Option<Duration>,
    pub retry: RetryPolicy,
    /// Deterministic fault injection on the client's own I/O. `None` in
    /// production.
    pub fault: Option<std::sync::Arc<FaultPlan>>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            retry: RetryPolicy::default(),
            fault: None,
        }
    }
}

/// One logical connection to a plt-serve server. Requests are sent one
/// at a time (the protocol is strictly request/response per frame); the
/// underlying TCP connection is re-dialed transparently when a retryable
/// request hits a transport error.
pub struct Client {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    conn: Option<Conn>,
    /// xorshift64 state for backoff jitter.
    rng: u64,
}

struct Conn {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: BufWriter<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("addrs", &self.addrs)
            .field("connected", &self.conn.is_some())
            .finish_non_exhaustive()
    }
}

/// A client-side failure: transport, framing, or a server-reported
/// protocol error.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    /// Response was not valid JSON or missing required fields.
    Malformed(String),
    /// Server answered `{"ok":false,...}`.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Malformed(m) => write!(f, "malformed response: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A support answer as reported over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupportReply {
    pub support: Support,
    pub frequent: bool,
    /// `"index"` or `"oracle"`.
    pub source: String,
    pub generation: u64,
    /// True when the server is degraded to a snapshot older than the
    /// data it has accepted (the last rebuild failed).
    pub stale: bool,
}

/// Only idempotent requests may be transparently retried: re-sending an
/// `ingest` could double-apply the batch, and `shutdown` acks race the
/// server exiting.
fn is_idempotent(request: &Request) -> bool {
    !matches!(request, Request::Ingest { .. } | Request::Shutdown)
}

/// A load-shed refusal (`shed: ...` error frame from admission control)
/// is an explicit "try again later", not a protocol error — idempotent
/// requests back off and retry through it.
fn is_shed(error: &ClientError) -> bool {
    matches!(error, ClientError::Server(m) if m.starts_with("shed:"))
}

impl Client {
    /// Connects with the default config (10s deadlines, 3 retries).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::with_config(addr, ClientConfig::default())
    }

    /// Connects with explicit knobs. Dials eagerly so misconfiguration
    /// fails here, not on the first request.
    pub fn with_config(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Client, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            )));
        }
        let mut seed = config.retry.jitter_seed;
        if seed == 0 {
            seed = 0x9e3779b97f4a7c15;
        }
        let mut client = Client {
            addrs,
            config,
            conn: None,
            rng: seed,
        };
        client.conn = Some(client.dial()?);
        Ok(client)
    }

    fn dial(&self) -> Result<Conn, ClientError> {
        let stream = TcpStream::connect(&self.addrs[..])?;
        stream.set_read_timeout(self.config.read_timeout)?;
        stream.set_write_timeout(self.config.write_timeout)?;
        let read_stream = stream.try_clone()?;
        let (read_half, write_half): (Box<dyn Read + Send>, Box<dyn Write + Send>) =
            match &self.config.fault {
                Some(plan) => (
                    Box::new(FaultyStream::new(
                        read_stream,
                        plan.clone(),
                        Site::ClientRead,
                    )),
                    Box::new(FaultyStream::new(stream, plan.clone(), Site::ClientWrite)),
                ),
                None => (Box::new(read_stream), Box::new(stream)),
            };
        Ok(Conn {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(write_half),
        })
    }

    /// Deterministic equal-jitter backoff: `cap(base·2ⁿ)/2` plus a
    /// jittered half, so synchronized clients spread out.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let base = self.config.retry.base_backoff.as_millis().max(1) as u64;
        let cap = self.config.retry.max_backoff.as_millis().max(1) as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(20)).min(cap);
        // xorshift64 — deterministic per client, seeded by the policy.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        Duration::from_millis(exp / 2 + self.rng % (exp / 2 + 1))
    }

    /// Sends one request and reads the matching response, re-dialing and
    /// retrying idempotent requests on transport errors. Protocol errors
    /// (`ok: false`) surface as [`ClientError::Server`] and are never
    /// retried.
    pub fn request(&mut self, request: &Request) -> Result<Json, ClientError> {
        let payload = request.to_json().to_string();
        let retriable = is_idempotent(request);
        let mut attempt = 0u32;
        loop {
            match self.request_once(&payload) {
                Err(ClientError::Io(_)) if retriable && attempt < self.config.retry.max_retries => {
                    let delay = self.backoff(attempt);
                    attempt += 1;
                    std::thread::sleep(delay);
                }
                Err(e) if is_shed(&e) && retriable && attempt < self.config.retry.max_retries => {
                    // The server refused us at admission; it closes the
                    // connection after the shed frame, so re-dial after
                    // backing off.
                    self.conn = None;
                    let delay = self.backoff(attempt);
                    attempt += 1;
                    std::thread::sleep(delay);
                }
                other => return other,
            }
        }
    }

    /// Sends a raw JSON payload (already rendered); used by the CLI to
    /// pass user-authored requests through unchanged. Never retried —
    /// the payload's idempotency is unknown.
    pub fn request_raw(&mut self, payload: &str) -> Result<Json, ClientError> {
        self.request_once(payload)
    }

    /// One attempt on the current (or a fresh) connection. Any transport
    /// failure poisons the connection so the next attempt re-dials.
    fn request_once(&mut self, payload: &str) -> Result<Json, ClientError> {
        let fault = self.config.fault.clone();
        let frame_fault = fault.as_deref().map(|plan| (plan, Site::ClientWrite));
        if self.conn.is_none() {
            self.conn = Some(self.dial()?);
        }
        let conn = self.conn.as_mut().unwrap();
        let result = (|| -> Result<Json, ClientError> {
            write_frame_with(&mut conn.writer, payload, frame_fault)?;
            let reply = read_frame(&mut conn.reader)?.ok_or_else(|| {
                // Mid-request EOF is a transport failure (server died or
                // dropped us), not a malformed response — retriable.
                ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-request",
                ))
            })?;
            decode_reply(&reply)
        })();
        if matches!(result, Err(ClientError::Io(_))) {
            self.conn = None;
        }
        result
    }

    /// Sends `requests` down one connection with up to `window` of them
    /// in flight, reading responses in order as slots free up — the
    /// protocol is strict FIFO per connection, so responses pair with
    /// requests positionally.
    ///
    /// Pipelining amortizes round trips: with `window = 1` this is the
    /// sequential path; with a deeper window a batch of point queries
    /// costs roughly one round trip per window, not per request. The
    /// reactor server decodes the whole burst and answers in order; the
    /// thread server reads frames back-to-back off its buffered socket.
    ///
    /// Per-request server errors (`ok: false`) land in the inner
    /// `Result` — a batch is not aborted by one bad request. Transport
    /// and framing failures abort the whole call (the outer `Err`),
    /// poisoning the connection; nothing is retried, because a batch's
    /// idempotency is the caller's call.
    pub fn pipeline(
        &mut self,
        requests: &[Request],
        window: usize,
    ) -> Result<Vec<Result<Json, String>>, ClientError> {
        let window = window.max(1);
        let payloads: Vec<String> = requests.iter().map(|r| r.to_json().to_string()).collect();
        let fault = self.config.fault.clone();
        let frame_fault = fault.as_deref().map(|plan| (plan, Site::ClientWrite));
        if self.conn.is_none() {
            self.conn = Some(self.dial()?);
        }
        let conn = self.conn.as_mut().unwrap();
        let result = (|| -> Result<Vec<Result<Json, String>>, ClientError> {
            let mut replies = Vec::with_capacity(payloads.len());
            let mut sent = 0usize;
            let mut received = 0usize;
            while received < payloads.len() {
                // Fill the window, then flush the burst as one write.
                let burst_end = payloads.len().min(received + window);
                while sent < burst_end {
                    write_frame_with(&mut conn.writer, &payloads[sent], frame_fault)?;
                    sent += 1;
                }
                let reply = read_frame(&mut conn.reader)?.ok_or_else(|| {
                    ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed mid-pipeline",
                    ))
                })?;
                received += 1;
                match decode_reply(&reply) {
                    Ok(v) => replies.push(Ok(v)),
                    // A per-request server error does not abort the batch.
                    Err(ClientError::Server(m)) => replies.push(Err(m)),
                    Err(e) => return Err(e),
                }
            }
            Ok(replies)
        })();
        if matches!(result, Err(ClientError::Io(_))) {
            self.conn = None;
        }
        result
    }

    /// `support` endpoint.
    pub fn support(&mut self, items: &[Item]) -> Result<SupportReply, ClientError> {
        let v = self.request(&Request::Support {
            items: items.to_vec(),
        })?;
        Ok(SupportReply {
            support: field_u64(&v, "support")?,
            frequent: v
                .get("frequent")
                .and_then(Json::as_bool)
                .ok_or_else(|| ClientError::Malformed("missing \"frequent\"".into()))?,
            source: v
                .get("source")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            generation: field_u64(&v, "generation")?,
            stale: v.get("stale").and_then(Json::as_bool).unwrap_or(false),
        })
    }

    /// `top_k` endpoint: `(items, support)` rows.
    pub fn top_k(
        &mut self,
        k: usize,
        min_size: usize,
    ) -> Result<Vec<(Vec<Item>, Support)>, ClientError> {
        let v = self.request(&Request::TopK { k, min_size })?;
        let rows = v
            .get("itemsets")
            .and_then(Json::as_arr)
            .ok_or_else(|| ClientError::Malformed("missing \"itemsets\"".into()))?;
        rows.iter()
            .map(|row| {
                let items = row
                    .get("items")
                    .and_then(Json::as_items)
                    .ok_or_else(|| ClientError::Malformed("row missing \"items\"".into()))?;
                Ok((items, field_u64(row, "support")?))
            })
            .collect()
    }

    /// `extensions` endpoint: `(item, support)` rows.
    pub fn extensions(
        &mut self,
        items: &[Item],
        k: usize,
    ) -> Result<Vec<(Item, Support)>, ClientError> {
        let v = self.request(&Request::Extensions {
            items: items.to_vec(),
            k,
        })?;
        let rows = v
            .get("extensions")
            .and_then(Json::as_arr)
            .ok_or_else(|| ClientError::Malformed("missing \"extensions\"".into()))?;
        rows.iter()
            .map(|row| Ok((field_u64(row, "item")? as Item, field_u64(row, "support")?)))
            .collect()
    }

    /// `recommend` endpoint: `(item, confidence)` rows (full detail is
    /// available via [`request`](Self::request)).
    pub fn recommend(&mut self, items: &[Item], k: usize) -> Result<Vec<(Item, f64)>, ClientError> {
        let v = self.request(&Request::Recommend {
            items: items.to_vec(),
            k,
        })?;
        let rows = v
            .get("recommendations")
            .and_then(Json::as_arr)
            .ok_or_else(|| ClientError::Malformed("missing \"recommendations\"".into()))?;
        rows.iter()
            .map(|row| {
                let item = field_u64(row, "item")? as Item;
                let confidence = row
                    .get("confidence")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ClientError::Malformed("row missing \"confidence\"".into()))?;
                Ok((item, confidence))
            })
            .collect()
    }

    /// `stats` endpoint, returned as raw JSON (shape documented in the
    /// README).
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.request(&Request::Stats)
    }

    /// `query` endpoint: one query-language expression, answered with
    /// rows plus plan provenance (`rows`, `row_kind`, `plan`, `cost`,
    /// `cache_hit`). Returned as raw JSON — the row shape depends on the
    /// query kind.
    pub fn query(&mut self, expr: &str) -> Result<Json, ClientError> {
        self.request(&Request::Query {
            expr: expr.to_string(),
        })
    }

    /// `ingest` endpoint; with `wait`, returns the published generation.
    pub fn ingest(
        &mut self,
        transactions: Vec<Vec<Item>>,
        wait: bool,
    ) -> Result<Option<u64>, ClientError> {
        let v = self.request(&Request::Ingest { transactions, wait })?;
        Ok(v.get("generation").and_then(Json::as_u64))
    }

    /// `ping` endpoint; returns the serving generation.
    pub fn ping(&mut self) -> Result<u64, ClientError> {
        let v = self.request(&Request::Ping)?;
        field_u64(&v, "generation")
    }

    /// Asks the server to stop.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Shutdown).map(|_| ())
    }
}

/// Parses one reply and applies the `ok`/`error` convention.
fn decode_reply(reply: &str) -> Result<Json, ClientError> {
    let v = Json::parse(reply).map_err(|e| ClientError::Malformed(e.to_string()))?;
    match v.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(v),
        Some(false) => Err(ClientError::Server(
            v.get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified")
                .to_string(),
        )),
        None => Err(ClientError::Malformed("response missing \"ok\"".into())),
    }
}

fn field_u64(v: &Json, name: &str) -> Result<u64, ClientError> {
    v.get(name)
        .and_then(Json::as_u64)
        .ok_or_else(|| ClientError::Malformed(format!("missing numeric \"{name}\"")))
}
