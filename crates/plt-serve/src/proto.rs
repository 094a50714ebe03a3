//! Wire protocol: length-prefixed JSON frames over TCP.
//!
//! One message per frame; a frame is the decimal byte length of the
//! payload, a newline, the JSON payload, and a trailing newline:
//!
//! ```text
//! 23\n{"op":"ping","id":null}\n
//! ```
//!
//! The explicit length lets readers allocate exactly and reject
//! oversized frames before parsing; the newlines keep the stream
//! human-readable under `nc`/`telnet`. Requests are objects with an
//! `"op"` discriminator; responses always carry `"ok"` (and `"error"`
//! when `ok` is false). The full request/response vocabulary is
//! documented in the workspace README's *Serving* section.

use std::io::{BufRead, Read, Write};

use plt_core::item::Item;

use crate::decode::{encode_frame_with, MAX_HEADER_BYTES};
use crate::fault::{FaultPlan, Site};
use crate::json::Json;

/// Frames larger than this are rejected before allocation. Generous for
/// protocol traffic (an ingest batch of thousands of transactions fits).
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Exact support of an itemset.
    Support { items: Vec<Item> },
    /// The `k` highest-support itemsets with at least `min_size` items.
    TopK { k: usize, min_size: usize },
    /// Frequent one-item extensions of a basket.
    Extensions { items: Vec<Item>, k: usize },
    /// Rule-backed recommendations for a basket.
    Recommend { items: Vec<Item>, k: usize },
    /// A query-language expression (see `plt-query`), planned and
    /// executed with plan provenance in the response.
    Query { expr: String },
    /// Service metrics.
    Stats,
    /// Append transactions to the stream behind the snapshot builder.
    /// With `wait`, the response is delayed until the resulting
    /// snapshot is published (and reports its generation).
    Ingest {
        transactions: Vec<Vec<Item>>,
        wait: bool,
    },
    /// Protocol handshake. The server speaks one envelope, so the ack
    /// always names version 1, whatever the client asked for.
    Hello { version: u64 },
    /// Liveness probe; echoes the current generation.
    Ping,
    /// Ask the server to stop accepting connections and exit.
    Shutdown,
}

impl Request {
    /// Parses a request object. Unknown or malformed requests yield a
    /// human-readable error string (sent back as a protocol error).
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing \"op\" field")?;
        let items = |field: &str| -> Result<Vec<Item>, String> {
            match v.get(field) {
                None => Ok(Vec::new()),
                Some(arr) => arr
                    .as_items()
                    .ok_or(format!("\"{field}\" must be an array of item ids")),
            }
        };
        let k = |default: usize| -> Result<usize, String> {
            match v.get("k") {
                None => Ok(default),
                Some(n) => n
                    .as_u64()
                    .map(|n| n as usize)
                    .ok_or("\"k\" must be a non-negative integer".to_string()),
            }
        };
        match op {
            "support" => Ok(Request::Support {
                items: items("items")?,
            }),
            "top_k" => {
                let min_size = match v.get("min_size") {
                    None => 1,
                    Some(n) => n
                        .as_u64()
                        .map(|n| n as usize)
                        .ok_or("\"min_size\" must be a non-negative integer")?,
                };
                Ok(Request::TopK {
                    k: k(10)?,
                    min_size,
                })
            }
            "extensions" => Ok(Request::Extensions {
                items: items("items")?,
                k: k(10)?,
            }),
            "recommend" => Ok(Request::Recommend {
                items: items("items")?,
                k: k(5)?,
            }),
            "query" => {
                let expr = v
                    .get("expr")
                    .and_then(Json::as_str)
                    .ok_or("\"expr\" must be a string")?;
                Ok(Request::Query {
                    expr: expr.to_string(),
                })
            }
            "stats" => Ok(Request::Stats),
            "ingest" => {
                let arr = v
                    .get("transactions")
                    .and_then(Json::as_arr)
                    .ok_or("\"transactions\" must be an array of arrays")?;
                let mut transactions = Vec::with_capacity(arr.len());
                for t in arr {
                    transactions.push(
                        t.as_items()
                            .ok_or("each transaction must be an array of item ids")?,
                    );
                }
                let wait = match v.get("wait") {
                    None => false,
                    Some(b) => b.as_bool().ok_or("\"wait\" must be a boolean")?,
                };
                Ok(Request::Ingest { transactions, wait })
            }
            "hello" => {
                let version = match v.get("version") {
                    None => 1,
                    Some(n) => n
                        .as_u64()
                        .ok_or("\"version\" must be a non-negative integer")?,
                };
                Ok(Request::Hello { version })
            }
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Renders the request as a protocol object (client side).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Support { items } => Json::obj(vec![
                ("op", Json::str("support")),
                ("items", Json::items(items)),
            ]),
            Request::TopK { k, min_size } => Json::obj(vec![
                ("op", Json::str("top_k")),
                ("k", Json::from(*k as u64)),
                ("min_size", Json::from(*min_size as u64)),
            ]),
            Request::Extensions { items, k } => Json::obj(vec![
                ("op", Json::str("extensions")),
                ("items", Json::items(items)),
                ("k", Json::from(*k as u64)),
            ]),
            Request::Recommend { items, k } => Json::obj(vec![
                ("op", Json::str("recommend")),
                ("items", Json::items(items)),
                ("k", Json::from(*k as u64)),
            ]),
            Request::Query { expr } => Json::obj(vec![
                ("op", Json::str("query")),
                ("expr", Json::Str(expr.clone())),
            ]),
            Request::Stats => Json::obj(vec![("op", Json::str("stats"))]),
            Request::Ingest { transactions, wait } => Json::obj(vec![
                ("op", Json::str("ingest")),
                (
                    "transactions",
                    Json::Arr(transactions.iter().map(|t| Json::items(t)).collect()),
                ),
                ("wait", Json::Bool(*wait)),
            ]),
            Request::Hello { version } => Json::obj(vec![
                ("op", Json::str("hello")),
                ("version", Json::from(*version)),
            ]),
            Request::Ping => Json::obj(vec![("op", Json::str("ping"))]),
            Request::Shutdown => Json::obj(vec![("op", Json::str("shutdown"))]),
        }
    }

    /// The canonical cache key: the compact rendering of the request.
    /// Deterministic because `to_json` emits fields in a fixed order.
    pub fn cache_key(&self) -> String {
        self.to_json().to_string()
    }
}

/// Builds a success response envelope around payload fields.
pub fn ok_response(mut fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("ok", Json::Bool(true))];
    pairs.append(&mut fields);
    Json::obj(pairs)
}

/// Builds an error response.
pub fn err_response(message: impl Into<String>) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.into())),
    ])
}

/// Writes one frame: `<len>\n<payload>\n`.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    debug_assert!(!payload.contains('\n'), "payloads are single-line JSON");
    write!(w, "{}\n{}\n", payload.len(), payload)?;
    w.flush()
}

/// Writes one frame, consulting a fault plan first: the bytes are
/// [`encode_frame_with`]'s. A torn frame sends a deterministic prefix of
/// the encoded bytes then fails; an oversized frame lies in the length
/// header (past [`MAX_FRAME_BYTES`]) then fails. Either way the caller
/// sees `ConnectionAborted` and must treat the connection as dead —
/// exactly what a real half-written frame implies.
pub fn write_frame_with(
    w: &mut impl Write,
    payload: &str,
    fault: Option<(&FaultPlan, Site)>,
) -> std::io::Result<()> {
    let (bytes, close) = encode_frame_with(payload, fault);
    w.write_all(&bytes)?;
    w.flush()?;
    if close {
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionAborted,
            "fault injection: torn or oversized frame",
        ));
    }
    Ok(())
}

/// Reads one frame; `Ok(None)` on clean EOF before a frame starts.
/// Frames above [`MAX_FRAME_BYTES`] are rejected.
pub fn read_frame(r: &mut impl BufRead) -> std::io::Result<Option<String>> {
    read_frame_limited(r, MAX_FRAME_BYTES)
}

/// Reads one frame with an explicit size limit (the server's configured
/// backpressure bound). The limit is checked before any allocation, and
/// the length header is read through a [`MAX_HEADER_BYTES`] window, so a
/// peer that never sends the newline cannot grow the buffer.
pub fn read_frame_limited(
    r: &mut impl BufRead,
    max_frame: usize,
) -> std::io::Result<Option<String>> {
    let mut header = String::new();
    let read = r
        .by_ref()
        .take(MAX_HEADER_BYTES as u64)
        .read_line(&mut header)?;
    if read == 0 {
        return Ok(None);
    }
    if read == MAX_HEADER_BYTES && !header.ends_with('\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame header exceeds {MAX_HEADER_BYTES} bytes"),
        ));
    }
    let len: usize = header.trim().parse().map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("invalid frame header {header:?}"),
        )
    })?;
    if len > max_frame {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    // Trailing newline.
    let mut nl = [0u8; 1];
    r.read_exact(&mut nl)?;
    if nl[0] != b'\n' {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame missing trailing newline",
        ));
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame is not utf-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, r#"{"op":"ping"}"#).unwrap();
        write_frame(&mut buf, r#"{"op":"stats"}"#).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(r#"{"op":"ping"}"#)
        );
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(r#"{"op":"stats"}"#)
        );
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn limited_reader_applies_the_given_bound() {
        let mut buf = Vec::new();
        write_frame(&mut buf, r#"{"op":"stats"}"#).unwrap();
        let mut r = std::io::Cursor::new(buf.clone());
        let err = read_frame_limited(&mut r, 4).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds limit"), "{err}");
        let mut r = std::io::Cursor::new(buf);
        assert!(read_frame_limited(&mut r, 64).unwrap().is_some());
    }

    #[test]
    fn fault_aware_writer_tears_and_oversizes_deterministically() {
        use crate::fault::{FaultConfig, FaultPlan, Site};
        // torn_frame = 1.0: every frame is torn; the bytes on the wire are
        // a strict prefix of the clean encoding and the writer errors.
        let plan = FaultPlan::new(FaultConfig {
            torn_frame: 1.0,
            ..FaultConfig::disabled(5)
        });
        let mut torn = Vec::new();
        let err = write_frame_with(
            &mut torn,
            r#"{"op":"ping"}"#,
            Some((&plan, Site::ServerWrite)),
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted, "{err}");
        let mut clean = Vec::new();
        write_frame(&mut clean, r#"{"op":"ping"}"#).unwrap();
        assert!(!torn.is_empty() && torn.len() < clean.len());
        assert_eq!(&clean[..torn.len()], &torn[..]);

        // oversized_frame = 1.0: the header lies past the limit and the
        // receiving side rejects before allocating.
        let plan = FaultPlan::new(FaultConfig {
            oversized_frame: 1.0,
            ..FaultConfig::disabled(5)
        });
        let mut big = Vec::new();
        assert!(write_frame_with(&mut big, "{}", Some((&plan, Site::ClientWrite))).is_err());
        let mut r = std::io::Cursor::new(big);
        assert!(read_frame(&mut r).is_err());

        // No fault plan: plain write, round-trips.
        let mut ok = Vec::new();
        write_frame_with(&mut ok, r#"{"op":"ping"}"#, None).unwrap();
        let mut r = std::io::Cursor::new(ok);
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(r#"{"op":"ping"}"#)
        );
    }

    #[test]
    fn read_frame_rejects_garbage() {
        let mut r = std::io::Cursor::new(b"notanumber\n{}\n".to_vec());
        assert!(read_frame(&mut r).is_err());
        let huge = format!("{}\n", MAX_FRAME_BYTES + 1);
        let mut r = std::io::Cursor::new(huge.into_bytes());
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn header_line_is_capped() {
        let mut r = std::io::Cursor::new(vec![b'9'; 1 << 20]);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.to_string(), "frame header exceeds 4096 bytes");
        assert_eq!(r.position(), MAX_HEADER_BYTES as u64, "read past the cap");
        // The longest accepted header line is exactly the cap, newline
        // included.
        let mut padded = format!("{:0>width$}\n", 2, width = MAX_HEADER_BYTES - 1).into_bytes();
        padded.extend_from_slice(b"{}\n");
        let mut r = std::io::Cursor::new(padded);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{}"));
    }

    #[test]
    fn requests_round_trip_through_json() {
        let cases = vec![
            Request::Support {
                items: vec![1, 2, 3],
            },
            Request::TopK { k: 7, min_size: 2 },
            Request::Extensions {
                items: vec![4],
                k: 3,
            },
            Request::Recommend {
                items: vec![],
                k: 5,
            },
            Request::Query {
                expr: "TOP 5 WHERE support >= 0.2".to_string(),
            },
            Request::Stats,
            Request::Ingest {
                transactions: vec![vec![1, 2], vec![3]],
                wait: true,
            },
            Request::Hello { version: 2 },
            Request::Ping,
            Request::Shutdown,
        ];
        for req in cases {
            let json = req.to_json();
            let back = Request::from_json(&json).unwrap();
            assert_eq!(back, req, "{json}");
        }
    }

    #[test]
    fn defaults_apply_when_fields_missing() {
        let v = Json::parse(r#"{"op":"top_k"}"#).unwrap();
        assert_eq!(
            Request::from_json(&v).unwrap(),
            Request::TopK { k: 10, min_size: 1 }
        );
        let v = Json::parse(r#"{"op":"recommend","items":[9]}"#).unwrap();
        assert_eq!(
            Request::from_json(&v).unwrap(),
            Request::Recommend {
                items: vec![9],
                k: 5
            }
        );
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        let v = Json::parse(r#"{"op":"warp"}"#).unwrap();
        assert!(Request::from_json(&v).unwrap_err().contains("warp"));
        let v = Json::parse(r#"{"items":[1]}"#).unwrap();
        assert!(Request::from_json(&v).unwrap_err().contains("op"));
        let v = Json::parse(r#"{"op":"support","items":[-1]}"#).unwrap();
        assert!(Request::from_json(&v).is_err());
        let v = Json::parse(r#"{"op":"query","expr":7}"#).unwrap();
        assert!(Request::from_json(&v).unwrap_err().contains("expr"));
        let v = Json::parse(r#"{"op":"query"}"#).unwrap();
        assert!(Request::from_json(&v).unwrap_err().contains("expr"));
    }

    #[test]
    fn cache_keys_are_canonical_per_request() {
        let a = Request::Support { items: vec![1, 2] };
        let b = Request::Support { items: vec![1, 2] };
        let c = Request::Support { items: vec![2, 1] };
        assert_eq!(a.cache_key(), b.cache_key());
        // Item order is part of the key; the snapshot canonicalizes, the
        // cache does not need to.
        assert_ne!(a.cache_key(), c.cache_key());
    }
}
