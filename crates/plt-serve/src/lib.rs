//! # plt-serve — online itemset query service over mined PLT results
//!
//! Mining answers "what is frequent?" once; applications then ask the
//! result thousands of point questions per second — supports of given
//! baskets, best extensions, recommendations. This crate serves those
//! questions from an immutable, read-optimized [`Snapshot`] index while
//! a background [`builder`] re-mines a sliding window and republishes.
//!
//! The layers, bottom up:
//!
//! * [`Snapshot`] (from `plt-query`, re-exported here) — the index, the
//!   same one the query planner executes against. It keeps the mining
//!   result's own table, sorted by each itemset's **canonical key**
//!   (Lemma 4.1.2: a position vector uniquely identifies its itemset),
//!   so a support probe is one binary search in one size group;
//!   Lemma 4.1.3's level-down subsets, inverted over the table's entry
//!   ids, give an extension table; infrequent queries fall back to the
//!   exact [`SupportOracle`](plt_core::SupportOracle).
//! * [`engine`] — the concurrency shell: one snapshot slot a request
//!   pins once by cloning its `Arc` (readers never wait on mining), a
//!   sharded LRU [`cache`] of rendered responses, per-endpoint
//!   [`metrics`] with p50/p99 latency.
//! * [`builder`] — a background thread folding `INGEST` batches into a
//!   [`ShardedPipeline`](plt_shard::ShardedPipeline): only the rank-range
//!   shards a batch touches are re-mined before a fresh snapshot is
//!   published (one pointer swap; cache cleared).
//! * [`server`]/[`client`] — a TCP wire: length-prefixed JSON frames
//!   ([`proto`]) carrying one flat reply envelope (`{"ok":…}`, the
//!   engine's rendered string as is). On Linux one acceptor feeds an
//!   epoll [`reactor`] whose few event-loop threads multiplex every
//!   connection; targets without epoll fall back to a thread per
//!   connection. `std::net` only; no async runtime. Connections carry
//!   read/write deadlines, a max-frame bound, and a capacity cap; the
//!   client retries idempotent requests with capped backoff.
//! * [`fault`] — seed-deterministic fault injection (torn/oversized
//!   frames, short I/O, stalls, builder panics) threaded through all of
//!   the above for reproducible chaos testing. A failed rebuild degrades
//!   the service to its last good snapshot (`stale: true` on responses)
//!   instead of killing it.
//!
//! ## Quick start
//!
//! ```
//! use plt_serve::builder::{bootstrap, BuilderConfig};
//! use plt_serve::client::Client;
//! use plt_serve::server::{serve, ServerConfig};
//!
//! let warmup = vec![vec![1, 2], vec![1, 2], vec![1, 3]];
//! let config = BuilderConfig { min_support: 2, ..BuilderConfig::default() };
//! let (engine, builder) = bootstrap(&warmup, config).unwrap();
//! let handle = serve("127.0.0.1:0", engine, Some(builder.queue()),
//!                    ServerConfig { reactors: 1, ..ServerConfig::default() }).unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! assert_eq!(client.support(&[1, 2]).unwrap().support, 2);
//! client.shutdown().unwrap();
//! handle.join();
//! builder.stop();
//! ```

pub mod builder;
pub mod cache;
pub mod client;
pub mod decode;
pub mod engine;
pub mod fault;
pub mod json;
pub mod metrics;
pub mod proto;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod server;

pub use builder::{bootstrap, BuilderConfig, BuilderHandle, IngestQueue};
pub use client::{Client, ClientConfig, ClientError, RetryPolicy, SupportReply};
pub use decode::FrameDecoder;
pub use engine::{Engine, ServingState};
pub use fault::{FaultConfig, FaultEvent, FaultPlan, Site};
pub use plt_approx::SketchConfig;
pub use plt_query::{Recommendation, Snapshot, SupportAnswer, SupportSource};
pub use proto::Request;
pub use server::{serve, ServerConfig, ServerHandle};
