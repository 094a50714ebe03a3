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
//! * [`snapshot`] — the index. Frequent itemsets are keyed by their
//!   **canonical position vector** (Lemma 4.1.2: a position vector
//!   uniquely identifies its itemset), so a support probe is one hash
//!   lookup; Lemma 4.1.3's level-down subsets, inverted, give an
//!   extension index; infrequent queries fall back to the exact
//!   [`SupportOracle`](plt_core::SupportOracle).
//! * [`engine`] — the concurrency shell: `RwLock<Arc<Snapshot>>` held
//!   only for an `Arc` clone per query (readers never wait on mining),
//!   a sharded LRU [`cache`] of rendered responses, per-endpoint
//!   [`metrics`] with p50/p99 latency.
//! * [`builder`] — a background thread folding `INGEST` batches into a
//!   [`ShardedPipeline`](plt_shard::ShardedPipeline): only the rank-range
//!   shards a batch touches are re-mined before a fresh snapshot is
//!   published (one pointer swap; cache cleared).
//! * [`server`]/[`client`] — a TCP wire: length-prefixed JSON frames
//!   ([`proto`]), N acceptor threads sharing one listener, a thread per
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
//!                    ServerConfig { acceptors: 1, ..ServerConfig::default() }).unwrap();
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
pub mod reader_pool;
pub mod server;
pub mod snapshot;

pub use builder::{bootstrap, BuilderConfig, BuilderHandle, IngestQueue};
pub use client::{Client, ClientConfig, ClientError, RetryPolicy, SupportReply};
pub use decode::FrameDecoder;
pub use engine::{Engine, ServingState};
pub use fault::{FaultConfig, FaultEvent, FaultPlan, Site};
pub use plt_approx::SketchConfig;
pub use proto::{negotiate_version, Request, MAX_PROTOCOL_VERSION};
pub use reader_pool::{ReadGuard, ReaderCache, ReaderPool};
pub use server::{serve, ServerConfig, ServerHandle, ServerModel};
pub use snapshot::{Recommendation, Snapshot, SupportAnswer, SupportSource};

#[cfg(test)]
mod prop_tests {
    //! Property: snapshot answers agree with the miner, whatever the
    //! database.

    use plt_core::construct::{construct, ConstructOptions};
    use plt_core::miner::{BruteForceMiner, Miner};
    use plt_core::ConditionalMiner;
    use plt_rules::RuleConfig;
    use proptest::prelude::*;

    use crate::snapshot::Snapshot;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every lookup — frequent (index path) or not (oracle path) —
        /// returns the true support, and `frequent` matches the
        /// threshold. Itemsets naming an item that was infrequent at
        /// construction have no rank in the PLT and report 0 (the
        /// documented `SupportOracle` semantics).
        #[test]
        fn prop_snapshot_agrees_with_miner(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..8, 1..5),
                1..25,
            ),
            queries in proptest::collection::vec(
                proptest::collection::btree_set(0u32..8, 1..4),
                1..12,
            ),
            min_support in 1u64..4,
        ) {
            let db: Vec<Vec<u32>> = db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let plt = construct(&db, min_support, ConstructOptions::conditional()).unwrap();
            let ranking = plt.ranking().clone();
            let result = ConditionalMiner::default().mine(&db, min_support);
            let snap = Snapshot::build(1, plt, &result, RuleConfig::default());
            let truth = BruteForceMiner.mine(&db, 1);
            for q in queries {
                let q: Vec<u32> = q.into_iter().collect();
                let all_ranked = q.iter().all(|&i| ranking.rank(i).is_some());
                let expect = if all_ranked {
                    truth.support(&q).unwrap_or(0)
                } else {
                    0
                };
                let got = snap.support(&q);
                prop_assert_eq!(got.support, expect, "support({:?})", &q);
                prop_assert_eq!(
                    got.frequent,
                    expect >= min_support,
                    "frequent({:?})", &q
                );
            }
        }

        /// The extension index is exactly the set of frequent 1-item
        /// supersets of each frequent itemset.
        #[test]
        fn prop_extensions_are_frequent_supersets(
            db in proptest::collection::vec(
                proptest::collection::btree_set(0u32..6, 1..5),
                1..20,
            ),
        ) {
            let db: Vec<Vec<u32>>= db.into_iter()
                .map(|t| t.into_iter().collect())
                .collect();
            let min_support = 2;
            let plt = construct(&db, min_support, ConstructOptions::conditional()).unwrap();
            let result = ConditionalMiner::default().mine(&db, min_support);
            let snap = Snapshot::build(1, plt, &result, RuleConfig::default());
            for (itemset, _) in result.iter() {
                let exts = snap.extensions(itemset.items(), usize::MAX);
                for (e, support) in exts {
                    prop_assert!(!itemset.contains(e));
                    let mut superset = itemset.items().to_vec();
                    superset.push(e);
                    prop_assert_eq!(
                        result.support(&superset),
                        Some(support),
                        "{:?} + {}", itemset, e
                    );
                }
            }
        }
    }
}
