//! The benchmark's vocabulary: workload names and metric names with
//! their units. `BENCHMARK.json` at the repository root lists the same
//! names (a test keeps the two in step); this file is what the program
//! reports against.

/// The four workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["mine-sparse", "mine-dense", "serve-read", "serve-ingest"];

/// End-to-end metrics, `(name, unit)`: what a user of the system sees.
/// Every workload reports every one of them in an untraced run; "op" is
/// the workload's unit of work — one full mine (construct, mine, sort)
/// on `mine-*`, one read request over TCP on `serve-*`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, reported by a traced run. A layer
/// a workload never reaches reports 0. README.md maps each one to the
/// end-to-end metric and workload it should move.
pub const PER_LAYER: [(&str, &str); 65] = [
    // plt-data
    ("fimi.read_s", "s"),
    // plt-core construction (Algorithm 1)
    ("construct.rank_s", "s"),
    ("construct.encode_s", "s"),
    // plt-core conditional arena
    ("cond.mine_s", "s"),
    ("cond.vectors_folded", "count"),
    ("cond.dedup_hits", "count"),
    ("cond.dedup_hit_ratio", "ratio"),
    ("cond.copy_throughs", "count"),
    ("cond.single_path_shortcuts", "count"),
    ("cond.bytes_peak", "bytes"),
    // plt-simd kernels (the arena calls only the scalar backend unless
    // built with the `simd` feature)
    ("kernel.scalar_calls", "count"),
    // mining result
    ("result.sort_s", "s"),
    ("result.itemsets", "count"),
    // served traffic, split by request class
    ("serve.point_p50_us", "us"),
    ("serve.point_p99_us", "us"),
    ("serve.scan_p50_us", "us"),
    ("serve.scan_p99_us", "us"),
    // ingest as the writer sees it
    ("ingest.visible_p50_ms", "ms"),
    ("ingest.visible_p90_ms", "ms"),
    // plt-serve transport and protocol
    ("server.ping_rtt_us", "us"),
    ("server.self_us", "us"),
    ("proto.decode_us", "us"),
    ("proto.encode_us", "us"),
    // plt-serve engine and response cache
    ("cache.hit_ratio", "ratio"),
    ("engine.support.hit_us", "us"),
    ("engine.support.miss_us", "us"),
    ("engine.extensions.hit_us", "us"),
    ("engine.extensions.miss_us", "us"),
    ("engine.recommend.hit_us", "us"),
    ("engine.recommend.miss_us", "us"),
    ("engine.query_point.hit_us", "us"),
    ("engine.query_point.miss_us", "us"),
    ("engine.query_scan.hit_us", "us"),
    ("engine.query_scan.miss_us", "us"),
    // plt-serve snapshot index
    ("snapshot.support_index_us", "us"),
    ("snapshot.support_oracle_us", "us"),
    ("snapshot.oracle_share", "ratio"),
    ("snapshot.extensions_us", "us"),
    ("snapshot.recommend_us", "us"),
    ("snapshot.build_ms", "ms"),
    // plt-query
    ("query.parse_us", "us"),
    ("query.exec_us.index_point", "us"),
    ("query.exec_us.ext_traverse", "us"),
    ("query.exec_us.rule_scan", "us"),
    ("query.plan_share.index_point", "count"),
    ("query.plan_share.ext_traverse", "count"),
    ("query.plan_share.rule_scan", "count"),
    ("query.plan_cache_hit_ratio", "ratio"),
    // plt-shard incremental pipeline
    ("shard.apply_ms", "ms"),
    ("shard.update_ms", "ms"),
    ("shard.remine_ms", "ms"),
    ("shard.dirty_ratio", "ratio"),
    ("shard.rerank_ratio", "ratio"),
    // plt-serve builder thread
    ("builder.wait_ms", "ms"),
    ("stats.rebuild_push_us", "us"),
    ("stats.rebuild_rerank_us", "us"),
    ("stats.rebuild_snapshot_us", "us"),
    // plt-store durability
    ("store.wal_bytes_per_txn", "bytes"),
    ("store.checkpoint_apply_ms", "ms"),
    ("store.checkpoints", "count"),
    ("store.recovery_ms", "ms"),
    ("store.restart_s", "s"),
    // process CPU over the measured phase, and per op
    ("proc.cpu_s", "s"),
    ("proc.cpu_us_per_op", "us"),
    // the traced run against the untraced one
    ("trace.overhead_ratio", "ratio"),
];
