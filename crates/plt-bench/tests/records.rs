//! Byte-level pins for the `BENCH_*.json` records, and the `--json-out`
//! contract of the `experiments` binary.

use std::process::Command;

use plt_bench::experiments::{
    x13_json, x14_json, x15_json, x16_json, x17_json, x18_json, ApproxCell, IdleCell,
    IncrementalCell, KernelCell, QueryCell, Scale, ServeCells, ServeLoadCell, SimdCell,
    StorageCell,
};

/// Replaces the host-dependent `bench_meta` line with a fixed marker.
fn mask_bench_meta(json: &str) -> String {
    json.lines()
        .map(|line| match line.strip_prefix("  \"bench_meta\": ") {
            Some(_) => "  \"bench_meta\": \"masked\",\n".to_string(),
            None => format!("{line}\n"),
        })
        .collect()
}

#[test]
fn records_keep_their_committed_bytes() {
    let x13 = [
        IncrementalCell {
            dataset: "T10.I4.D2000".into(),
            mode: "localized",
            transactions: 2_000,
            delta_size: 20,
            shards: 16,
            dirty_shards: 3,
            itemsets: 1_234,
            incremental_secs: 0.001_234_567_8,
            full_secs: 0.045_678_912_3,
        },
        IncrementalCell {
            dataset: "ZIPF1.1.D2000".into(),
            mode: "uniform",
            transactions: 2_000,
            delta_size: 20,
            shards: 16,
            dirty_shards: 16,
            itemsets: 87,
            incremental_secs: 1.5,
            full_secs: 2.25,
        },
    ];
    let x14 = [SimdCell {
        dataset: "DENSE16.D600@30%".into(),
        min_sup: 180,
        itemsets: 4_095,
        eclat_tidset_secs: 0.012_345_678,
        eclat_bitset_secs: 0.003_456_789,
        simd_calls: 0,
        scalar_calls: 98_765,
        bitmap_intersections: 4_321,
    }];
    let kernels = [
        KernelCell {
            kernel: "prefix_sum".into(),
            len: 4_096,
            scalar_secs: 0.000_001_234_5,
            simd_secs: 0.000_000_987_6,
        },
        KernelCell {
            kernel: "and_popcount".into(),
            len: 65_536,
            scalar_secs: 0.000_123_456,
            simd_secs: 0.000_123_456,
        },
    ];
    let x15 = [StorageCell {
        dataset: "T10.I4.D1500".into(),
        transactions: 1_500,
        wal_deltas: 24,
        recovery_wal_secs: 0.012_345_67,
        recovery_ckpt_secs: 0.000_987_654_3,
        cold_lookups: 812,
        cold_lookup_us: 3.162_28,
        segment_lookups: 700,
        segments: 16,
        segment_bytes: 123_456,
        wal_bytes: 654_321,
    }];
    let x16 = ServeCells {
        idle: Some(IdleCell {
            target: 10_500,
            opened: 10_499,
            active_connections: 10_500,
            reactors: 2,
            nofile: 20_000,
            probe_p50_us: 144.2716,
            probe_p99_us: 286.1194,
        }),
        load: vec![ServeLoadCell {
            model: "threads".into(),
            clients: 64,
            ops: 65_536,
            elapsed_secs: 0.577_958_4,
            throughput: 113_392.349,
            p50_us: 435.9154,
            p99_us: 2_199.530_6,
        }],
    };
    let no_idle = ServeCells {
        idle: None,
        load: Vec::new(),
    };
    let x17 = [
        QueryCell {
            dataset: "T10.I4.D2000".into(),
            query: "SUPPORT OF {1, 6, 10}".into(),
            plan: "index_point".into(),
            cost: 3.0,
            rows: 1,
            num_itemsets: 582,
            plan_us: 0.4284,
            naive_us: 109.7156,
            speedup: 256.1102,
            ops: vec![
                ("index_point".into(), 0.4019),
                ("full_scan".into(), 109.7156),
            ],
        },
        QueryCell {
            dataset: "ZIPF1.1.D2000".into(),
            query: "RULES WHERE confidence >= 0.9 AND support >= 0.02".into(),
            plan: "rule_scan".into(),
            cost: 536.8,
            rows: 27,
            num_itemsets: 1_497,
            plan_us: 18.0544,
            naive_us: 50.6061,
            speedup: 2.8029,
            ops: Vec::new(),
        },
    ];
    let x18 = [ApproxCell {
        dataset: "T10.I4.D4000".into(),
        transactions: 4_000,
        min_sup: 40,
        epsilon: 0.1,
        delta: 0.01,
        kept_samples: 270,
        sketch_bytes: 20_692,
        window_bytes: 1_380_904,
        memory_fraction: 0.014_984_5,
        probes: 12,
        max_abs_error: 135,
        max_bound: 1_982,
        sketch_us: 4.2815,
        exact_us: 351.1544,
        oracle_us: 7.1899,
        speedup: 82.0123,
    }];

    let cases = [
        ("x13", x13_json(&x13, Scale::Full), X13),
        ("x14", x14_json(&x14, &kernels, Scale::Quick), X14),
        ("x15", x15_json(&x15, Scale::Full), X15),
        ("x16", x16_json(&x16, Scale::Full), X16),
        ("x16 no idle", x16_json(&no_idle, Scale::Quick), X16_NO_IDLE),
        ("x17", x17_json(&x17, Scale::Full), X17),
        ("x18", x18_json(&x18, Scale::Full), X18),
    ];
    for (name, json, golden) in cases {
        assert_eq!(mask_bench_meta(&json), golden, "{name} record changed");
    }
}

#[test]
fn json_out_rejects_more_than_one_record_before_running_anything() {
    let path = std::env::temp_dir().join(format!("plt-bench-json-out-{}.json", std::process::id()));
    for exp in ["x13,x17", "all"] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["--exp", exp, "--json-out", path.to_str().unwrap()])
            .output()
            .expect("run experiments");
        assert_eq!(out.status.code(), Some(2), "--exp {exp}");
        assert!(out.stdout.is_empty(), "--exp {exp} ran an experiment");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--json-out"), "--exp {exp}: {stderr}");
        assert!(!path.exists(), "--exp {exp} wrote {}", path.display());
    }
}

// What the per-experiment writers that predate `Record` emitted for the
// cells above, `bench_meta` masked.

const X13: &str = r#"{
  "experiment": "x13_incremental",
  "bench_meta": "masked",
  "scale": "full",
  "cells": [
    {"dataset": "T10.I4.D2000", "mode": "localized", "transactions": 2000, "delta_size": 20, "shards": 16, "dirty_shards": 3, "itemsets": 1234, "incremental_secs": 0.001235, "full_secs": 0.045679, "speedup": 37.000},
    {"dataset": "ZIPF1.1.D2000", "mode": "uniform", "transactions": 2000, "delta_size": 20, "shards": 16, "dirty_shards": 16, "itemsets": 87, "incremental_secs": 1.500000, "full_secs": 2.250000, "speedup": 1.500}
  ]
}
"#;

const X14: &str = r#"{
  "experiment": "x14_simd_kernels",
  "bench_meta": "masked",
  "scale": "quick",
  "cells": [
    {"dataset": "DENSE16.D600@30%", "min_sup": 180, "itemsets": 4095, "eclat_tidset_secs": 0.012346, "eclat_bitset_secs": 0.003457, "eclat_speedup": 3.571, "speedup": 3.571, "kernel": {"simd_calls": 0, "scalar_calls": 98765, "bitmap_intersections": 4321}}
  ],
  "kernels": [
    {"kernel": "prefix_sum", "len": 4096, "scalar_secs": 0.000001, "simd_secs": 0.000001, "speedup": 1.250},
    {"kernel": "and_popcount", "len": 65536, "scalar_secs": 0.000123, "simd_secs": 0.000123, "speedup": 1.000}
  ]
}
"#;

const X15: &str = r#"{
  "experiment": "x15_storage",
  "bench_meta": "masked",
  "scale": "full",
  "cells": [
    {"dataset": "T10.I4.D1500", "transactions": 1500, "wal_deltas": 24, "wal_bytes": 654321, "recovery_wal_secs": 0.012346, "recovery_ckpt_secs": 0.000988, "cold_lookups": 812, "cold_lookup_us": 3.162, "segment_lookups": 700, "segments": 16, "segment_bytes": 123456}
  ]
}
"#;

const X16: &str = r#"{
  "experiment": "x16_async_serve",
  "bench_meta": "masked",
  "scale": "full",
  "idle": {"target": 10500, "opened": 10499, "active_connections": 10500, "reactors": 2, "nofile": 20000, "probe_p50_us": 144.272, "probe_p99_us": 286.119},
  "cells": [
    {"model": "threads", "clients": 64, "ops": 65536, "elapsed_secs": 0.577958, "throughput_ops_s": 113392.3, "p50_us": 435.915, "p99_us": 2199.531}
  ]
}
"#;

const X16_NO_IDLE: &str = r#"{
  "experiment": "x16_async_serve",
  "bench_meta": "masked",
  "scale": "quick",
  "idle": null,
  "cells": [
  ]
}
"#;

const X17: &str = r#"{
  "experiment": "x17_query",
  "bench_meta": "masked",
  "scale": "full",
  "cells": [
    {"dataset": "T10.I4.D2000", "query": "SUPPORT OF {1, 6, 10}", "plan": "index_point", "cost": 3.000, "rows": 1, "num_itemsets": 582, "plan_us": 0.428, "naive_us": 109.716, "speedup": 256.110, "ops": {"index_point": 0.402, "full_scan": 109.716}},
    {"dataset": "ZIPF1.1.D2000", "query": "RULES WHERE confidence >= 0.9 AND support >= 0.02", "plan": "rule_scan", "cost": 536.800, "rows": 27, "num_itemsets": 1497, "plan_us": 18.054, "naive_us": 50.606, "speedup": 2.803, "ops": {}}
  ]
}
"#;

const X18: &str = r#"{
  "experiment": "x18_approx",
  "bench_meta": "masked",
  "scale": "full",
  "cells": [
    {"dataset": "T10.I4.D4000", "transactions": 4000, "min_sup": 40, "epsilon": 0.100, "delta": 0.010, "kept_samples": 270, "sketch_bytes": 20692, "window_bytes": 1380904, "memory_fraction": 0.0150, "probes": 12, "max_abs_error": 135, "max_bound": 1982, "sketch_us": 4.282, "exact_us": 351.154, "oracle_us": 7.190, "speedup": 82.012}
  ]
}
"#;
