//! X14 — SIMD/bitset kernels: Eclat under each tidset representation,
//! and the raw `plt_core::kernels` primitives as direct `scalar::` calls
//! against dispatch. Build with `--features simd` to compare against the
//! AVX2 path; without it the "simd" entries measure dispatch onto the
//! scalar code.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use plt_baselines::{EclatMiner, TidRepr};
use plt_bench::datasets;
use plt_core::kernels::{self, scalar};
use plt_core::miner::Miner;

fn bench(c: &mut Criterion) {
    let workloads: Vec<(&str, Vec<Vec<u32>>, u64)> = vec![
        ("sparse", datasets::sparse(2_000), 20),
        ("dense", datasets::dense(600, 16), 180),
        ("zipf", datasets::zipf(2_000, 1.1), 20),
    ];
    for (name, db, min_sup) in &workloads {
        let mut group = c.benchmark_group(format!("x14/{name}"));
        group.sample_size(10);
        for (label, repr) in [("tidset", TidRepr::Tidset), ("bitset", TidRepr::Bitset)] {
            let miner = EclatMiner::default().with_repr(repr);
            group.bench_with_input(BenchmarkId::new("eclat", label), db, |b, db| {
                b.iter(|| miner.mine(db, *min_sup))
            });
        }
        group.finish();
    }

    // Raw kernel primitives over deterministic synthetic inputs.
    let deltas: Vec<u32> = (0..65_536u32).map(|i| i % 7).collect();
    let words_a: Vec<u64> = (0..4_096u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let words_b: Vec<u64> = (0..4_096u64)
        .map(|i| i.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .collect();
    let mut group = c.benchmark_group("x14/kernels");
    let mut out = Vec::new();
    group.bench_function(BenchmarkId::new("prefix_sum", "scalar"), |b| {
        b.iter(|| scalar::prefix_sum_into(&deltas, &mut out))
    });
    group.bench_function(BenchmarkId::new("prefix_sum", "simd"), |b| {
        b.iter(|| kernels::prefix_sum_into(&deltas, &mut out))
    });
    group.bench_function(BenchmarkId::new("and_popcount", "scalar"), |b| {
        b.iter(|| scalar::and_popcount(&words_a, &words_b))
    });
    group.bench_function(BenchmarkId::new("and_popcount", "simd"), |b| {
        b.iter(|| kernels::and_popcount(&words_a, &words_b))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
