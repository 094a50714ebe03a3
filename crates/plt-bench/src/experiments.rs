//! The extended quantitative experiments X1–X10 and X13–X18 (see
//! `DESIGN.md` §3).
//!
//! X1–X10 are each a function from a [`Scale`] to a [`Table`]. X13–X18
//! split in three: `xN_*_cells` measures and returns raw cells,
//! `xN_table` renders them, and `xN_json` writes the machine-readable
//! record (a committed `BENCH_*.json`) through `record::Record`. The
//! `experiments` binary prints the tables and `EXPERIMENTS.md` records a
//! run. Every experiment asserts its answers agree before it reports a
//! number.

use std::time::Duration;

use plt_baselines::apriori::AprioriMiner;
use plt_baselines::fpgrowth::{build_fp_tree, FpGrowthMiner};
use plt_baselines::{AisMiner, DicMiner, EclatMiner, HMineMiner, PartitionMiner, TidRepr};
use plt_compress::CompressedPlt;
use plt_core::construct::{construct, ConstructOptions};
use plt_core::item::{Item, Support};
use plt_core::miner::{Miner, MiningResult};
use plt_core::posvec::PositionVector;
use plt_core::ranking::{ItemRanking, RankPolicy};
use plt_core::subset::{NaiveChecker, SubsetChecker};
use plt_core::topdown::{all_subset_supports, all_subset_supports_naive};
use plt_core::{ConditionalMiner, HybridMiner, TopDownMiner};
use plt_data::vertical::VerticalDb;
use plt_data::TransactionDb;
use plt_parallel::{par_construct, run_with_threads, ParallelEclatMiner, ParallelPltMiner};
use plt_shard::{Delta, ShardConfig, ShardedPipeline};

use crate::record::{Object, Record};
use crate::{datasets, fmt_duration, time_best, Table};

/// Workload scale: `Quick` finishes in seconds (CI / laptops); `Full`
/// approximates evaluation-section sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale run.
    Quick,
    /// Minutes-scale run.
    Full,
}

impl Scale {
    fn pick(self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    fn runs(self) -> usize {
        match self {
            Scale::Quick => 1,
            Scale::Full => 3,
        }
    }
}

/// The miner roster shared by the sweep experiments.
fn roster() -> Vec<Box<dyn Miner>> {
    vec![
        Box::new(ConditionalMiner::default()),
        Box::new(ParallelPltMiner::default()),
        Box::new(AprioriMiner::default()),
        Box::new(FpGrowthMiner),
        Box::new(EclatMiner::default()),
        Box::new(EclatMiner::with_diffsets()),
        Box::new(HMineMiner),
        Box::new(AisMiner),
        Box::new(PartitionMiner::default()),
        Box::new(DicMiner { block_size: 500 }),
    ]
}

/// Runs every miner over one `(db, min_sup)` cell, appending a row per
/// miner and asserting that all miners agree on the number of frequent
/// itemsets (a live correctness check inside the benchmark).
fn sweep_cell(
    table: &mut Table,
    label: &str,
    db: &[Vec<Item>],
    min_sup: Support,
    runs: usize,
    miners: &[Box<dyn Miner>],
) {
    let mut expected_len: Option<usize> = None;
    for miner in miners {
        let (result, elapsed) = time_best(runs, || miner.mine(db, min_sup));
        match expected_len {
            None => expected_len = Some(result.len()),
            Some(n) => assert_eq!(
                n,
                result.len(),
                "{} disagrees on |F| at {label}",
                miner.name()
            ),
        }
        table.row(vec![
            label.to_string(),
            miner.name().to_string(),
            result.len().to_string(),
            fmt_duration(elapsed),
        ]);
    }
}

/// X1 — runtime vs minimum support on sparse Quest data.
pub fn x1_sparse_sweep(scale: Scale) -> Table {
    let n = scale.pick(2_000, 10_000);
    let db = datasets::sparse(n);
    let mut table = Table::new(
        format!("X1: sparse sweep, T10.I4.D{n}"),
        &["min_sup", "miner", "|F|", "time"],
    );
    for rel in [0.02, 0.01, 0.005, 0.0025] {
        let min_sup = ((rel * n as f64).ceil() as Support).max(1);
        sweep_cell(
            &mut table,
            &format!("{:.2}%", rel * 100.0),
            &db,
            min_sup,
            scale.runs(),
            &roster(),
        );
    }
    table
}

/// X2 — runtime vs minimum support on dense data.
pub fn x2_dense_sweep(scale: Scale) -> Table {
    let n = scale.pick(600, 3_000);
    let db = datasets::dense(n, 16);
    let mut table = Table::new(
        format!("X2: dense sweep, DENSE16.D{n}"),
        &["min_sup", "miner", "|F|", "time"],
    );
    for rel in [0.9, 0.7, 0.5, 0.3] {
        let min_sup = ((rel * n as f64).ceil() as Support).max(1);
        sweep_cell(
            &mut table,
            &format!("{:.0}%", rel * 100.0),
            &db,
            min_sup,
            scale.runs(),
            &roster(),
        );
    }
    table
}

/// X3 — scalability with database size at fixed 1% support.
pub fn x3_scalability(scale: Scale) -> Table {
    let sizes: &[usize] = match scale {
        Scale::Quick => &[500, 1_000, 2_000, 4_000],
        Scale::Full => &[2_000, 4_000, 8_000, 16_000, 32_000],
    };
    let mut table = Table::new(
        "X3: scalability, T10.I4, min_sup = 1%",
        &["|D|", "miner", "|F|", "time"],
    );
    let miners: Vec<Box<dyn Miner>> = vec![
        Box::new(ConditionalMiner::default()),
        Box::new(ParallelPltMiner::default()),
        Box::new(AprioriMiner::default()),
        Box::new(FpGrowthMiner),
    ];
    for &n in sizes {
        let db = datasets::sparse(n);
        let min_sup = ((0.01 * n as f64).ceil() as Support).max(1);
        sweep_cell(
            &mut table,
            &n.to_string(),
            &db,
            min_sup,
            scale.runs(),
            &miners,
        );
    }
    table
}

/// X4 — top-down vs conditional crossover on dense short transactions,
/// including the canonical-vs-naive propagation ablation.
pub fn x4_topdown_crossover(scale: Scale) -> Table {
    let n = scale.pick(600, 2_000);
    let db = datasets::dense(n, 12);
    let mut table = Table::new(
        format!("X4: top-down crossover, DENSE12.D{n}"),
        &["min_sup", "method", "|F|", "time"],
    );
    for rel in [0.5, 0.2, 0.1, 0.05, 0.01] {
        let min_sup = ((rel * n as f64).ceil() as Support).max(1);
        let label = format!("{:.0}%", rel * 100.0);
        let runs = scale.runs();

        let (cond, t_cond) = time_best(runs, || ConditionalMiner::default().mine(&db, min_sup));
        table.row(vec![
            label.clone(),
            "conditional".into(),
            cond.len().to_string(),
            fmt_duration(t_cond),
        ]);

        let (top, t_top) = time_best(runs, || TopDownMiner::default().mine(&db, min_sup));
        assert_eq!(cond.len(), top.len(), "miners disagree at {label}");
        table.row(vec![
            label.clone(),
            "top-down".into(),
            top.len().to_string(),
            fmt_duration(t_top),
        ]);

        let (hybrid, t_hybrid) = time_best(runs, || HybridMiner::default().mine(&db, min_sup));
        assert_eq!(cond.len(), hybrid.len(), "hybrid disagrees at {label}");
        table.row(vec![
            label.clone(),
            "hybrid".into(),
            hybrid.len().to_string(),
            fmt_duration(t_hybrid),
        ]);

        // Ablation: canonical DP propagation vs naive per-vector subset
        // enumeration (same all-subsets table, different cost).
        let plt = construct(&db, min_sup, ConstructOptions::conditional()).unwrap();
        let (_, t_canon) = time_best(runs, || all_subset_supports(&plt));
        let (_, t_naive) = time_best(runs, || all_subset_supports_naive(&plt));
        table.row(vec![
            label.clone(),
            "  propagation:canonical".into(),
            "-".into(),
            fmt_duration(t_canon),
        ]);
        table.row(vec![
            label,
            "  propagation:naive".into(),
            "-".into(),
            fmt_duration(t_naive),
        ]);
    }
    table
}

/// X5 — parallel speedup vs thread count.
pub fn x5_parallel(scale: Scale) -> Table {
    let n = scale.pick(5_000, 50_000);
    let db = datasets::sparse(n);
    let min_sup = ((0.005 * n as f64).ceil() as Support).max(1);
    let mut table = Table::new(
        format!("X5: parallel speedup, T10.I4.D{n}, min_sup = 0.5%"),
        &["threads", "miner", "|F|", "time", "speedup"],
    );
    let thread_counts = crate::thread_sweep();
    type MineFn = Box<dyn Fn(&[Vec<Item>], Support) -> MiningResult + Sync>;
    let miners: Vec<(&str, MineFn)> = vec![
        (
            "plt-parallel",
            Box::new(|db: &[Vec<Item>], ms| ParallelPltMiner::default().mine(db, ms)),
        ),
        (
            "eclat-parallel",
            Box::new(|db: &[Vec<Item>], ms| ParallelEclatMiner.mine(db, ms)),
        ),
    ];
    for (name, mine) in &miners {
        let mut base: Option<Duration> = None;
        for &threads in &thread_counts {
            let (result, elapsed) =
                run_with_threads(threads, || time_best(scale.runs(), || mine(&db, min_sup)));
            let baseline = *base.get_or_insert(elapsed);
            table.row(vec![
                threads.to_string(),
                name.to_string(),
                result.len().to_string(),
                fmt_duration(elapsed),
                format!("{:.2}x", baseline.as_secs_f64() / elapsed.as_secs_f64()),
            ]);
        }
    }
    table
}

/// X6 — structure sizes: raw DB vs PLT table vs compressed PLT vs FP-tree.
pub fn x6_compression(scale: Scale) -> Table {
    let mut table = Table::new("X6: structure sizes", &["dataset", "metric", "value"]);
    let workloads: Vec<(String, Vec<Vec<Item>>, Support)> = vec![
        {
            let n = scale.pick(2_000, 10_000);
            let db = datasets::sparse(n);
            let ms = ((0.01 * n as f64).ceil() as Support).max(1);
            (format!("T10.I4.D{n}"), db, ms)
        },
        {
            let n = scale.pick(1_000, 5_000);
            let db = datasets::dense(n, 16);
            let ms = ((0.3 * n as f64).ceil() as Support).max(1);
            (format!("DENSE16.D{n}"), db, ms)
        },
    ];
    for (name, db, min_sup) in workloads {
        let plt = construct(&db, min_sup, ConstructOptions::conditional()).unwrap();
        let raw_items: usize = db.iter().map(Vec::len).sum();
        let report = CompressedPlt::report(&plt, raw_items);
        let (fp, _) = build_fp_tree(&db, min_sup);
        for (metric, value) in [
            ("raw DB bytes", report.raw_db_bytes.to_string()),
            ("PLT table bytes", report.plt_table_bytes.to_string()),
            (
                "compressed PLT bytes",
                report.compressed_data_bytes.to_string(),
            ),
            ("index bytes", report.compressed_index_bytes.to_string()),
            ("ratio vs raw", format!("{:.3}", report.ratio_vs_raw())),
            ("ratio vs table", format!("{:.3}", report.ratio_vs_table())),
            ("distinct PLT vectors", report.num_vectors.to_string()),
            ("FP-tree nodes", fp.node_count().to_string()),
        ] {
            table.row(vec![name.clone(), metric.to_string(), value]);
        }
    }
    table
}

/// X7 — subset-checking micro-benchmark: PLT position-vector probes vs a
/// plain itemset hash set, on a real Apriori prune workload.
pub fn x7_subset_check(scale: Scale) -> Table {
    let n = scale.pick(2_000, 10_000);
    let db = datasets::baskets(n);
    let min_sup = ((0.02 * n as f64).ceil() as Support).max(1);
    // The frequent family and a candidate prune workload: every frequent
    // k-itemset joined with every frequent item (a superset of Apriori's
    // real candidate set).
    let result = FpGrowthMiner.mine(&db, min_sup);
    let ranking = ItemRanking::scan(&db, min_sup, RankPolicy::Lexicographic);
    let mut candidates: Vec<Vec<Item>> = Vec::new();
    let singletons: Vec<Item> = result.of_size(1).map(|(s, _)| s.items()[0]).collect();
    for (itemset, _) in result.iter() {
        for &x in &singletons {
            if !itemset.contains(x) {
                let mut c = itemset.items().to_vec();
                c.push(x);
                c.sort_unstable();
                candidates.push(c);
            }
        }
    }
    candidates.sort();
    candidates.dedup();

    let naive = NaiveChecker::from_result(&result);
    let plt_checker = SubsetChecker::from_result(&result, &ranking);
    let candidate_vectors: Vec<PositionVector> = candidates
        .iter()
        .map(|c| {
            let ranks: Vec<_> = c.iter().map(|&i| ranking.rank(i).unwrap()).collect();
            PositionVector::from_ranks(&ranks).unwrap()
        })
        .collect();

    let runs = scale.runs().max(3);
    let (kept_naive, t_naive) = time_best(runs, || {
        candidates
            .iter()
            .filter(|c| naive.all_level_down_subsets_present(c))
            .count()
    });
    let (kept_plt, t_plt) = time_best(runs, || {
        candidate_vectors
            .iter()
            .filter(|v| plt_checker.all_level_down_subsets_present(v))
            .count()
    });
    assert_eq!(kept_naive, kept_plt, "prune verdicts must agree");

    let mut table = Table::new(
        format!(
            "X7: subset checking, {} candidates over {} frequent itemsets",
            candidates.len(),
            result.len()
        ),
        &["checker", "kept", "time"],
    );
    table.row(vec![
        "naive hash set".into(),
        kept_naive.to_string(),
        fmt_duration(t_naive),
    ]);
    table.row(vec![
        "plt position vectors".into(),
        kept_plt.to_string(),
        fmt_duration(t_plt),
    ]);
    table
}

/// X8 — construction cost: PLT (sequential and parallel) vs FP-tree vs
/// vertical layout.
pub fn x8_construction(scale: Scale) -> Table {
    let n = scale.pick(5_000, 50_000);
    let db = datasets::sparse(n);
    let min_sup = ((0.01 * n as f64).ceil() as Support).max(1);
    let runs = scale.runs();
    let mut table = Table::new(
        format!("X8: construction cost, T10.I4.D{n}, min_sup = 1%"),
        &["structure", "size", "time"],
    );

    let (plt, t) = time_best(runs, || {
        construct(&db, min_sup, ConstructOptions::conditional()).unwrap()
    });
    table.row(vec![
        "PLT (sequential)".into(),
        format!("{} vectors", plt.num_vectors()),
        fmt_duration(t),
    ]);

    let (pplt, t) = time_best(runs, || {
        par_construct(&db, min_sup, ConstructOptions::conditional()).unwrap()
    });
    assert_eq!(pplt.num_vectors(), plt.num_vectors());
    table.row(vec![
        "PLT (parallel)".into(),
        format!("{} vectors", pplt.num_vectors()),
        fmt_duration(t),
    ]);

    let (plt_prefix, t) = time_best(runs, || {
        construct(&db, min_sup, ConstructOptions::top_down()).unwrap()
    });
    table.row(vec![
        "PLT (with prefixes)".into(),
        format!("{} vectors", plt_prefix.num_vectors()),
        fmt_duration(t),
    ]);

    let ((fp, _), t) = time_best(runs, || build_fp_tree(&db, min_sup));
    table.row(vec![
        "FP-tree".into(),
        format!("{} nodes", fp.node_count()),
        fmt_duration(t),
    ]);

    let tdb = TransactionDb::from_sorted(db.clone());
    let (v, t) = time_best(runs, || VerticalDb::from_horizontal(&tdb));
    table.row(vec![
        "vertical layout".into(),
        format!("{} columns", v.num_items()),
        fmt_duration(t),
    ]);

    table
}

/// X10 — power-law (retail/click-log) sweep: skew exponent vs runtime.
/// Skewed popularity stresses the frequent-item projection: the steeper
/// the head, the shorter the projected transactions.
pub fn x10_zipf_sweep(scale: Scale) -> Table {
    let n = scale.pick(2_000, 10_000);
    let mut table = Table::new(
        format!("X10: power-law sweep, ZIPF.D{n}, min_sup = 1%"),
        &["exponent", "miner", "|F|", "time"],
    );
    let min_sup = ((0.01 * n as f64).ceil() as Support).max(1);
    let miners: Vec<Box<dyn Miner>> = vec![
        Box::new(ConditionalMiner::default()),
        Box::new(HybridMiner::default()),
        Box::new(FpGrowthMiner),
        Box::new(EclatMiner::default()),
        Box::new(HMineMiner),
    ];
    for exponent in [0.8, 1.1, 1.5] {
        let db = datasets::zipf(n, exponent);
        sweep_cell(
            &mut table,
            &format!("{exponent:.1}"),
            &db,
            min_sup,
            scale.runs(),
            &miners,
        );
    }
    table
}

/// X9 — rank-policy ablation: the same conditional miner under the three
/// item orders, reporting both structure shape (distinct vectors, average
/// position value — the compression driver) and mining time.
pub fn x9_rank_policy(scale: Scale) -> Table {
    let mut table = Table::new(
        "X9: rank-policy ablation (conditional miner)",
        &["dataset", "policy", "vectors", "avg pos", "|F|", "time"],
    );
    let workloads: Vec<(String, Vec<Vec<Item>>, Support)> = vec![
        {
            let n = scale.pick(2_000, 10_000);
            (
                format!("T10.I4.D{n}"),
                datasets::sparse(n),
                ((0.01 * n as f64).ceil() as Support).max(1),
            )
        },
        {
            let n = scale.pick(800, 3_000);
            (
                format!("DENSE16.D{n}"),
                datasets::dense(n, 16),
                ((0.4 * n as f64).ceil() as Support).max(1),
            )
        },
    ];
    for (name, db, min_sup) in workloads {
        let mut expected: Option<usize> = None;
        for (label, policy) in [
            ("lexicographic", RankPolicy::Lexicographic),
            ("freq-descending", RankPolicy::FrequencyDescending),
            ("freq-ascending", RankPolicy::FrequencyAscending),
        ] {
            let plt = construct(
                &db,
                min_sup,
                ConstructOptions {
                    rank_policy: policy,
                    with_prefixes: false,
                },
            )
            .expect("well-formed database");
            let (pos_sum, pos_count) = plt.iter().fold((0u64, 0u64), |(s, c), (v, _)| {
                (
                    s + v.positions().iter().map(|&p| p as u64).sum::<u64>(),
                    c + v.len() as u64,
                )
            });
            let avg_pos = pos_sum as f64 / pos_count.max(1) as f64;
            let miner = ConditionalMiner::with_policy(policy);
            let (result, elapsed) = time_best(scale.runs(), || miner.mine(&db, min_sup));
            match expected {
                None => expected = Some(result.len()),
                Some(n) => assert_eq!(n, result.len(), "policy changed the answer"),
            }
            table.row(vec![
                name.clone(),
                label.to_string(),
                plt.num_vectors().to_string(),
                format!("{avg_pos:.2}"),
                result.len().to_string(),
                fmt_duration(elapsed),
            ]);
        }
    }
    table
}

/// One X13 measurement: an incremental rebuild of a delta through the
/// sharded pipeline vs a full re-mine from scratch, on one dataset and
/// one delta placement mode.
#[derive(Debug, Clone)]
pub struct IncrementalCell {
    /// Dataset label, e.g. `T10.I4.D2000`.
    pub dataset: String,
    /// Where the delta's items land: `localized` (a single rank band —
    /// the paper's partition criteria at their best) or `uniform`
    /// (spread across the whole rank space — the honest worst case).
    pub mode: &'static str,
    /// Base database size.
    pub transactions: usize,
    /// Delta size (1% of the base).
    pub delta_size: usize,
    /// Shard count of the pipeline.
    pub shards: usize,
    /// How many shards the delta dirtied.
    pub dirty_shards: usize,
    /// Frequent itemsets after the delta (identical across paths — asserted).
    pub itemsets: usize,
    /// Best wall time of `apply(delta)` on a freshly built pipeline.
    pub incremental_secs: f64,
    /// Best wall time of a full re-mine over base + delta.
    pub full_secs: f64,
}

impl IncrementalCell {
    /// How much faster the incremental rebuild is than mining from scratch.
    pub fn speedup(&self) -> f64 {
        self.full_secs / self.incremental_secs
    }

    fn json(&self) -> Object {
        Object::new()
            .str("dataset", &self.dataset)
            .str("mode", self.mode)
            .int("transactions", self.transactions)
            .int("delta_size", self.delta_size)
            .int("shards", self.shards)
            .int("dirty_shards", self.dirty_shards)
            .int("itemsets", self.itemsets)
            .num("incremental_secs", self.incremental_secs, 6)
            .num("full_secs", self.full_secs, 6)
            .num("speedup", self.speedup(), 3)
    }
}

/// A deterministic synthetic delta transaction: `width` items taken from
/// `items` starting at `start` with the given `stride`, wrapped modulo
/// `modulo`, deduplicated. No RNG — X13 cells are exactly reproducible.
fn delta_txn(
    items: &[Item],
    start: usize,
    stride: usize,
    width: usize,
    modulo: usize,
) -> Vec<Item> {
    let mut t: Vec<Item> = (0..width)
        .map(|k| items[(start + k * stride) % modulo])
        .collect();
    t.sort_unstable();
    t.dedup();
    t
}

/// X13 — incremental vs full rebuild at a 1% delta. Raw cells; see
/// [`x13_table`] for the rendered table and [`x13_json`] for the
/// machine-readable record (the committed `BENCH_incremental.json`).
///
/// Delta transactions use only items that are already frequent in the
/// base, so the vocabulary never drifts and the cells measure the
/// dirty-shard path rather than the re-rank fallback. Each cell is run
/// in two placements: `localized` deltas fall into one rank band (few
/// dirty shards — where the ≥5× win lives), `uniform` deltas stride the
/// whole rank space (most shards dirty — the honest lower bound).
pub fn x13_incremental_cells(scale: Scale) -> Vec<IncrementalCell> {
    let runs = scale.runs().max(2);
    let shards = 16;
    let n = scale.pick(2_000, 20_000);
    let workloads: Vec<(String, Vec<Vec<Item>>)> = vec![
        (format!("T10.I4.D{n}"), datasets::sparse(n)),
        (format!("ZIPF1.1.D{n}"), datasets::zipf(n, 1.1)),
    ];

    let mut cells = Vec::new();
    for (dataset, base) in workloads {
        let min_sup = ((0.01 * n as f64).ceil() as Support).max(2);
        let config = ShardConfig {
            shard_count: shards,
            min_support: min_sup,
            ..ShardConfig::default()
        };
        // One probe build exposes the frequent-item ranking the deltas
        // are synthesized from.
        let probe = ShardedPipeline::new(&base, config).expect("probe pipeline");
        let ranking = probe.plt().ranking();
        let items: Vec<Item> = (1..=ranking.len() as u32)
            .map(|r| ranking.item(r))
            .collect();
        assert!(items.len() >= shards, "rank space too small on {dataset}");
        let delta_size = (n / 100).max(1);
        // The localized band is one shard's worth of the lowest ranks;
        // the uniform stride visits every region of the rank space.
        let band = (items.len() / shards).max(2);
        let stride = (items.len() / 8).max(1);
        let deltas: Vec<(&'static str, Vec<Vec<Item>>)> = vec![
            (
                "localized",
                (0..delta_size)
                    .map(|i| delta_txn(&items, i, 1, 6, band))
                    .collect(),
            ),
            (
                "uniform",
                (0..delta_size)
                    .map(|i| delta_txn(&items, i, stride, 8, items.len()))
                    .collect(),
            ),
        ];

        for (mode, delta) in deltas {
            let mut all = base.clone();
            all.extend(delta.iter().cloned());
            let (full_result, t_full) =
                time_best(runs, || ConditionalMiner::default().mine(&all, min_sup));

            // The pipeline must be rebuilt per run (apply mutates it);
            // only the apply itself is timed.
            let mut t_incremental = Duration::MAX;
            let mut dirty_shards = 0;
            for _ in 0..runs {
                let mut pipeline = ShardedPipeline::new(&base, config).expect("pipeline");
                let started = std::time::Instant::now();
                let report = pipeline.apply(Delta::add(delta.clone())).expect("apply");
                t_incremental = t_incremental.min(started.elapsed());
                assert!(
                    !report.reranked,
                    "a delta over frequent items must not drift ({dataset} {mode})"
                );
                dirty_shards = report.dirty_shards;
                assert_eq!(
                    pipeline.result().sorted(),
                    full_result.sorted(),
                    "incremental diverged from full re-mine on {dataset} {mode}"
                );
            }
            cells.push(IncrementalCell {
                dataset: dataset.clone(),
                mode,
                transactions: n,
                delta_size,
                shards,
                dirty_shards,
                itemsets: full_result.len(),
                incremental_secs: t_incremental.as_secs_f64(),
                full_secs: t_full.as_secs_f64(),
            });
        }
    }
    cells
}

/// X13 rendered as a table.
pub fn x13_table(cells: &[IncrementalCell]) -> Table {
    let mut table = Table::new(
        "X13: incremental (dirty shards) vs full re-mine, 1% delta",
        &[
            "dataset",
            "mode",
            "|F|",
            "dirty",
            "incremental",
            "full",
            "speedup",
        ],
    );
    for c in cells {
        table.row(vec![
            c.dataset.clone(),
            c.mode.to_string(),
            c.itemsets.to_string(),
            format!("{}/{}", c.dirty_shards, c.shards),
            fmt_duration(Duration::from_secs_f64(c.incremental_secs)),
            fmt_duration(Duration::from_secs_f64(c.full_secs)),
            format!("{:.2}x", c.speedup()),
        ]);
    }
    table
}

/// Machine-readable record of an X13 run (the committed
/// `BENCH_incremental.json`).
pub fn x13_json(cells: &[IncrementalCell], scale: Scale) -> String {
    Record::new("x13_incremental", scale)
        .array("cells", cells.iter().map(IncrementalCell::json))
        .finish()
}

/// One row of X15: durable-store recovery and cold-read costs for one
/// dataset. See [`x15_table`] for the rendered table and [`x15_json`]
/// for the committed `BENCH_storage.json` record.
#[derive(Debug, Clone)]
pub struct StorageCell {
    /// Dataset label, e.g. `T10.I4.D2000`.
    pub dataset: String,
    /// Database size (every transaction journaled).
    pub transactions: usize,
    /// Delta records in the WAL when recovery replays the full tail.
    pub wal_deltas: u64,
    /// Best wall time of `open()` replaying the whole WAL (no checkpoint).
    pub recovery_wal_secs: f64,
    /// Best wall time of `open()` from a checkpoint (empty WAL tail).
    pub recovery_ckpt_secs: f64,
    /// Point lookups issued against the cold store (2-shard budget, no
    /// merged snapshot): the full frequent family, each verified.
    pub cold_lookups: usize,
    /// Mean microseconds per cold lookup.
    pub cold_lookup_us: f64,
    /// How many of those lookups were served from mmap segments.
    pub segment_lookups: u64,
    /// Live segment files after the checkpoint.
    pub segments: u64,
    /// Bytes across live segments.
    pub segment_bytes: u64,
    /// WAL bytes before the checkpoint (the replayed volume).
    pub wal_bytes: u64,
}

impl StorageCell {
    fn json(&self) -> Object {
        Object::new()
            .str("dataset", &self.dataset)
            .int("transactions", self.transactions)
            .int("wal_deltas", self.wal_deltas)
            .int("wal_bytes", self.wal_bytes)
            .num("recovery_wal_secs", self.recovery_wal_secs, 6)
            .num("recovery_ckpt_secs", self.recovery_ckpt_secs, 6)
            .int("cold_lookups", self.cold_lookups)
            .num("cold_lookup_us", self.cold_lookup_us, 3)
            .int("segment_lookups", self.segment_lookups)
            .int("segments", self.segments)
            .int("segment_bytes", self.segment_bytes)
    }
}

/// X15 — durable storage: recovery time vs WAL length, and cold-read
/// throughput from mmap segments. Ingests each dataset through the
/// durable pipeline (journaling every batch, no checkpoints), then
/// measures (a) recovery replaying the full WAL, (b) recovery from a
/// checkpoint, (c) `support_of` point lookups with a 2-shard resident
/// budget so almost every answer comes off disk. Recovered and cold
/// answers are asserted against an in-memory full re-mine.
pub fn x15_storage_cells(scale: Scale) -> Vec<StorageCell> {
    use plt_store::{DurableOptions, DurablePipeline};

    let runs = scale.runs().max(2);
    let n = scale.pick(1_500, 12_000);
    let batch = 64;
    let workloads: Vec<(String, Vec<Vec<Item>>)> = vec![
        (format!("T10.I4.D{n}"), datasets::sparse(n)),
        (format!("ZIPF1.1.D{n}"), datasets::zipf(n, 1.1)),
    ];

    let mut cells = Vec::new();
    for (dataset, db) in workloads {
        let min_sup = ((0.01 * n as f64).ceil() as Support).max(2);
        let config = ShardConfig {
            shard_count: 16,
            min_support: min_sup,
            ..ShardConfig::default()
        };
        let dir =
            std::env::temp_dir().join(format!("plt-bench-x15-{}-{dataset}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // Journal-only policy: every batch lands in the WAL and stays
        // there, so the first recovery replays the entire ingest.
        let journal_only = DurableOptions {
            checkpoint_every: None,
            ..DurableOptions::default()
        };
        let mut pipeline =
            DurablePipeline::open(&dir, config, journal_only).expect("open fresh dir");
        let mut wal_deltas = 0u64;
        for chunk in db.chunks(batch) {
            pipeline.apply(Delta::add(chunk.to_vec())).expect("apply");
            wal_deltas += 1;
        }
        let wal_bytes = pipeline.store_stats().wal_bytes;
        let reference = ConditionalMiner::default().mine(&db, min_sup);
        assert_eq!(
            pipeline.result().sorted(),
            reference.sorted(),
            "durable ingest diverged from full mine on {dataset}"
        );
        drop(pipeline);

        // (a) Recovery replaying the whole WAL.
        let mut t_wal = Duration::MAX;
        for _ in 0..runs {
            let started = std::time::Instant::now();
            let recovered =
                DurablePipeline::open(&dir, config, journal_only).expect("recover from WAL");
            t_wal = t_wal.min(started.elapsed());
            assert_eq!(
                recovered.recovery().replayed_deltas,
                wal_deltas,
                "{dataset}"
            );
            assert_eq!(
                recovered.result().sorted(),
                reference.sorted(),
                "WAL recovery diverged on {dataset}"
            );
        }

        // Checkpoint, then (b) recovery with an empty tail.
        let mut pipeline =
            DurablePipeline::open(&dir, config, journal_only).expect("reopen to checkpoint");
        pipeline.checkpoint().expect("checkpoint");
        let after_ckpt = pipeline.store_stats();
        drop(pipeline);
        let mut t_ckpt = Duration::MAX;
        for _ in 0..runs {
            let started = std::time::Instant::now();
            let recovered =
                DurablePipeline::open(&dir, config, journal_only).expect("recover from ckpt");
            t_ckpt = t_ckpt.min(started.elapsed());
            assert_eq!(recovered.recovery().replayed_deltas, 0, "{dataset}");
        }

        // (c) Cold reads: a 2-shard budget with no merged snapshot, so
        // point lookups route to resident fragments or mmap segments.
        let cold = DurableOptions {
            resident_shards: Some(2),
            materialize_merged: false,
            checkpoint_every: None,
            ..DurableOptions::default()
        };
        let pipeline = DurablePipeline::open(&dir, config, cold).expect("open cold");
        let family: Vec<(Vec<Item>, Support)> = reference
            .iter()
            .map(|(itemset, support)| (itemset.items().to_vec(), support))
            .collect();
        assert!(!family.is_empty(), "{dataset} must induce frequent sets");
        let started = std::time::Instant::now();
        for (items, support) in &family {
            assert_eq!(
                pipeline.support_of(items),
                Some(*support),
                "cold lookup {items:?} on {dataset}"
            );
        }
        let cold_elapsed = started.elapsed();
        let segment_lookups = pipeline.store_stats().segment_lookups;
        drop(pipeline);
        std::fs::remove_dir_all(&dir).ok();

        cells.push(StorageCell {
            dataset,
            transactions: n,
            wal_deltas,
            recovery_wal_secs: t_wal.as_secs_f64(),
            recovery_ckpt_secs: t_ckpt.as_secs_f64(),
            cold_lookups: family.len(),
            cold_lookup_us: cold_elapsed.as_secs_f64() * 1e6 / family.len() as f64,
            segment_lookups,
            segments: after_ckpt.segments,
            segment_bytes: after_ckpt.segment_bytes,
            wal_bytes,
        });
    }
    cells
}

/// X15 rendered as a table.
pub fn x15_table(cells: &[StorageCell]) -> Table {
    let mut table = Table::new(
        "X15: durable store — recovery vs WAL length, cold reads from mmap segments",
        &[
            "dataset",
            "WAL deltas",
            "recover(WAL)",
            "recover(ckpt)",
            "cold lookup",
            "mmap hits",
            "seg bytes",
        ],
    );
    for c in cells {
        table.row(vec![
            c.dataset.clone(),
            c.wal_deltas.to_string(),
            fmt_duration(Duration::from_secs_f64(c.recovery_wal_secs)),
            fmt_duration(Duration::from_secs_f64(c.recovery_ckpt_secs)),
            format!("{:.1}us", c.cold_lookup_us),
            format!("{}/{}", c.segment_lookups, c.cold_lookups),
            c.segment_bytes.to_string(),
        ]);
    }
    table
}

/// Machine-readable record of an X15 run (the committed
/// `BENCH_storage.json`).
pub fn x15_json(cells: &[StorageCell], scale: Scale) -> String {
    Record::new("x15_storage", scale)
        .array("cells", cells.iter().map(StorageCell::json))
        .finish()
}

/// X14 — Eclat over sorted tidsets vs packed bitsets (AND + popcount
/// joins through the kernel layer) on sparse, dense and power-law
/// workloads. Both answers are asserted identical to each other and to
/// the arena engine's before any number is reported; `joins` counts the
/// bitset intersections of one untimed bitset pass.
pub fn x14_eclat_bitsets(scale: Scale) -> Table {
    use plt_core::kernels::KernelStats;

    let runs = scale.runs().max(2);
    let mut workloads: Vec<(String, Vec<Vec<Item>>, Support)> = Vec::new();
    {
        let n = scale.pick(2_000, 10_000);
        let db = datasets::sparse(n);
        let ms = ((0.01 * n as f64).ceil() as Support).max(1);
        workloads.push((format!("T10.I4.D{n}@1.0%"), db, ms));
    }
    {
        let n = scale.pick(600, 3_000);
        let db = datasets::dense(n, 16);
        let ms = ((0.3 * n as f64).ceil() as Support).max(1);
        workloads.push((format!("DENSE16.D{n}@30%"), db, ms));
    }
    {
        let n = scale.pick(2_000, 10_000);
        let db = datasets::zipf(n, 1.1);
        let ms = ((0.01 * n as f64).ceil() as Support).max(1);
        workloads.push((format!("ZIPF1.1.D{n}@1.0%"), db, ms));
    }

    let mut table = Table::new(
        "X14: Eclat tidsets vs bitsets",
        &["dataset", "|F|", "tidset", "bitset", "speedup", "joins"],
    );
    for (dataset, db, min_sup) in workloads {
        let arena = ConditionalMiner::default().mine(&db, min_sup);
        let tidset = EclatMiner::default().with_repr(TidRepr::Tidset);
        let bitset = EclatMiner::default().with_repr(TidRepr::Bitset);
        let (tid_result, t_tid) = time_best(runs, || tidset.mine(&db, min_sup));
        let (bit_result, t_bit) = time_best(runs, || bitset.mine(&db, min_sup));
        assert_eq!(
            tid_result.sorted(),
            bit_result.sorted(),
            "Eclat representations disagree on {dataset}"
        );
        assert_eq!(
            tid_result.sorted(),
            arena.sorted(),
            "Eclat and the arena disagree on {dataset}"
        );
        let before = KernelStats::snapshot_thread();
        let _ = bitset.mine(&db, min_sup);
        let joins = KernelStats::snapshot_thread().since(&before);
        table.row(vec![
            dataset,
            arena.len().to_string(),
            fmt_duration(t_tid),
            fmt_duration(t_bit),
            format!("{:.2}x", t_tid.as_secs_f64() / t_bit.as_secs_f64()),
            joins.bitmap_intersections.to_string(),
        ]);
    }
    table
}

/// One X16 load measurement: `clients` concurrent connections driving
/// point queries through the server over real TCP sockets.
#[derive(Debug, Clone)]
pub struct ServeLoadCell {
    /// Server that answered: `reactor` on Linux, `threads` elsewhere.
    pub model: String,
    /// Concurrent connections held open for the whole measurement.
    pub clients: usize,
    /// Total requests answered (every reply is asserted byte-identical
    /// to the engine's local answer before it is counted).
    pub ops: usize,
    /// Wall time from the post-connect barrier to the last reply.
    pub elapsed_secs: f64,
    /// `ops / elapsed_secs`.
    pub throughput: f64,
    /// Median request latency (write of the frame to read of the reply).
    pub p50_us: f64,
    /// 99th-percentile request latency.
    pub p99_us: f64,
}

impl ServeLoadCell {
    fn json(&self) -> Object {
        Object::new()
            .str("model", &self.model)
            .int("clients", self.clients)
            .int("ops", self.ops)
            .num("elapsed_secs", self.elapsed_secs, 6)
            .num("throughput_ops_s", self.throughput, 1)
            .num("p50_us", self.p50_us, 3)
            .num("p99_us", self.p99_us, 3)
    }
}

/// The X16 idle-connection ceiling probe: how many open-but-silent
/// connections one reactor holds while still answering an active client.
#[derive(Debug, Clone)]
pub struct IdleCell {
    /// Connections the probe asked for.
    pub target: usize,
    /// Client-side sockets successfully connected and held.
    pub opened: usize,
    /// The server's own `reactor.active_connections` gauge at steady
    /// state (includes the probe client's connection).
    pub active_connections: u64,
    /// Reactor threads serving the idle herd.
    pub reactors: usize,
    /// `RLIMIT_NOFILE` soft limit in effect during the probe.
    pub nofile: u64,
    /// Median latency of live queries issued while the herd is resident.
    pub probe_p50_us: f64,
    /// 99th-percentile latency of those same queries.
    pub probe_p99_us: f64,
}

impl IdleCell {
    fn json(&self) -> Object {
        Object::new()
            .int("target", self.target)
            .int("opened", self.opened)
            .int("active_connections", self.active_connections)
            .int("reactors", self.reactors)
            .int("nofile", self.nofile)
            .num("probe_p50_us", self.probe_p50_us, 3)
            .num("probe_p99_us", self.probe_p99_us, 3)
    }
}

/// Everything X16 measures. `idle` is `None` off Linux, where the
/// reactor (and so the ceiling probe) does not exist.
#[derive(Debug, Clone)]
pub struct ServeCells {
    /// Idle-connection ceiling (reactor only).
    pub idle: Option<IdleCell>,
    /// Throughput/latency grid, one cell per client count.
    pub load: Vec<ServeLoadCell>,
}

/// Raises the `RLIMIT_NOFILE` soft limit so the idle-connection probe
/// can hold tens of thousands of sockets — each in-process connection
/// costs two descriptors (client end + server end). Returns the soft
/// limit in effect afterwards.
#[cfg(target_os = "linux")]
fn raise_nofile(want: u64) -> u64 {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    const RLIMIT_NOFILE: i32 = 7;
    unsafe {
        let mut lim = Rlimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return 0;
        }
        if lim.cur >= want {
            return lim.cur;
        }
        // Root may raise the hard limit too; ask for the full amount
        // first, then settle for the existing hard cap.
        let ask = Rlimit {
            cur: want,
            max: want.max(lim.max),
        };
        if setrlimit(RLIMIT_NOFILE, &ask) == 0 {
            return want;
        }
        let capped = Rlimit {
            cur: lim.max,
            max: lim.max,
        };
        if setrlimit(RLIMIT_NOFILE, &capped) == 0 {
            return lim.max;
        }
        lim.cur
    }
}

/// Connects with bounded retries: under a burst the listener's SYN
/// queue can transiently refuse, which is load — not failure. `None`
/// means the peer (or the fd budget) is genuinely exhausted.
fn x16_try_connect(addr: std::net::SocketAddr, attempts: u64) -> Option<std::net::TcpStream> {
    for attempt in 0..attempts {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => return Some(s),
            Err(_) => std::thread::sleep(Duration::from_millis(2 + attempt / 10)),
        }
    }
    None
}

/// Connects with retries, panicking if the server never answers.
fn x16_connect(addr: std::net::SocketAddr) -> std::net::TcpStream {
    x16_try_connect(addr, 200).expect("connect after retries")
}

/// Entry point for the `--x16-herd` helper process: connects `count`
/// idle sockets to `addr`, reports `held <n>` on stdout, and keeps them
/// open until stdin closes. The herd lives in its own process so its
/// client-side fds come out of a separate `RLIMIT_NOFILE` budget — the
/// measuring process only pays for the server ends.
#[cfg(target_os = "linux")]
pub fn x16_idle_herd_child(addr: &str, count: usize) -> ! {
    use std::io::{BufRead, Write};

    raise_nofile(count as u64 + 4_096);
    let addr: std::net::SocketAddr = addr.parse().expect("herd addr");
    let mut herd = Vec::with_capacity(count);
    for _ in 0..count {
        match x16_try_connect(addr, 200) {
            Some(s) => herd.push(s),
            None => break,
        }
    }
    println!("held {}", herd.len());
    std::io::stdout().flush().ok();
    let mut line = String::new();
    let _ = std::io::stdin().lock().read_line(&mut line);
    drop(herd);
    std::process::exit(0);
}

/// Spawns the idle herd. Preferred path: re-exec the current binary
/// with `--x16-herd` so the herd's fds live in a child process.
/// Fallback (binary without the flag, spawn failure): hold the herd
/// in-process, where each connection costs two fds from one budget.
#[cfg(target_os = "linux")]
fn x16_spawn_herd(
    addr: std::net::SocketAddr,
    count: usize,
) -> (usize, Option<std::process::Child>, Vec<std::net::TcpStream>) {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    if let Ok(exe) = std::env::current_exe() {
        if let Ok(mut child) = Command::new(exe)
            .arg("--x16-herd")
            .arg(addr.to_string())
            .arg(count.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
        {
            let mut line = String::new();
            if let Some(out) = child.stdout.take() {
                let mut r = std::io::BufReader::new(out);
                if r.read_line(&mut line).is_ok() {
                    if let Some(n) = line
                        .trim()
                        .strip_prefix("held ")
                        .and_then(|s| s.parse().ok())
                    {
                        return (n, Some(child), Vec::new());
                    }
                }
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    let mut herd = Vec::with_capacity(count);
    for _ in 0..count {
        match x16_try_connect(addr, 20) {
            Some(s) => herd.push(s),
            None => break,
        }
    }
    (herd.len(), None, herd)
}

/// `p`-th percentile of an ascending latency vector, in microseconds.
fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

/// Drives `clients` connections through `ops_per_conn` requests each,
/// from a bounded worker pool (each worker keeps one request in flight
/// per connection it owns — send-all-then-read-all per round). Every
/// reply is asserted byte-identical to `expected`. Returns (elapsed
/// seconds, per-request latencies in nanoseconds).
fn x16_drive_load(
    addr: std::net::SocketAddr,
    clients: usize,
    ops_per_conn: usize,
    payload: &str,
    expected: &str,
) -> (f64, Vec<u64>) {
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    use std::sync::{Arc, Barrier};

    let workers = clients.clamp(1, 16);
    let frame: Arc<Vec<u8>> = Arc::new(plt_serve::decode::encode_frame(payload));
    let barrier = Arc::new(Barrier::new(workers + 1));
    let mut handles = Vec::new();
    for w in 0..workers {
        let count = clients / workers + usize::from(w < clients % workers);
        let frame = Arc::clone(&frame);
        let barrier = Arc::clone(&barrier);
        let expected = expected.to_string();
        handles.push(std::thread::spawn(move || {
            let mut conns: Vec<(TcpStream, BufReader<TcpStream>)> = Vec::with_capacity(count);
            for _ in 0..count {
                let stream = x16_connect(addr);
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(Duration::from_secs(120))).ok();
                let reader = BufReader::new(stream.try_clone().expect("clone socket"));
                conns.push((stream, reader));
            }
            barrier.wait();
            let mut lat = Vec::with_capacity(count * ops_per_conn);
            let mut starts = vec![std::time::Instant::now(); count];
            for _ in 0..ops_per_conn {
                for (i, (stream, _)) in conns.iter_mut().enumerate() {
                    starts[i] = std::time::Instant::now();
                    stream.write_all(&frame).expect("request write");
                }
                for (i, (_, reader)) in conns.iter_mut().enumerate() {
                    let reply = plt_serve::proto::read_frame(reader)
                        .expect("reply read")
                        .expect("server closed the connection");
                    lat.push(starts[i].elapsed().as_nanos() as u64);
                    assert_eq!(reply, expected, "reply diverged under load");
                }
            }
            lat
        }));
    }
    barrier.wait();
    let started = std::time::Instant::now();
    let mut lat = Vec::new();
    for h in handles {
        lat.extend(h.join().expect("load worker"));
    }
    (started.elapsed().as_secs_f64(), lat)
}

/// The server `plt_serve::serve` runs on this target, as X16 labels its
/// cells: the epoll reactor on Linux, thread-per-connection elsewhere.
const SERVER_MODEL: &str = if cfg!(target_os = "linux") {
    "reactor"
} else {
    "threads"
};

/// X16 — async serving: the server's throughput and latency over real
/// TCP sockets at rising client counts, plus the reactor's
/// idle-connection ceiling. The snapshot is small on purpose: the engine
/// answers in microseconds, so the transport and scheduling — not the
/// miner — are what the numbers show. Every wire reply is asserted
/// byte-identical to the engine's in-process answer before it is
/// counted.
pub fn x16_serve_cells(scale: Scale) -> ServeCells {
    use plt_rules::RuleConfig;
    use plt_serve::{serve, Engine, Request, ServerConfig, Snapshot};
    use std::sync::Arc;

    let db = datasets::sparse_small(2_000);
    let min_sup = 2;
    let result = ConditionalMiner::default().mine(&db, min_sup);
    let build_engine = || {
        let plt = construct(&db, min_sup, ConstructOptions::conditional()).expect("construct");
        Arc::new(Engine::new(Snapshot::build(
            1,
            plt,
            &result,
            RuleConfig::default(),
        )))
    };

    // Probe query: the highest-support itemset, answered from the index.
    let probe_items: Vec<Item> = result
        .iter()
        .max_by_key(|&(_, support)| support)
        .map(|(itemset, _)| itemset.items().to_vec())
        .expect("frequent family");
    let request = Request::Support {
        items: probe_items.clone(),
    };
    let payload = request.to_json().to_string();
    let expected = build_engine().handle(&request);

    // Idle-connection ceiling first: it raises RLIMIT_NOFILE for
    // everything after it.
    #[cfg(target_os = "linux")]
    let idle = {
        let target = scale.pick(2_304, 10_500);
        // The herd's client ends live in a child process with its own
        // fd budget; this process only pays one fd per accepted socket.
        let nofile = raise_nofile(target as u64 + 4_096);
        let target = target.min(nofile.saturating_sub(2_048) as usize);
        let reactors = 1;
        let handle = serve(
            "127.0.0.1:0",
            build_engine(),
            None,
            ServerConfig {
                reactors,
                accept_backlog: 8_192,
                max_connections: target + 64,
                read_deadline: Some(Duration::from_secs(600)),
                ..ServerConfig::default()
            },
        )
        .expect("bind idle server");
        let (opened, mut herd_child, herd_local) = x16_spawn_herd(handle.addr(), target);
        // One live client among the idle herd: wait until the reactor
        // has registered everyone, then measure query latency with the
        // full herd resident in the slab.
        let mut probe = plt_serve::Client::connect(handle.addr()).expect("probe client");
        let deadline = std::time::Instant::now() + Duration::from_secs(120);
        let mut active_connections;
        loop {
            let stats = probe.stats().expect("stats under idle herd");
            active_connections = stats
                .get("reactor")
                .and_then(|r| r.get("active_connections"))
                .and_then(|v| v.as_u64())
                .unwrap_or(0);
            if active_connections as usize > opened || std::time::Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        let mut lat = Vec::with_capacity(256);
        for _ in 0..256 {
            let started = std::time::Instant::now();
            probe.support(&probe_items).expect("probe under idle herd");
            lat.push(started.elapsed().as_nanos() as u64);
        }
        lat.sort_unstable();
        let cell = IdleCell {
            target,
            opened,
            active_connections,
            reactors,
            nofile,
            probe_p50_us: percentile_us(&lat, 0.50),
            probe_p99_us: percentile_us(&lat, 0.99),
        };
        drop(probe);
        drop(herd_local);
        if let Some(child) = herd_child.as_mut() {
            drop(child.stdin.take());
            let _ = child.wait();
        }
        handle.shutdown();
        Some(cell)
    };
    #[cfg(not(target_os = "linux"))]
    let idle: Option<IdleCell> = None;

    // Throughput/latency grid: one server per client count.
    let client_counts: Vec<usize> = match scale {
        Scale::Quick => vec![32, 128],
        Scale::Full => vec![64, 512, 4_096],
    };
    let total_ops = scale.pick(6_400, 65_536);
    let mut load = Vec::new();
    for &clients in &client_counts {
        let handle = serve(
            "127.0.0.1:0",
            build_engine(),
            None,
            ServerConfig {
                accept_backlog: 8_192,
                max_connections: clients * 2 + 64,
                read_deadline: Some(Duration::from_secs(120)),
                ..ServerConfig::default()
            },
        )
        .expect("bind load server");
        let ops_per_conn = (total_ops / clients).max(4);
        let (elapsed, mut lat) =
            x16_drive_load(handle.addr(), clients, ops_per_conn, &payload, &expected);
        lat.sort_unstable();
        load.push(ServeLoadCell {
            model: SERVER_MODEL.to_string(),
            clients,
            ops: lat.len(),
            elapsed_secs: elapsed,
            throughput: lat.len() as f64 / elapsed,
            p50_us: percentile_us(&lat, 0.50),
            p99_us: percentile_us(&lat, 0.99),
        });
        handle.shutdown();
    }

    ServeCells { idle, load }
}

/// X16 rendered as a table.
pub fn x16_table(cells: &ServeCells) -> Table {
    let mut table = Table::new(
        "X16: async serving — load grid and idle ceiling",
        &["model", "clients", "ops", "elapsed", "ops/s", "p50", "p99"],
    );
    if let Some(idle) = &cells.idle {
        table.row(vec![
            "reactor(idle)".into(),
            idle.opened.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("{:.1}us", idle.probe_p50_us),
            format!("{:.1}us", idle.probe_p99_us),
        ]);
    }
    for c in &cells.load {
        table.row(vec![
            c.model.clone(),
            c.clients.to_string(),
            c.ops.to_string(),
            fmt_duration(Duration::from_secs_f64(c.elapsed_secs)),
            format!("{:.0}", c.throughput),
            format!("{:.1}us", c.p50_us),
            format!("{:.1}us", c.p99_us),
        ]);
    }
    table
}

/// Machine-readable record of an X16 run (the committed
/// `BENCH_serve.json`).
pub fn x16_json(cells: &ServeCells, scale: Scale) -> String {
    Record::new("x16_async_serve", scale)
        .object("idle", cells.idle.as_ref().map(IdleCell::json))
        .array("cells", cells.load.iter().map(ServeLoadCell::json))
        .finish()
}

/// One X17 cell: one query expression over one dataset, the planner's
/// chosen physical operator timed against a forced naive full scan of
/// the same query. See [`x17_table`] for the rendered table and
/// [`x17_json`] for the committed `BENCH_query.json` record.
#[derive(Debug, Clone)]
pub struct QueryCell {
    /// Dataset label, e.g. `T10.I4.D2000`.
    pub dataset: String,
    /// The query expression as typed.
    pub query: String,
    /// Physical operator the cost-based planner chose.
    pub plan: String,
    /// Planner-estimated cost of the chosen plan.
    pub cost: f64,
    /// Result rows (identical between plan and naive, asserted).
    pub rows: usize,
    /// Frequent itemsets in the source (`N`, the naive scan's domain).
    pub num_itemsets: usize,
    /// Best wall time of the planner's choice, microseconds (end to
    /// end: parse, plan, execute).
    pub plan_us: f64,
    /// Best wall time of the forced `full_scan` operator, microseconds.
    pub naive_us: f64,
    /// `naive_us / plan_us`.
    pub speedup: f64,
    /// Best wall time of every applicable physical operator on this
    /// query (`full_scan` included), microseconds — the per-plan
    /// comparison behind the headline speedup.
    pub ops: Vec<(String, f64)>,
}

impl QueryCell {
    fn json(&self) -> Object {
        let ops = self
            .ops
            .iter()
            .fold(Object::new(), |o, (op, us)| o.num(op, *us, 3));
        Object::new()
            .str("dataset", &self.dataset)
            .str("query", &self.query)
            .str("plan", &self.plan)
            .num("cost", self.cost, 3)
            .int("rows", self.rows)
            .int("num_itemsets", self.num_itemsets)
            .num("plan_us", self.plan_us, 3)
            .num("naive_us", self.naive_us, 3)
            .num("speedup", self.speedup, 3)
            .obj("ops", ops)
    }
}

/// X17 — query planner vs naive scan: parses each expression, lets the
/// cost-based planner choose a physical operator, and times that choice
/// against the same query forced through the `full_scan` operator. The
/// two result sets are asserted identical (a live differential check),
/// so the speedup column measures pure plan quality. Covers all four
/// specialized operators across sparse/dense/zipf workloads.
pub fn x17_query_cells(scale: Scale) -> Vec<QueryCell> {
    use plt_query::{PhysOp, Snapshot};
    use plt_rules::RuleConfig;

    let runs = scale.runs().max(3);
    let n = scale.pick(2_000, 12_000);
    let dense_n = scale.pick(600, 3_000);
    let workloads: Vec<(String, Vec<Vec<Item>>, Support)> = vec![
        (
            format!("T10.I4.D{n}"),
            datasets::sparse(n),
            ((0.01 * n as f64).ceil() as Support).max(2),
        ),
        (
            format!("DENSE16.D{dense_n}"),
            datasets::dense(dense_n, 16),
            // 20%: deep enough that the lattice dwarfs both the vector
            // count and the conditional-mine cost estimate.
            ((0.2 * dense_n as f64).ceil() as Support).max(2),
        ),
        (
            format!("ZIPF1.1.D{n}"),
            datasets::zipf(n, 1.1),
            ((0.01 * n as f64).ceil() as Support).max(2),
        ),
    ];

    let mut cells = Vec::new();
    for (dataset, db, min_sup) in workloads {
        let plt = construct(&db, min_sup, ConstructOptions::conditional()).expect("construct");
        let result = ConditionalMiner::default().mine(&db, min_sup);
        let src = Snapshot::build(1, plt, &result, RuleConfig::default());
        let ranked = src.ranked();
        assert!(!ranked.is_empty(), "{dataset} must induce frequent sets");

        // A mid-ranked itemset: far enough down that the naive support
        // scan cannot shortcut, still guaranteed frequent.
        let mid = &ranked[ranked.len() / 2].0;
        let mid_items: Vec<String> = mid.items().iter().map(|i| i.to_string()).collect();
        // The least-frequent root: its supersets sit deep in the ranked
        // order, so the naive scan walks most of it.
        let rare_root = src
            .extensions(&[], usize::MAX)
            .last()
            .map(|&(item, _)| item)
            .expect("at least one frequent item");

        let queries = vec![
            format!("SUPPORT OF {{{}}}", mid_items.join(", ")),
            // Selective conjunct: few rules match, so the timing
            // difference is scan length (rule_scan stops at the
            // confidence bound; the naive scan walks every rule).
            "RULES WHERE confidence >= 0.9 AND support >= 0.02".to_string(),
            format!("MINE COND {{{rare_root}}} TOP 10"),
        ];

        for expr in queries {
            // The planner's end-to-end path: parse, plan, execute.
            let ((rows, prov), t_plan) = time_best(runs, || {
                plt_query::run(&expr, &src, &mut plt_obs::Obs::none()).expect("planned query")
            });
            // Every applicable physical operator on the same query,
            // each asserted identical to the planner's answer.
            let parsed = plt_query::parse(&expr).expect("parse").normalize();
            let mut ops = Vec::new();
            let mut naive_us = 0.0;
            for &op in plt_query::applicable_ops(&parsed) {
                let ((forced, _), t) = time_best(runs, || {
                    plt_query::run_forced(&expr, &src, op).expect("forced operator")
                });
                assert_eq!(
                    forced,
                    rows,
                    "{} diverged from plan {} on {dataset}: {expr}",
                    op.as_str(),
                    prov.plan.op.as_str()
                );
                let us = t.as_secs_f64() * 1e6;
                if op == PhysOp::FullScan {
                    naive_us = us;
                }
                ops.push((op.as_str().to_string(), us));
            }
            let plan_us = t_plan.as_secs_f64() * 1e6;
            cells.push(QueryCell {
                dataset: dataset.clone(),
                query: expr,
                plan: prov.plan.op.as_str().to_string(),
                cost: prov.plan.cost,
                rows: rows.len(),
                num_itemsets: ranked.len(),
                plan_us,
                naive_us,
                speedup: naive_us / plan_us.max(1e-3),
                ops,
            });
        }
    }
    cells
}

/// X17 rendered as a table.
pub fn x17_table(cells: &[QueryCell]) -> Table {
    let mut table = Table::new(
        "X17: query planner vs naive scan — chosen physical operator per cell",
        &[
            "dataset", "query", "plan", "rows", "plan", "naive", "speedup",
        ],
    );
    for c in cells {
        table.row(vec![
            c.dataset.clone(),
            c.query.clone(),
            c.plan.clone(),
            c.rows.to_string(),
            format!("{:.1}us", c.plan_us),
            format!("{:.1}us", c.naive_us),
            format!("{:.1}x", c.speedup),
        ]);
    }
    table
}

/// Machine-readable record of an X17 run (the committed
/// `BENCH_query.json`).
pub fn x17_json(cells: &[QueryCell], scale: Scale) -> String {
    Record::new("x17_query", scale)
        .array("cells", cells.iter().map(QueryCell::json))
        .finish()
}

/// One X18 measurement: the approximate answering tier on one dataset
/// cell — the indicator sketch against exact answering. Every sketch
/// estimate is asserted within its stated error
/// bound before any number is reported (a live correctness check, like
/// the miner-agreement assertions in the sweep cells).
#[derive(Debug, Clone)]
pub struct ApproxCell {
    /// Dataset label, e.g. `T10.I4.D4000`.
    pub dataset: String,
    /// Window size the sketch mirrors.
    pub transactions: usize,
    /// Absolute minimum support of the mined generation.
    pub min_sup: Support,
    /// Configured sketch ε (guarantee: within `±⌈ε·N⌉`, prob `1 − δ`).
    pub epsilon: f64,
    /// Configured sketch δ.
    pub delta: f64,
    /// Transactions the sketch retained (≈ the Hoeffding target).
    pub kept_samples: usize,
    /// Sketch memory, bytes.
    pub sketch_bytes: usize,
    /// Bytes of the raw window the exact paths hold.
    pub window_bytes: usize,
    /// `sketch_bytes / window_bytes` — the memory the tier saves.
    pub memory_fraction: f64,
    /// Bound-checked probes (frequent, infrequent, out-of-vocabulary).
    pub probes: usize,
    /// Worst `|estimate − exact|` across the bound-checked probes.
    pub max_abs_error: u64,
    /// Worst stated bound across the same probes.
    pub max_bound: u64,
    /// Mean microseconds per `APPROX` probe through the sketch operator
    /// (parse, plan, and the O(sample) scan included).
    pub sketch_us: f64,
    /// Mean microseconds per exact answer *at the same freshness*: a
    /// subset-count scan of the raw window, which is what the exact
    /// tier costs whenever the published snapshot cannot cover the
    /// probe (mid-rebuild, or arrivals newer than the generation).
    pub exact_us: f64,
    /// Mean microseconds per `EXACT` probe through the published
    /// snapshot's postings oracle — reported for context, not raced:
    /// that path answers a *stale* generation and carries the full
    /// window in memory.
    pub oracle_us: f64,
    /// `exact_us / sketch_us`.
    pub speedup: f64,
}

impl ApproxCell {
    fn json(&self) -> Object {
        Object::new()
            .str("dataset", &self.dataset)
            .int("transactions", self.transactions)
            .int("min_sup", self.min_sup)
            .num("epsilon", self.epsilon, 3)
            .num("delta", self.delta, 3)
            .int("kept_samples", self.kept_samples)
            .int("sketch_bytes", self.sketch_bytes)
            .int("window_bytes", self.window_bytes)
            .num("memory_fraction", self.memory_fraction, 4)
            .int("probes", self.probes)
            .int("max_abs_error", self.max_abs_error)
            .int("max_bound", self.max_bound)
            .num("sketch_us", self.sketch_us, 3)
            .num("exact_us", self.exact_us, 3)
            .num("oracle_us", self.oracle_us, 3)
            .num("speedup", self.speedup, 3)
    }
}

/// X18 — the approximate tier: sketch memory and probe latency vs the
/// exact paths, across the sparse/dense/zipf workloads. The raced
/// comparison holds freshness fixed: the sketch answers in O(sample)
/// from the live arrival stream, and the exact answer at that same
/// freshness is a subset-count scan of the raw window. The published
/// snapshot's postings oracle is timed alongside for context — it is
/// faster on point probes but answers a stale generation and keeps the
/// whole window resident, which is exactly what the tier avoids. See
/// [`x18_table`] for the rendered table and [`x18_json`] for the
/// committed `BENCH_approx.json` record.
pub fn x18_approx_cells(scale: Scale) -> Vec<ApproxCell> {
    use plt_approx::{IndicatorSketch, SketchConfig};
    use plt_query::{PhysOp, Rows, Snapshot, SupportSketch};
    use plt_rules::RuleConfig;

    let runs = scale.runs().max(3);
    let n = scale.pick(4_000, 20_000);
    let dense_n = scale.pick(1_500, 6_000);
    let (epsilon, delta) = (0.1, 0.01);
    let workloads: Vec<(String, Vec<Vec<Item>>, Support)> = vec![
        (
            format!("T10.I4.D{n}"),
            datasets::sparse(n),
            ((0.01 * n as f64).ceil() as Support).max(2),
        ),
        (
            format!("DENSE16.D{dense_n}"),
            datasets::dense(dense_n, 16),
            ((0.3 * dense_n as f64).ceil() as Support).max(2),
        ),
        (
            format!("ZIPF1.1.D{n}"),
            datasets::zipf(n, 1.1),
            ((0.01 * n as f64).ceil() as Support).max(2),
        ),
    ];

    let join = |probe: &[Item]| {
        probe
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };

    let mut cells = Vec::new();
    for (dataset, db, min_sup) in workloads {
        let plt = construct(&db, min_sup, ConstructOptions::conditional()).expect("construct");
        let result = ConditionalMiner::default().mine(&db, min_sup);
        let mut sketch = IndicatorSketch::new(SketchConfig {
            epsilon,
            delta,
            capacity: db.len(),
            seed: 0x18_c0de,
        });
        for t in &db {
            sketch.observe(t);
        }
        assert!(
            !sketch.is_exhaustive(),
            "{dataset}: the window must be large enough that the sketch samples"
        );
        let kept_samples = sketch.kept_len();
        let sketch_bytes = sketch.memory_bytes();
        let window_bytes: usize = db
            .iter()
            .map(|t| std::mem::size_of_val(t.as_slice()) + std::mem::size_of::<Vec<Item>>())
            .sum();
        let src =
            Snapshot::build(1, plt, &result, RuleConfig::default()).with_sketch(Box::new(sketch));

        let ranked = src.ranked();
        assert!(!ranked.is_empty(), "{dataset} must induce frequent sets");
        let items: Vec<Item> = src
            .extensions(&[], usize::MAX)
            .iter()
            .map(|&(i, _)| i)
            .collect();

        // Infrequent probes: small combinations of frequent items that
        // did not make the index, found by a deterministic stride scan.
        let mut infrequent: Vec<Vec<Item>> = Vec::new();
        'search: for width in 2..=4usize {
            let stride = (items.len() / width).max(1);
            for start in 0..items.len() {
                let mut probe: Vec<Item> = (0..width)
                    .map(|k| items[(start + k * stride) % items.len()])
                    .collect();
                probe.sort_unstable();
                probe.dedup();
                if probe.len() == width
                    && src.support(&probe).support < min_sup
                    && !infrequent.contains(&probe)
                {
                    infrequent.push(probe);
                    if infrequent.len() == 8 {
                        break 'search;
                    }
                }
            }
        }
        assert!(
            !infrequent.is_empty(),
            "{dataset}: no infrequent probe found — widen the search"
        );

        // Live bound check over frequent, infrequent, and
        // out-of-vocabulary probes: every estimate must honor the bound
        // it states.
        let mut bound_probes: Vec<Vec<Item>> = vec![
            ranked[0].0.items().to_vec(),
            ranked[ranked.len() / 2].0.items().to_vec(),
            ranked[ranked.len() - 1].0.items().to_vec(),
        ];
        bound_probes.extend(infrequent.iter().cloned());
        bound_probes.push(vec![Item::MAX - 1]);
        let mut max_abs_error = 0u64;
        let mut max_bound = 0u64;
        for probe in &bound_probes {
            let exact = db
                .iter()
                .filter(|t| probe.iter().all(|i| t.contains(i)))
                .count() as u64;
            let expr = format!("SUPPORT OF {{{}}} APPROX", join(probe));
            let (rows, prov) =
                plt_query::run_forced(&expr, &src, PhysOp::SketchProbe).expect("sketch probe");
            let est = match rows {
                Rows::Support { support, .. } => support,
                other => panic!("support probe returned {other:?}"),
            };
            let bound = prov.error_bound.expect("sketch answers state a bound");
            assert!(
                est.abs_diff(exact) <= bound,
                "{dataset}: |{est} - {exact}| > {bound} on {probe:?}"
            );
            max_abs_error = max_abs_error.max(est.abs_diff(exact));
            max_bound = max_bound.max(bound);
        }

        // Latency: the same infrequent probes through the sketch
        // operator, through an exact scan of the raw window (the
        // equal-freshness baseline), and through the snapshot oracle.
        let approx_exprs: Vec<String> = infrequent
            .iter()
            .map(|p| format!("SUPPORT OF {{{}}} APPROX", join(p)))
            .collect();
        let exact_exprs: Vec<String> = infrequent
            .iter()
            .map(|p| format!("SUPPORT OF {{{}}}", join(p)))
            .collect();
        let (_, t_sketch) = time_best(runs, || {
            approx_exprs
                .iter()
                .map(|e| {
                    match plt_query::run_forced(e, &src, PhysOp::SketchProbe)
                        .expect("sketch probe")
                        .0
                    {
                        Rows::Support { support, .. } => support,
                        _ => unreachable!(),
                    }
                })
                .sum::<u64>()
        });
        let (_, t_exact) = time_best(runs, || {
            infrequent
                .iter()
                .map(|probe| {
                    db.iter()
                        .filter(|t| probe.iter().all(|i| t.contains(i)))
                        .count() as u64
                })
                .sum::<u64>()
        });
        let (_, t_oracle) = time_best(runs, || {
            exact_exprs
                .iter()
                .map(|e| {
                    match plt_query::run(e, &src, &mut plt_obs::Obs::none())
                        .expect("exact probe")
                        .0
                    {
                        Rows::Support { support, .. } => support,
                        _ => unreachable!(),
                    }
                })
                .sum::<u64>()
        });
        let sketch_us = t_sketch.as_secs_f64() * 1e6 / approx_exprs.len() as f64;
        let exact_us = t_exact.as_secs_f64() * 1e6 / infrequent.len() as f64;
        let oracle_us = t_oracle.as_secs_f64() * 1e6 / exact_exprs.len() as f64;

        cells.push(ApproxCell {
            dataset,
            transactions: db.len(),
            min_sup,
            epsilon,
            delta,
            kept_samples,
            sketch_bytes,
            window_bytes,
            memory_fraction: sketch_bytes as f64 / window_bytes as f64,
            probes: bound_probes.len(),
            max_abs_error,
            max_bound,
            sketch_us,
            exact_us,
            oracle_us,
            speedup: exact_us / sketch_us.max(1e-3),
        });
    }
    cells
}

/// X18 rendered as a table.
pub fn x18_table(cells: &[ApproxCell]) -> Table {
    let mut table = Table::new(
        "X18: approximate tier — sketch memory & latency vs exact",
        &[
            "dataset",
            "kept",
            "memory",
            "err/bound",
            "sketch",
            "exact",
            "oracle",
            "speedup",
        ],
    );
    for c in cells {
        table.row(vec![
            c.dataset.clone(),
            format!("{}/{}", c.kept_samples, c.transactions),
            format!("{:.1}%", c.memory_fraction * 100.0),
            format!("{}/{}", c.max_abs_error, c.max_bound),
            format!("{:.1}us", c.sketch_us),
            format!("{:.1}us", c.exact_us),
            format!("{:.1}us", c.oracle_us),
            format!("{:.1}x", c.speedup),
        ]);
    }
    table
}

/// Machine-readable record of an X18 run (the committed
/// `BENCH_approx.json`).
pub fn x18_json(cells: &[ApproxCell], scale: Scale) -> String {
    Record::new("x18_approx", scale)
        .array("cells", cells.iter().map(ApproxCell::json))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The experiment functions both measure and *assert* (all miners must
    // agree); running them at Quick scale is itself a meaningful
    // integration test of the whole workspace.

    #[test]
    fn sweep_cell_runs_the_full_roster_and_asserts_agreement() {
        // A miniature X1 cell: exercises every miner in the roster,
        // including the in-harness |F| agreement assertion.
        let db = crate::datasets::sparse_small(300);
        let mut table = Table::new("smoke", &["min_sup", "miner", "|F|", "time"]);
        sweep_cell(&mut table, "smoke", &db, 5, 1, &roster());
        assert_eq!(table.num_rows(), roster().len());
    }

    #[test]
    fn x4_quick_runs_and_agrees() {
        let t = x4_topdown_crossover(Scale::Quick);
        assert_eq!(t.num_rows(), 5 * 5);
    }

    #[test]
    fn x6_reports_compression() {
        let t = x6_compression(Scale::Quick);
        assert_eq!(t.num_rows(), 16);
        // The compressed PLT must beat the in-memory table on both
        // datasets (ratio vs table < 1).
        for row in 0..t.num_rows() {
            if t.cell(row, 1) == "ratio vs table" {
                let ratio: f64 = t.cell(row, 2).parse().unwrap();
                assert!(ratio < 1.0, "ratio {ratio} on {}", t.cell(row, 0));
            }
        }
    }

    #[test]
    fn x7_verdicts_agree() {
        let t = x7_subset_check(Scale::Quick);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.cell(0, 1), t.cell(1, 1));
    }

    #[test]
    fn x8_structures_build() {
        let t = x8_construction(Scale::Quick);
        assert_eq!(t.num_rows(), 5);
    }

    #[test]
    fn x13_incremental_agrees_and_emits_json() {
        let cells = x13_incremental_cells(Scale::Quick);
        // 2 datasets x 2 placement modes. Correctness (incremental ==
        // full re-mine) is asserted inside the cell builder itself.
        assert_eq!(cells.len(), 4);
        for c in &cells {
            assert!(c.itemsets > 0, "empty family on {}", c.dataset);
            assert!(c.incremental_secs > 0.0 && c.full_secs > 0.0);
            assert!(
                c.dirty_shards >= 1 && c.dirty_shards <= c.shards,
                "dirty count out of range on {} {}",
                c.dataset,
                c.mode
            );
            if c.mode == "localized" {
                assert!(
                    c.dirty_shards < c.shards,
                    "a localized delta must leave clean shards on {}",
                    c.dataset
                );
            }
        }
        let json = x13_json(&cells, Scale::Quick);
        assert!(json.contains("\"experiment\": \"x13_incremental\""));
        assert!(json.contains("\"bench_meta\""));
        assert_eq!(json.matches("\"dataset\"").count(), 4);
        assert_eq!(json.matches("\"speedup\"").count(), 4);
        assert_eq!(x13_table(&cells).num_rows(), 4);
    }

    #[test]
    fn x15_storage_recovers_and_emits_json() {
        let cells = x15_storage_cells(Scale::Quick);
        // 2 datasets. Correctness (WAL recovery == full re-mine, cold
        // lookups == exact supports) is asserted inside the cell builder.
        assert_eq!(cells.len(), 2);
        for c in &cells {
            assert!(c.wal_deltas > 0 && c.wal_bytes > 0, "{}", c.dataset);
            assert!(c.recovery_wal_secs > 0.0 && c.recovery_ckpt_secs > 0.0);
            assert!(c.cold_lookups > 0 && c.cold_lookup_us > 0.0);
            assert!(
                c.segment_lookups > 0,
                "a 2-shard budget must push lookups to mmap on {}",
                c.dataset
            );
            assert!(c.segments >= 1 && c.segment_bytes > 0);
        }
        let json = x15_json(&cells, Scale::Quick);
        assert!(json.contains("\"experiment\": \"x15_storage\""));
        assert!(json.contains("\"bench_meta\""));
        assert_eq!(json.matches("\"dataset\"").count(), 2);
        assert_eq!(json.matches("\"recovery_wal_secs\"").count(), 2);
        assert_eq!(x15_table(&cells).num_rows(), 2);
    }

    #[test]
    fn x17_planner_wins_every_cell_and_emits_json() {
        let cells = x17_query_cells(Scale::Quick);
        // 3 datasets × (support + rules + mine-cond). Result equality
        // between every applicable operator and the planner's answer is
        // asserted inside the cell builder.
        assert_eq!(cells.len(), 9);
        let plans: std::collections::BTreeSet<&str> =
            cells.iter().map(|c| c.plan.as_str()).collect();
        assert!(plans.contains("index_point"), "{plans:?}");
        assert!(plans.contains("rule_scan"), "{plans:?}");
        assert!(plans.contains("ext_traverse"), "{plans:?}");
        // Every physical operator is timed somewhere in the grid, even
        // where the planner (correctly) avoids it.
        let timed: std::collections::BTreeSet<&str> = cells
            .iter()
            .flat_map(|c| c.ops.iter().map(|(op, _)| op.as_str()))
            .collect();
        for op in [
            "index_point",
            "ext_traverse",
            "rule_scan",
            "cond_mine",
            "full_scan",
        ] {
            assert!(timed.contains(op), "{timed:?} missing {op}");
        }
        for c in &cells {
            assert!(c.plan_us > 0.0 && c.naive_us > 0.0);
            assert!(c.cost.is_finite() && c.cost >= 0.0);
            assert_ne!(
                c.plan, "full_scan",
                "planner fell back to the scan it is judged against: {} / {}",
                c.dataset, c.query
            );
        }
        let json = x17_json(&cells, Scale::Quick);
        assert!(json.contains("\"experiment\": \"x17_query\""));
        assert!(json.contains("\"bench_meta\""));
        assert_eq!(json.matches("\"speedup\"").count(), cells.len());
        assert_eq!(x17_table(&cells).num_rows(), cells.len());
    }

    #[test]
    fn x18_sketch_stays_bounded_cheap_and_small_and_emits_json() {
        let cells = x18_approx_cells(Scale::Quick);
        // One cell per workload; within-bound and sketch-actually-sampling
        // are asserted inside the builder.
        assert_eq!(cells.len(), 3);
        for c in &cells {
            assert!(
                c.kept_samples < c.transactions,
                "{}: sketch kept the whole window",
                c.dataset
            );
            assert!(
                c.memory_fraction < 0.35,
                "{}: sketch holds {:.1}% of the window — no memory win",
                c.dataset,
                c.memory_fraction * 100.0
            );
            assert!(c.max_abs_error <= c.max_bound, "{}", c.dataset);
            assert!(
                c.speedup > 1.0,
                "{}: sketch probe ({:.1}us) slower than the equal-freshness \
                 exact window scan ({:.1}us)",
                c.dataset,
                c.sketch_us,
                c.exact_us
            );
            assert!(c.oracle_us > 0.0);
        }
        let json = x18_json(&cells, Scale::Quick);
        assert!(json.contains("\"experiment\": \"x18_approx\""));
        assert!(json.contains("\"bench_meta\""));
        assert_eq!(json.matches("\"memory_fraction\"").count(), cells.len());
        assert_eq!(json.matches("\"speedup\"").count(), cells.len());
        assert_eq!(x18_table(&cells).num_rows(), cells.len());
    }

    #[test]
    fn x16_load_driver_agrees_with_the_engine_and_emits_json() {
        use std::sync::Arc;

        use plt_rules::RuleConfig;
        use plt_serve::{serve, Engine, Request, ServerConfig, Snapshot};

        // Bounded live smoke: a small herd, every wire reply asserted
        // against the in-process answer inside `x16_drive_load`. The
        // full grid (and the idle ceiling) runs via `experiments --exp
        // x16`; keeping the herd small here keeps the tier-1 suite fast.
        let db = datasets::sparse_small(300);
        let result = ConditionalMiner::default().mine(&db, 2);
        let plt = construct(&db, 2, ConstructOptions::conditional()).expect("construct");
        let engine = Arc::new(Engine::new(Snapshot::build(
            1,
            plt,
            &result,
            RuleConfig::default(),
        )));
        let items: Vec<Item> = result
            .iter()
            .max_by_key(|&(_, support)| support)
            .map(|(itemset, _)| itemset.items().to_vec())
            .expect("frequent family");
        let request = Request::Support { items };
        let payload = request.to_json().to_string();
        let expected = engine.handle(&request);

        let handle = serve("127.0.0.1:0", engine, None, ServerConfig::default()).expect("bind");
        let (elapsed, mut lat) = x16_drive_load(handle.addr(), 8, 4, &payload, &expected);
        handle.shutdown();
        lat.sort_unstable();
        assert_eq!(lat.len(), 32, "8 clients x 4 ops");
        assert!(elapsed > 0.0);
        let load = vec![ServeLoadCell {
            model: SERVER_MODEL.to_string(),
            clients: 8,
            ops: lat.len(),
            elapsed_secs: elapsed,
            throughput: lat.len() as f64 / elapsed,
            p50_us: percentile_us(&lat, 0.50),
            p99_us: percentile_us(&lat, 0.99),
        }];
        assert!(load[0].throughput > 0.0 && load[0].p99_us >= load[0].p50_us);

        let cells = ServeCells {
            idle: Some(IdleCell {
                target: 16,
                opened: 16,
                active_connections: 17,
                reactors: 1,
                nofile: 1_024,
                probe_p50_us: 1.0,
                probe_p99_us: 2.0,
            }),
            load,
        };
        let json = x16_json(&cells, Scale::Quick);
        assert!(json.contains("\"experiment\": \"x16_async_serve\""));
        assert!(json.contains("\"bench_meta\""));
        assert!(json.contains("\"active_connections\": 17"));
        assert_eq!(json.matches("\"model\"").count(), cells.load.len());
        assert_eq!(x16_table(&cells).num_rows(), cells.load.len() + 1);
    }

    #[test]
    fn x14_representations_agree_and_join_through_the_kernels() {
        // Agreement of both representations with the arena is asserted
        // inside the experiment itself.
        let table = x14_eclat_bitsets(Scale::Quick);
        assert_eq!(table.num_rows(), 3);
        for row in 0..3 {
            let dataset = table.cell(row, 0);
            let itemsets: usize = table.cell(row, 1).parse().unwrap();
            assert!(itemsets > 0, "empty family on {dataset}");
            let joins: u64 = table.cell(row, 5).parse().unwrap();
            assert!(
                joins > 0,
                "bitset Eclat must join through the bitmap kernels on {dataset}"
            );
        }
    }

    #[test]
    fn x9_policies_agree_on_the_answer() {
        let t = x9_rank_policy(Scale::Quick);
        assert_eq!(t.num_rows(), 6);
        // |F| must match across the three policies within each dataset.
        for base in [0, 3] {
            assert_eq!(t.cell(base, 4), t.cell(base + 1, 4));
            assert_eq!(t.cell(base, 4), t.cell(base + 2, 4));
        }
    }
}
