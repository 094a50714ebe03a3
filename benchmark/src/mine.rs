//! `mine-sparse` and `mine-dense`: repeated runs of the default miner
//! over one FIMI file, the way `plt-mine mine` runs it.

use std::path::Path;
use std::time::{Duration, Instant};

use plt_core::construct::{construct_obs, ConstructOptions};
use plt_core::{Itemset, Miner, RankPolicy, Support};
use plt_data::fimi;
use plt_obs::{MetricsRecorder, Obs};
use plt_shard::MinerBuilder;

use crate::measure::{self, Tracer, ROOT};
use crate::Outcome;

/// Set-up repetitions before the first mine.
const SETUP_REPS: usize = 5;
/// One more set-up repetition runs after every this many mines, so
/// `setup_s`, the median of all of them, spans the whole run and not
/// one moment of it.
const MINES_PER_SETUP: usize = 4;
/// A run keeps mining past `--seconds` until it has this many samples.
const MIN_RUNS: usize = 10;

/// One untraced mine, exactly the CLI's path: the default
/// `MinerBuilder` miner over the transactions, then `sorted()`.
fn mine_once(transactions: &[Vec<u32>], min_sup: Support) -> Vec<(Itemset, Support)> {
    MinerBuilder::new()
        .build_miner()
        .mine(transactions, min_sup)
        .sorted()
}

pub fn run(dir: &Path, rel_min_sup: f64, seconds: f64, tracer: Option<&mut Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let input = dir.join(crate::inputs::MINE_INPUT);

    let parse = |setup: &mut Vec<f64>| {
        let started = Instant::now();
        let db = fimi::read_file(&input).expect("read the mining input");
        setup.push(started.elapsed().as_secs_f64());
        db
    };
    let mut setup = Vec::new();
    for _ in 1..SETUP_REPS {
        // One database at a time, as in a single `plt-mine mine`.
        drop(parse(&mut setup));
    }
    let db = parse(&mut setup);
    let min_sup = db.absolute_support(rel_min_sup);
    let tx = db.transactions();

    // Warm-up: first-touch page faults and allocator growth stay out of
    // the timed runs. Peak memory is read here: set-up plus one mine is
    // what one `plt-mine mine` holds. Later mines reuse freed heap in
    // different patterns, and the high-water mark after many of them
    // lands in one of two places by chance.
    let expected_len = mine_once(tx, min_sup).len();
    let rss = measure::peak_rss_mb();

    let cpu0 = measure::process_cpu_s();
    let started = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let mut run_us = Vec::new();
    // One mine per slice.
    let mut slices = measure::Slices::start();
    let mut last = Vec::new();
    while started.elapsed() < deadline || run_us.len() < MIN_RUNS {
        if !run_us.is_empty() && run_us.len() % MINES_PER_SETUP == 0 {
            drop(parse(&mut setup));
            slices.skip();
        }
        let t = Instant::now();
        last = std::hint::black_box(mine_once(tx, min_sup));
        run_us.push(t.elapsed().as_secs_f64() * 1e6);
        slices.close(&run_us[run_us.len() - 1..]);
        if last.len() != expected_len {
            out.problems.push(format!(
                "run {} found {} itemsets, the warm-up run {expected_len}",
                run_us.len(),
                last.len()
            ));
        }
    }
    let cpu = measure::process_cpu_s() - cpu0;

    out.attempted = run_us.len() as u64;
    out.set("setup_s", measure::median(&setup));
    out.set("throughput_ops_s", slices.throughput());
    out.set("latency_us", slices.latency_us());
    out.set("peak_rss_mb", rss);
    let (q1, q3) = measure::quartiles(&run_us);
    out.notes.push(format!(
        "{} itemsets at min_sup {min_sup} of {} transactions; {} set-ups; \
         mine latency {}, median {:.0} us, quartiles [{q1:.0}, {q3:.0}] us, p75 {:.0} us",
        expected_len,
        db.len(),
        setup.len(),
        measure::tally(&run_us, 0.75),
        measure::median(&run_us),
        measure::percentile(&run_us, 0.75),
    ));

    // Correctness: the last timed result against FP-growth, outside timing.
    let reference = plt_baselines::FpGrowthMiner.mine(tx, min_sup).sorted();
    if last != reference {
        out.problems.push(format!(
            "the miner found {} itemsets, FP-growth {}",
            last.len(),
            reference.len()
        ));
    }

    if let Some(tracer) = tracer {
        traced(tracer, &mut out, &input, tx, min_sup, seconds, &run_us);
        out.set("proc.cpu_s", cpu);
        out.set("proc.cpu_us_per_op", slices.cpu_us_per_op());
    }
    out
}

/// The traced run: the same mines with each layer called on its own —
/// `construct_obs` (whose `construct/*` spans a recorder captures),
/// `Mine::mine` with the recorder (the `arena.*`/`kernel.*` counters),
/// then `sorted()` — plus `fimi::read`.
fn traced(
    tracer: &mut Tracer,
    out: &mut Outcome,
    input: &Path,
    tx: &[Vec<u32>],
    min_sup: Support,
    seconds: f64,
    untraced_us: &[f64],
) {
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let db = fimi::read_file(input).expect("read the mining input");
        tracer.span("fimi.read", ROOT, t, Instant::now());
        std::hint::black_box(db);
    }
    let options = ConstructOptions {
        rank_policy: RankPolicy::default(),
        with_prefixes: false,
    };
    let miner = MinerBuilder::new().build();
    let started = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let mut runs = 0;
    let mut recorder = MetricsRecorder::new();
    let mut itemsets = 0;
    while started.elapsed() < deadline || runs < MIN_RUNS {
        recorder = MetricsRecorder::new();
        let t0 = Instant::now();
        let root = tracer.open("mine.run", ROOT, t0);
        let plt =
            construct_obs(tx, min_sup, options, &mut Obs::new(&mut recorder)).expect("construct");
        let t1 = Instant::now();
        // construct_obs runs rank then encode back to back; the recorder
        // holds their durations, placed at either end of the interval.
        let rank = Duration::from_nanos(recorder.span_total_ns("construct/rank"));
        let encode = Duration::from_nanos(recorder.span_total_ns("construct/encode"));
        let construct = tracer.open("construct", Some(root), t0);
        tracer.span("construct.rank", Some(construct), t0, t0 + rank);
        tracer.span("construct.encode", Some(construct), t1 - encode, t1);
        tracer.close(construct, t1);
        let result = miner.mine(&plt, &mut Obs::new(&mut recorder));
        let t2 = Instant::now();
        tracer.span("cond.mine", Some(root), t1, t2);
        let sorted = std::hint::black_box(result.sorted());
        let t3 = Instant::now();
        tracer.span("result.sort", Some(root), t2, t3);
        tracer.close(root, t3);
        itemsets = sorted.len();
        runs += 1;
    }

    let s = |name: &str| tracer.median_us(name) / 1e6;
    out.set("fimi.read_s", s("fimi.read"));
    out.set("construct.rank_s", s("construct.rank"));
    out.set("construct.encode_s", s("construct.encode"));
    out.set("cond.mine_s", s("cond.mine"));
    out.set("result.sort_s", s("result.sort"));
    out.set("result.itemsets", itemsets as f64);
    let c = |name: &str| recorder.counter_value(name) as f64;
    out.set("cond.vectors_folded", c("arena.vectors_folded"));
    out.set("cond.dedup_hits", c("arena.dedup_hits"));
    let folded = c("arena.vectors_folded");
    out.set(
        "cond.dedup_hit_ratio",
        if folded > 0.0 {
            c("arena.dedup_hits") / folded
        } else {
            0.0
        },
    );
    out.set("cond.copy_throughs", c("arena.copy_throughs"));
    out.set(
        "cond.single_path_shortcuts",
        c("arena.single_path_shortcuts"),
    );
    out.set(
        "cond.bytes_peak",
        recorder.gauge_value("arena.bytes_peak") as f64,
    );
    out.set("kernel.scalar_calls", c("kernel.scalar_calls"));
    let traced_us = tracer.median_us("mine.run");
    out.set(
        "trace.overhead_ratio",
        traced_us / measure::median(untraced_us) - 1.0,
    );
    out.notes.push(format!("traced: {runs} runs"));
}
