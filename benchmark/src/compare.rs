//! `compare`: verdicts for a change against its parent from recorded
//! runs, and `summarize`: medians and quartiles of recorded runs (the
//! committed baseline).
//!
//! A record file holds one JSON line per run, appended by
//! `benchmark --record FILE`: the result line plus `workload`, `seed`
//! and `started_unix_ms`.

use std::collections::BTreeMap;
use std::path::Path;

use plt_serve::json::Json;

use crate::measure::{median, quartiles, spread};

/// One recorded run.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub started_unix_ms: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

fn parse_run(line: &str) -> Result<Run, String> {
    let v = Json::parse(line).map_err(|e| e.to_string())?;
    let num = |key: &str| {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("missing {key}"))
    };
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(pairs)) = v.get("metrics") {
        for (name, m) in pairs {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            metrics.insert(name.clone(), value);
        }
    }
    Ok(Run {
        workload: v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("missing workload")?
            .to_string(),
        seed: num("seed")?,
        started_unix_ms: num("started_unix_ms")?,
        correct: v
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or("missing correct")?,
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
    })
}

pub fn load_runs(path: &Path) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| parse_run(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1)))
        .collect()
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn load_spec(path: &Path) -> Result<Vec<MetricSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = Json::parse(&text).map_err(|e| e.to_string())?;
    v.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .into(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs needed before a gain can be claimed.
const MIN_PAIRS: usize = 10;

/// The rules, for one metric on one workload. `pairs[i]` is the i-th
/// parent run and the i-th change run; `alternating` says the run order
/// flipped between consecutive pairs.
///
/// * improved: at least `MIN_PAIRS` alternating pairs, the change better
///   in at least 9/10 of them (ties count for neither), and the medians
///   apart by more than the parent's interquartile range;
/// * unresolved: either side's spread (IQR / median) is wider than the
///   bound, unless every change run is better than every parent run;
/// * regressed: the change's median is worse than the parent's by more
///   than `bound` of it;
/// * unchanged otherwise.
pub fn verdict(
    pairs: &[(f64, f64)],
    alternating: bool,
    higher_is_better: bool,
    bound: f64,
) -> Verdict {
    if pairs.is_empty() {
        return Verdict::Unresolved;
    }
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (mp, mc) = (median(&parent), median(&change));
    let gain = sign * (mc - mp);
    let wins = pairs.iter().filter(|(p, c)| sign * (c - p) > 0.0).count();
    let (q1, q3) = quartiles(&parent);
    if pairs.len() >= MIN_PAIRS && alternating && wins * 10 >= pairs.len() * 9 && gain > q3 - q1 {
        return Verdict::Improved;
    }
    let worst_change = change
        .iter()
        .map(|c| sign * c)
        .fold(f64::INFINITY, f64::min);
    let best_parent = parent
        .iter()
        .map(|p| sign * p)
        .fold(f64::NEG_INFINITY, f64::max);
    if (spread(&parent) > bound || spread(&change) > bound) && worst_change <= best_parent {
        return Verdict::Unresolved;
    }
    if -gain > bound * mp.abs() {
        return Verdict::Regressed;
    }
    Verdict::Unchanged
}

/// Pairs the i-th parent run with the i-th change run of a workload
/// (each side in start order) and says whether the order alternated:
/// each pair's runs are adjacent in time and the side that ran first
/// flips from pair to pair.
fn pair_runs<'a>(parent: &[&'a Run], change: &[&'a Run]) -> (Vec<(&'a Run, &'a Run)>, bool) {
    let mut p = parent.to_vec();
    let mut c = change.to_vec();
    p.sort_by_key(|r| r.started_unix_ms);
    c.sort_by_key(|r| r.started_unix_ms);
    let pairs: Vec<(&Run, &Run)> = p.into_iter().zip(c).collect();
    let parent_first = |(a, b): &(&Run, &Run)| a.started_unix_ms < b.started_unix_ms;
    let alternating = pairs.windows(2).all(|w| {
        let end = w[0].0.started_unix_ms.max(w[0].1.started_unix_ms);
        let next = w[1].0.started_unix_ms.min(w[1].1.started_unix_ms);
        end < next && parent_first(&w[0]) != parent_first(&w[1])
    });
    (pairs, alternating)
}

/// One verdict row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub verdict: Verdict,
    pub detail: String,
}

pub fn compare(parent: &[Run], change: &[Run], spec: &[MetricSpec]) -> Vec<Row> {
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut rows = Vec::new();
    for workload in workloads {
        let p: Vec<&Run> = parent.iter().filter(|r| r.workload == workload).collect();
        let c: Vec<&Run> = change.iter().filter(|r| r.workload == workload).collect();
        let (pairs, alternating) = pair_runs(&p, &c);
        for m in spec {
            let values: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|(a, b)| Some((*a.metrics.get(&m.name)?, *b.metrics.get(&m.name)?)))
                .collect();
            let v = verdict(&values, alternating, m.higher_is_better, m.bound);
            let side = |i: usize| -> Vec<f64> {
                values
                    .iter()
                    .map(|pc| if i == 0 { pc.0 } else { pc.1 })
                    .collect()
            };
            let (pq1, pq3) = quartiles(&side(0));
            let (cq1, cq3) = quartiles(&side(1));
            rows.push(Row {
                workload: workload.to_string(),
                metric: m.name.clone(),
                verdict: v,
                detail: format!(
                    "parent {:.4} [{pq1:.4}, {pq3:.4}]  change {:.4} [{cq1:.4}, {cq3:.4}]  pairs {}{}",
                    median(&side(0)),
                    median(&side(1)),
                    values.len(),
                    if alternating { "" } else { " (order not alternating)" }
                ),
            });
        }
        // Failures: the change may not fail more often than the parent,
        // and may not answer wrongly at all.
        let ratio = |runs: &[&Run]| {
            let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
            runs.iter().map(|r| r.failed).sum::<u64>() as f64 / attempted.max(1) as f64
        };
        let (rp, rc) = (ratio(&p), ratio(&c));
        let wrong = c.iter().filter(|r| !r.correct).count();
        rows.push(Row {
            workload: workload.to_string(),
            metric: "error_ratio".into(),
            verdict: if rc > rp || wrong > 0 {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            },
            detail: format!("parent {rp:.6}  change {rc:.6}  incorrect change runs {wrong}"),
        });
    }
    rows
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].as_str())
}

pub fn compare_main(args: &[String]) -> u8 {
    let (Some(parent), Some(change)) = (flag(args, "--parent"), flag(args, "--change")) else {
        eprintln!("benchmark compare: --parent FILE --change FILE [--spec BENCHMARK.json]");
        return 2;
    };
    let spec = flag(args, "--spec").unwrap_or("BENCHMARK.json");
    let loaded = (|| {
        Ok::<_, String>((
            load_runs(Path::new(parent))?,
            load_runs(Path::new(change))?,
            load_spec(Path::new(spec))?,
        ))
    })();
    let (parent, change, spec) = match loaded {
        Ok(l) => l,
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            return 2;
        }
    };
    let rows = compare(&parent, &change, &spec);
    for r in &rows {
        println!(
            "{:<14} {:<18} {:<10} {}",
            r.workload,
            r.metric,
            r.verdict.as_str(),
            r.detail
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "improved {} unchanged {} regressed {} unresolved {}",
        count(Verdict::Improved),
        count(Verdict::Unchanged),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    0
}

/// Median, quartiles and spread of every metric per workload, one JSON
/// object per record file, with the host's `bench_meta` and `nproc`.
pub fn summarize_main(args: &[String]) -> u8 {
    if args.is_empty() {
        eprintln!("benchmark summarize: FILE...");
        return 2;
    }
    let mut sets = Vec::new();
    for path in args {
        let runs = match load_runs(Path::new(path)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("benchmark summarize: {e}");
                return 2;
            }
        };
        let mut by_workload: BTreeMap<&str, Vec<&Run>> = BTreeMap::new();
        for r in &runs {
            by_workload.entry(&r.workload).or_default().push(r);
        }
        let workloads: Vec<String> = by_workload
            .iter()
            .map(|(w, runs)| {
                let seeds: Vec<String> = runs.iter().map(|r| r.seed.to_string()).collect();
                let names: Vec<&String> = runs[0].metrics.keys().collect();
                let metrics: Vec<String> = names
                    .iter()
                    .map(|name| {
                        let v: Vec<f64> = runs.iter().filter_map(|r| r.metrics.get(*name)).copied().collect();
                        let (q1, q3) = quartiles(&v);
                        format!(
                            "\"{name}\": {{\"median\": {}, \"q1\": {q1}, \"q3\": {q3}, \"spread\": {}}}",
                            median(&v),
                            spread(&v)
                        )
                    })
                    .collect();
                format!(
                    "\"{w}\": {{\"runs\": {}, \"seeds\": [{}], \"metrics\": {{{}}}}}",
                    runs.len(),
                    seeds.join(", "),
                    metrics.join(", ")
                )
            })
            .collect();
        sets.push(format!(
            "{{\"file\": \"{}\", \"workloads\": {{{}}}}}",
            Path::new(path)
                .file_name()
                .map_or(String::new(), |f| f.to_string_lossy().into_owned()),
            workloads.join(", ")
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"bench_meta\": {}, \"nproc\": {nproc}, \"sets\": [{}]}}",
        plt_bench::bench_meta_json(),
        sets.join(", ")
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, started: u64, value: f64, failed: u64) -> Run {
        Run {
            workload: workload.into(),
            seed: started,
            started_unix_ms: started,
            correct: true,
            attempted: 100,
            failed,
            metrics: [("latency_p50_us".to_string(), value)]
                .into_iter()
                .collect(),
        }
    }

    /// `n` alternating pairs: parent first in even pairs, change first
    /// in odd ones.
    fn alternating(
        n: usize,
        parent: impl Fn(usize) -> f64,
        change: impl Fn(usize) -> f64,
    ) -> (Vec<Run>, Vec<Run>) {
        let (mut p, mut c) = (Vec::new(), Vec::new());
        for i in 0..n {
            let t = 100 * i as u64;
            let (tp, tc) = if i % 2 == 0 { (t, t + 10) } else { (t + 10, t) };
            p.push(run("w", tp, parent(i), 0));
            c.push(run("w", tc, change(i), 0));
        }
        (p, c)
    }

    fn spec(bound: f64) -> Vec<MetricSpec> {
        vec![MetricSpec {
            name: "latency_p50_us".into(),
            higher_is_better: false,
            bound,
        }]
    }

    fn verdict_of(p: &[Run], c: &[Run], bound: f64) -> Verdict {
        compare(p, c, &spec(bound))[0].verdict
    }

    #[test]
    fn a_clear_gain_over_ten_alternating_pairs_is_improved() {
        let (p, c) = alternating(10, |i| 100.0 + i as f64 % 3.0, |i| 80.0 + i as f64 % 3.0);
        assert_eq!(verdict_of(&p, &c, 0.1), Verdict::Improved);
    }

    #[test]
    fn a_gain_needs_ten_pairs_nine_wins_alternation_and_the_iqr() {
        // Nine pairs: not enough to claim a gain, but no regression.
        let (p, c) = alternating(9, |_| 100.0, |_| 80.0);
        assert_eq!(verdict_of(&p, &c, 0.1), Verdict::Unchanged);
        // Two losses in ten: fewer than 9/10 wins.
        let (p, c) = alternating(10, |_| 100.0, |i| if i < 2 { 120.0 } else { 80.0 });
        assert_eq!(verdict_of(&p, &c, 0.5), Verdict::Unchanged);
        // Same side first every time.
        let (p, mut c) = alternating(10, |_| 100.0, |_| 80.0);
        for (i, r) in c.iter_mut().enumerate() {
            r.started_unix_ms = 100 * i as u64 + 10;
        }
        let p: Vec<Run> = p
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.started_unix_ms = 100 * i as u64;
                r
            })
            .collect();
        assert_eq!(verdict_of(&p, &c, 0.1), Verdict::Unchanged);
        // Medians apart by less than the parent's IQR.
        let (p, c) = alternating(10, |i| 90.0 + 2.0 * i as f64, |i| 89.0 + 2.0 * i as f64);
        assert_eq!(verdict_of(&p, &c, 0.5), Verdict::Unchanged);
    }

    #[test]
    fn worsening_beyond_the_bound_is_a_regression() {
        let (p, c) = alternating(10, |_| 100.0, |_| 115.0);
        assert_eq!(verdict_of(&p, &c, 0.1), Verdict::Regressed);
        assert_eq!(verdict_of(&p, &c, 0.2), Verdict::Unchanged);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let (p, c) = alternating(10, |i| 60.0 + 10.0 * i as f64, |i| 65.0 + 10.0 * i as f64);
        assert_eq!(verdict_of(&p, &c, 0.1), Verdict::Unresolved);
        // Unless every change run beats every parent run.
        let (p, c) = alternating(8, |i| 100.0 + 10.0 * i as f64, |i| 50.0 + i as f64);
        assert_eq!(verdict_of(&p, &c, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn more_failures_or_a_wrong_answer_regress_the_error_ratio() {
        let (p, mut c) = alternating(3, |_| 100.0, |_| 100.0);
        let rows = compare(&p, &c, &spec(0.1));
        assert_eq!(rows[1].metric, "error_ratio");
        assert_eq!(rows[1].verdict, Verdict::Unchanged);
        c[0].failed = 1;
        assert_eq!(compare(&p, &c, &spec(0.1))[1].verdict, Verdict::Regressed);
        c[0].failed = 0;
        c[1].correct = false;
        assert_eq!(compare(&p, &c, &spec(0.1))[1].verdict, Verdict::Regressed);
    }

    #[test]
    fn record_lines_round_trip() {
        let line = "{\"workload\": \"mine-dense\", \"seed\": 4, \"started_unix_ms\": 17, \
                    \"correct\": true, \"attempted\": 40, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}";
        let r = parse_run(line).unwrap();
        assert_eq!(r.workload, "mine-dense");
        assert_eq!((r.seed, r.started_unix_ms, r.attempted), (4, 17, 40));
        assert_eq!(r.metrics["setup_s"], 0.25);
        assert!(parse_run("{\"seed\": 1}").is_err());
    }
}
