//! The repository benchmark.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
//! benchmark compare --parent FILE --change FILE [--spec BENCHMARK.json]
//! benchmark summarize FILE...
//! ```
//!
//! A run generates its inputs from `--seed` (in a child process, written
//! as files under `.bench_out/`), measures one workload for `--seconds`,
//! checks the answers, and prints one line per metric followed by a
//! JSON result as the last line of standard output. It exits nonzero on
//! a wrong answer. See README.md for the workloads and metrics.

mod compare;
mod inputs;
mod measure;
mod mine;
mod serve;
mod spec;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Where runs keep their inputs, work directories and trace files,
/// relative to the directory the benchmark runs from.
const OUT_DIR: &str = ".bench_out";
/// Spans kept for the JSONL trace file (per-layer samples are unbounded).
const MAX_SPANS: usize = 50_000;
/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// The measured time when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

/// What one workload run measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable context: sample counts, set-up repetitions.
    pub notes: Vec<String>,
    /// Wrong answers; any one makes the run incorrect.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::END_TO_END
                .iter()
                .chain(&spec::PER_LAYER)
                .any(|(n, _)| *n == name),
            "metric {name} is not in spec.rs"
        );
        self.metrics.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line: every end-to-end metric untraced, every
    /// per-layer metric traced (0 for a layer this workload never
    /// reaches).
    pub fn result_json(&self, traced: bool) -> String {
        let listed: &[(&str, &str)] = if traced {
            &spec::PER_LAYER
        } else {
            &spec::END_TO_END
        };
        let metrics: Vec<String> = listed
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--record" => run.record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if run.workload != "all" && !spec::WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected one of {} or all)",
            run.workload,
            spec::WORKLOADS.join(", ")
        ));
    }
    Ok(run)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::compare_main(&args[1..]),
        Some("summarize") => compare::summarize_main(&args[1..]),
        Some("gen") => gen_main(&args[1..]),
        _ => match parse_run_args(&args) {
            Ok(run) if run.workload == "all" => run_all(&args),
            Ok(run) => run_one(&run),
            Err(e) => {
                eprintln!("benchmark: {e}");
                2
            }
        },
    };
    ExitCode::from(code)
}

/// `gen <workload> <seed> <dir>`: the input-generation child.
fn gen_main(args: &[String]) -> u8 {
    let [workload, seed, dir] = args else {
        eprintln!("benchmark gen: expected <workload> <seed> <dir>");
        return 2;
    };
    let Ok(seed) = seed.parse() else {
        eprintln!("benchmark gen: bad seed {seed:?}");
        return 2;
    };
    inputs::generate(workload, seed, inputs::Scale::FULL, Path::new(dir));
    0
}

/// Every workload, each in a fresh child process so no heap state or
/// peak RSS carries from one to the next.
fn run_all(args: &[String]) -> u8 {
    let exe = std::env::current_exe().expect("locate the benchmark binary");
    let mut worst = 0;
    for workload in spec::WORKLOADS {
        let mut rest: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                rest.push(a.clone());
            }
        }
        println!("== {workload}");
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(&rest)
            .status()
            .expect("run a workload");
        if !status.success() {
            worst = 1;
        }
    }
    worst
}

fn run_one(run: &RunArgs) -> u8 {
    let out_dir = Path::new(OUT_DIR);
    let work = out_dir.join(format!("work-{}-{}", run.workload, std::process::id()));
    let input_dir = work.join("inputs");
    let exe = std::env::current_exe().expect("locate the benchmark binary");
    let generated = Command::new(exe)
        .args(["gen", &run.workload, &run.seed.to_string()])
        .arg(&input_dir)
        .status()
        .expect("run the input generator");
    if !generated.success() {
        eprintln!("benchmark: input generation failed");
        return 1;
    }

    // Before this process starts any thread, so every thread inherits it.
    let cpu = measure::pin_to_one_cpu();
    let started_unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let mut tracer = run.trace.then(|| measure::Tracer::new(MAX_SPANS));
    let mut outcome = execute(
        &run.workload,
        &input_dir,
        &work,
        run.seconds,
        tracer.as_mut(),
    );
    outcome.notes.push(match cpu {
        Some(cpu) => format!("measured on CPU {cpu} alone"),
        None => "could not pin to one CPU; measured unpinned".into(),
    });
    std::fs::remove_dir_all(&work).ok();

    report(run, &outcome);
    if let Some(tracer) = &tracer {
        let path = out_dir.join(format!("trace-{}-seed{}.jsonl", run.workload, run.seed));
        match tracer.write_jsonl(&path, &run.workload) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
        }
        for (name, us) in tracer.self_us() {
            println!("self_us {name:<32} {us:.3}");
        }
    }
    let result = outcome.result_json(run.trace);
    if let Some(path) = &run.record {
        let line = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"started_unix_ms\": {started_unix_ms}, {}",
            run.workload,
            run.seed,
            &result[1..]
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("benchmark: cannot record to {}: {e}", path.display());
        }
    }
    println!("{result}");
    u8::from(!outcome.correct())
}

/// Runs one workload over generated inputs.
fn execute(
    workload: &str,
    inputs: &Path,
    work: &Path,
    seconds: f64,
    tracer: Option<&mut measure::Tracer>,
) -> Outcome {
    match workload {
        "mine-sparse" => mine::run(inputs, inputs::SPARSE_MIN_SUP, seconds, tracer),
        "mine-dense" => mine::run(inputs, inputs::DENSE_MIN_SUP, seconds, tracer),
        "serve-read" | "serve-ingest" => serve::run(
            workload,
            inputs,
            work,
            seconds,
            inputs::Scale::FULL.batch,
            tracer,
        ),
        other => panic!("unknown workload {other:?}"),
    }
}

/// One line per metric with its unit, then the run's notes and any
/// wrong answers.
fn report(run: &RunArgs, outcome: &Outcome) {
    println!(
        "workload {} seed {} seconds {} trace {}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    for (name, unit) in spec::END_TO_END.iter().chain(&spec::PER_LAYER) {
        if let Some(value) = outcome.metrics.get(name) {
            println!("{name:<32} {value:>16.3} {unit}");
        }
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for problem in &outcome.problems {
        println!("WRONG: {problem}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plt_serve::json::Json;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("plt-benchmark-{name}-{}", std::process::id()))
    }

    /// Every workload end to end at tiny scale, traced (which runs the
    /// untraced measurement too): answers check out and every metric of
    /// both lists is reported.
    #[test]
    fn every_workload_runs_at_tiny_scale() {
        for workload in spec::WORKLOADS {
            let work = scratch(workload);
            let inputs = work.join("inputs");
            inputs::generate(workload, 3, inputs::Scale::TINY, &inputs);
            let mut tracer = measure::Tracer::new(1_000);
            let outcome = match workload {
                "mine-sparse" => mine::run(&inputs, 0.01, 0.2, Some(&mut tracer)),
                "mine-dense" => mine::run(&inputs, inputs::DENSE_MIN_SUP, 0.2, Some(&mut tracer)),
                _ => serve::run(
                    workload,
                    &inputs,
                    &work,
                    1.0,
                    inputs::Scale::TINY.batch,
                    Some(&mut tracer),
                ),
            };
            std::fs::remove_dir_all(&work).ok();
            assert!(outcome.correct(), "{workload}: {:?}", outcome.problems);
            assert_eq!(outcome.failed, 0, "{workload}");
            for (name, _) in spec::END_TO_END {
                let v = outcome.metrics[name];
                assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
            }
            for traced in [false, true] {
                let v = Json::parse(&outcome.result_json(traced)).expect("result is JSON");
                assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
                let Some(Json::Obj(metrics)) = v.get("metrics") else {
                    panic!("metrics object")
                };
                let want = if traced {
                    spec::PER_LAYER.len()
                } else {
                    spec::END_TO_END.len()
                };
                assert_eq!(metrics.len(), want);
            }
            let layer = |name| outcome.metrics.get(name).copied().unwrap_or(0.0);
            if workload.starts_with("mine") {
                assert!(layer("cond.mine_s") > 0.0 && layer("result.itemsets") > 0.0);
            } else {
                assert!(layer("engine.support.miss_us") > 0.0, "{workload}");
                assert!(layer("snapshot.support_index_us") > 0.0, "{workload}");
            }
            if workload == "serve-ingest" {
                assert!(layer("shard.apply_ms") > 0.0 && layer("store.restart_s") > 0.0);
            }
        }
    }

    /// The names this program reports are exactly the names
    /// `BENCHMARK.json` declares, with the same units.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let spec_json = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec_json
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&spec::END_TO_END));
        assert_eq!(listed("per_layer"), ours(&spec::PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, spec::WORKLOADS);
    }

    #[test]
    fn run_arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let run = parse_run_args(&args(
            "--workload serve-read --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((run.seed, run.seconds, run.trace), (9, 3.0, true));
        assert!(parse_run_args(&args("--workload nope")).is_err());
        assert!(parse_run_args(&args("--trace 2")).is_err());
        assert!(parse_run_args(&args("--seconds 0")).is_err());
        assert!(parse_run_args(&args("--seed")).is_err());
    }
}
