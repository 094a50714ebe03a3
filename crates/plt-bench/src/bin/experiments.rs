//! `experiments` — regenerates every paper exhibit and every extended
//! experiment as evaluation-section-style tables.
//!
//! ```text
//! experiments [--exp <id>[,<id>…]] [--full] [--json-out <path>]
//!
//!   ids: t1 f1 f2 f3 f4 f5 x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x13 x14 x15 x16 x17 x18 paper all
//!        (default: paper — the exhibits that come straight from the text)
//!   --full: evaluation-scale workloads instead of the quick ones
//!   --json-out: also write the machine-readable record of the one
//!               x13 or x15..x18 experiment selected to this path
//! ```

use std::fmt::Display;
use std::io::Write;

use plt_bench::experiments::{self, Scale};
use plt_bench::figures;

/// The experiments that write a machine-readable record with `--json-out`.
const RECORDS: [&str; 5] = ["x13", "x15", "x16", "x17", "x18"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden helper mode: X16's idle-connection herd runs in a child
    // process so its sockets draw on a separate fd budget.
    #[cfg(target_os = "linux")]
    if args.first().map(String::as_str) == Some("--x16-herd") {
        let addr = args.get(1).unwrap_or_else(|| usage("missing herd addr"));
        let count: usize = args
            .get(2)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage("missing herd count"));
        experiments::x16_idle_herd_child(addr, count);
    }
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::Quick;
    let mut json_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                i += 1;
                let list = args.get(i).unwrap_or_else(|| usage("missing --exp value"));
                ids.extend(list.split(',').map(str::to_owned));
            }
            "--full" => scale = Scale::Full,
            "--json-out" => {
                i += 1;
                let path = args
                    .get(i)
                    .unwrap_or_else(|| usage("missing --json-out value"));
                json_out = Some(path.clone());
            }
            "--help" | "-h" => {
                usage("");
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if ids.is_empty() {
        ids.push("paper".into());
    }

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut expanded: Vec<String> = Vec::new();
    for id in ids {
        match id.as_str() {
            "paper" => expanded.extend(["t1", "f1", "f2", "f3", "f4", "f5"].map(str::to_owned)),
            "all" => expanded.extend(
                [
                    "t1", "f1", "f2", "f3", "f4", "f5", "x1", "x2", "x3", "x4", "x5", "x6", "x7",
                    "x8", "x9", "x10", "x13", "x14", "x15", "x16", "x17", "x18",
                ]
                .map(str::to_owned),
            ),
            _ => expanded.push(id),
        }
    }

    // Every record goes to the one `--json-out` path, so a second record
    // would silently overwrite the first, and with none the path would
    // silently stay unwritten.
    let records = expanded.iter().filter(|id| RECORDS.contains(&id.as_str()));
    if json_out.is_some() && records.count() != 1 {
        usage("--json-out writes one record: select exactly one of x13, x15..x18");
    }

    for id in expanded {
        run_one(&mut out, &id, scale, json_out.as_deref());
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: experiments [--exp t1|f1..f5|x1..x10|x13..x18|paper|all[,..]] [--full] \
         [--json-out <path>]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn run_one(out: &mut impl Write, id: &str, scale: Scale, json_out: Option<&str>) {
    match id {
        "t1" => {
            writeln!(out, "--- E-T1 (paper Table 1 scan) ---").unwrap();
            writeln!(out, "{}", figures::exp_t1()).unwrap();
        }
        "f1" => {
            writeln!(out, "--- E-F1 (paper Figure 1) ---").unwrap();
            writeln!(out, "{}", figures::exp_f1().1).unwrap();
        }
        "f2" => {
            writeln!(out, "--- E-F2 (paper Figure 2) ---").unwrap();
            writeln!(out, "{}", figures::exp_f2().1).unwrap();
        }
        "f3" => {
            writeln!(out, "--- E-F3 (paper Figure 3) ---").unwrap();
            writeln!(out, "{}", figures::exp_f3().1).unwrap();
        }
        "f4" => {
            writeln!(out, "--- E-F4 (paper Figure 4) ---").unwrap();
            writeln!(out, "{}", figures::exp_f4().1).unwrap();
        }
        "f5" => {
            writeln!(out, "--- E-F5 (paper Figure 5) ---").unwrap();
            writeln!(out, "{}", figures::exp_f5().3).unwrap();
        }
        "x1" => writeln!(out, "{}", experiments::x1_sparse_sweep(scale)).unwrap(),
        "x2" => writeln!(out, "{}", experiments::x2_dense_sweep(scale)).unwrap(),
        "x3" => writeln!(out, "{}", experiments::x3_scalability(scale)).unwrap(),
        "x4" => writeln!(out, "{}", experiments::x4_topdown_crossover(scale)).unwrap(),
        "x5" => writeln!(out, "{}", experiments::x5_parallel(scale)).unwrap(),
        "x6" => writeln!(out, "{}", experiments::x6_compression(scale)).unwrap(),
        "x7" => writeln!(out, "{}", experiments::x7_subset_check(scale)).unwrap(),
        "x8" => writeln!(out, "{}", experiments::x8_construction(scale)).unwrap(),
        "x9" => writeln!(out, "{}", experiments::x9_rank_policy(scale)).unwrap(),
        "x10" => writeln!(out, "{}", experiments::x10_zipf_sweep(scale)).unwrap(),
        "x14" => writeln!(out, "{}", experiments::x14_eclat_bitsets(scale)).unwrap(),
        "x13" => {
            let cells = experiments::x13_incremental_cells(scale);
            let json = || experiments::x13_json(&cells, scale);
            emit(out, experiments::x13_table(&cells), json_out, json);
        }
        "x15" => {
            let cells = experiments::x15_storage_cells(scale);
            let json = || experiments::x15_json(&cells, scale);
            emit(out, experiments::x15_table(&cells), json_out, json);
        }
        "x16" => {
            let cells = experiments::x16_serve_cells(scale);
            let json = || experiments::x16_json(&cells, scale);
            emit(out, experiments::x16_table(&cells), json_out, json);
        }
        "x17" => {
            let cells = experiments::x17_query_cells(scale);
            let json = || experiments::x17_json(&cells, scale);
            emit(out, experiments::x17_table(&cells), json_out, json);
        }
        "x18" => {
            let cells = experiments::x18_approx_cells(scale);
            let json = || experiments::x18_json(&cells, scale);
            emit(out, experiments::x18_table(&cells), json_out, json);
        }
        other => usage(&format!("unknown experiment {other:?}")),
    }
}

/// Prints an experiment's table and, with `--json-out`, writes its
/// machine-readable record to that path (exiting on a write failure).
fn emit(
    out: &mut impl Write,
    table: impl Display,
    json_out: Option<&str>,
    json: impl FnOnce() -> String,
) {
    writeln!(out, "{table}").unwrap();
    if let Some(path) = json_out {
        match plt_bench::write_json_out(path, &json()) {
            Ok(()) => writeln!(out, "wrote {path}").unwrap(),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
}
