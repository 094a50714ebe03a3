//! # plt-cli — `plt-mine`, the command-line front end
//!
//! Frequent-itemset mining over FIMI `.dat` files with every miner in the
//! workspace:
//!
//! ```text
//! plt-mine mine  --input db.dat --min-sup 0.01 [--algo conditional]
//!                [--closed | --maximal] [--limit N]
//! plt-mine rules --input db.dat --min-sup 0.01 --min-conf 0.6 [--top N]
//! plt-mine stats --input db.dat
//! plt-mine show  --input db.dat --min-sup 0.01      # PLT matrices + tree
//! plt-mine gen   --kind quest|dense|basket --transactions N --output db.dat
//! plt-mine serve --input db.dat --min-sup 0.01 [--addr 127.0.0.1:7878]
//! plt-mine query --addr 127.0.0.1:7878 --itemset "1 2" [--top N] [--stats]
//! ```
//!
//! `--min-sup` accepts a fraction in `(0,1)` or an absolute count
//! (`>= 1`). The library half is I/O-parameterised so the test suite can
//! drive every command without touching a real terminal.

pub mod args;
pub mod commands;

pub use args::{Algo, Command, GenKind, ParseError};

use std::io::Write;

/// Parses `argv` (without the program name) and runs the command, writing
/// human-readable output to `out`. This is `main` minus process concerns.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), String> {
    let command = args::parse(argv).map_err(|e| e.to_string())?;
    commands::execute(command, out).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(argv: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&argv, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    fn with_tmp_db(body: impl FnOnce(&str)) {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("plt-cli-test-{}-{id}.dat", std::process::id()));
        let db = "1 2 3\n1 2 3\n1 2 3 4\n1 2 4 5\n2 3 4\n3 4 6\n";
        std::fs::write(&path, db).unwrap();
        body(path.to_str().unwrap());
        std::fs::remove_file(&path).ok();
    }

    /// `Write` sink that a serving thread and the test can share.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn serve_and_query_round_trip() {
        with_tmp_db(|path| {
            // Start `serve` on an ephemeral port in a thread; it blocks
            // until a client sends shutdown.
            let argv: Vec<String> = [
                "serve",
                "--input",
                path,
                "--min-sup",
                "2",
                "--addr",
                "127.0.0.1:0",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let buf = SharedBuf::default();
            let server_buf = buf.clone();
            let server = std::thread::spawn(move || {
                let mut out = server_buf;
                run(&argv, &mut out)
            });

            // The banner line carries the bound address:
            // "serving <path> on 127.0.0.1:<port>: N itemsets, ...".
            let mut addr = None;
            for _ in 0..1000 {
                let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
                if let Some(rest) = text.split(" on ").nth(1) {
                    let (bound, tail) = rest.split_once(": ").expect("banner shape");
                    assert!(tail.contains(" itemsets, "), "{text}");
                    addr = Some(bound.to_string());
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            let addr = addr.expect("server never printed its address");

            // Query it through the client subcommand.
            let out = run_to_string(&[
                "query",
                "--addr",
                &addr,
                "--itemset",
                "1 2 3",
                "--top",
                "3",
                "--stats",
            ])
            .unwrap();
            assert!(out.contains("{1,2,3}  support=3"), "{out}");
            assert!(out.contains("top 3 itemsets:"), "{out}");
            assert!(out.contains("\"ok\":true"), "{out}");

            let out = run_to_string(&["query", "--addr", &addr, "--shutdown"]).unwrap();
            assert!(out.contains("server stopping"), "{out}");
            server.join().unwrap().unwrap();
        });
    }

    #[test]
    fn mine_prints_itemsets() {
        with_tmp_db(|path| {
            let out = run_to_string(&["mine", "--input", path, "--min-sup", "2"]).unwrap();
            assert!(out.contains("13 frequent itemsets"), "{out}");
            assert!(out.contains("{1,2,3}  support=3"), "{out}");
        });
    }

    #[test]
    fn mine_with_each_algorithm_agrees() {
        with_tmp_db(|path| {
            let algos = [
                "conditional",
                "topdown",
                "parallel",
                "apriori",
                "fp-growth",
                "eclat",
                "declat",
                "h-mine",
                "ais",
                "partition",
                "dic",
                "sampling",
            ];
            let reference = run_to_string(&["mine", "--input", path, "--min-sup", "2"]).unwrap();
            let reference: Vec<&str> = reference.lines().skip(1).collect();
            for algo in algos {
                let out =
                    run_to_string(&["mine", "--input", path, "--min-sup", "2", "--algo", algo])
                        .unwrap();
                let lines: Vec<&str> = out.lines().skip(1).collect();
                assert_eq!(lines, reference, "algo {algo}");
            }
        });
    }

    #[test]
    fn relative_and_absolute_support_agree() {
        with_tmp_db(|path| {
            // 6 transactions: ceil(0.333 · 6) = 2 == the absolute run.
            let abs = run_to_string(&["mine", "--input", path, "--min-sup", "2"]).unwrap();
            let rel = run_to_string(&["mine", "--input", path, "--min-sup", "0.333"]).unwrap();
            assert_eq!(abs, rel);
        });
    }

    #[test]
    fn closed_and_maximal_filters() {
        with_tmp_db(|path| {
            let all = run_to_string(&["mine", "--input", path, "--min-sup", "2"]).unwrap();
            let closed =
                run_to_string(&["mine", "--input", path, "--min-sup", "2", "--closed"]).unwrap();
            let maximal =
                run_to_string(&["mine", "--input", path, "--min-sup", "2", "--maximal"]).unwrap();
            let count = |s: &str| s.lines().count();
            assert!(count(&maximal) <= count(&closed));
            assert!(count(&closed) <= count(&all));
            assert!(maximal.contains("maximal"));
        });
    }

    #[test]
    fn rules_meet_confidence() {
        with_tmp_db(|path| {
            let out = run_to_string(&[
                "rules",
                "--input",
                path,
                "--min-sup",
                "2",
                "--min-conf",
                "0.9",
            ])
            .unwrap();
            assert!(out.contains("=>"), "{out}");
            for line in out.lines().filter(|l| l.contains("conf=")) {
                let conf: f64 = line
                    .split("conf=")
                    .nth(1)
                    .unwrap()
                    .split_whitespace()
                    .next()
                    .unwrap()
                    .trim_end_matches([',', ')'])
                    .parse()
                    .unwrap();
                assert!(conf >= 0.9, "{line}");
            }
        });
    }

    #[test]
    fn stats_reports_shape() {
        with_tmp_db(|path| {
            let out = run_to_string(&["stats", "--input", path]).unwrap();
            assert!(out.contains("|D|=6"), "{out}");
            assert!(out.contains("density="));
        });
    }

    #[test]
    fn show_renders_structure() {
        with_tmp_db(|path| {
            let out = run_to_string(&["show", "--input", path, "--min-sup", "2"]).unwrap();
            assert!(out.contains("D_3:"), "{out}");
            assert!(out.contains("(null)"), "{out}");
            assert!(out.contains("compressed"), "{out}");
        });
    }

    #[test]
    fn gen_writes_a_minable_file() {
        let path = std::env::temp_dir().join(format!("plt-cli-gen-{}.dat", std::process::id()));
        let p = path.to_str().unwrap();
        run_to_string(&[
            "gen",
            "--kind",
            "basket",
            "--transactions",
            "200",
            "--output",
            p,
        ])
        .unwrap();
        let mined = run_to_string(&["mine", "--input", p, "--min-sup", "0.05"]).unwrap();
        assert!(mined.contains("frequent itemsets"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(run_to_string(&["mine"]).is_err()); // missing --input
        assert!(run_to_string(&["bogus"]).is_err());
        assert!(run_to_string(&["mine", "--input", "/nonexistent", "--min-sup", "2"]).is_err());
        with_tmp_db(|path| {
            assert!(run_to_string(&["mine", "--input", path, "--min-sup", "0"]).is_err());
            assert!(
                run_to_string(&["mine", "--input", path, "--min-sup", "2", "--algo", "nope"])
                    .is_err()
            );
        });
    }

    #[test]
    fn index_mine_index_and_query_pipeline() {
        with_tmp_db(|path| {
            let idx = format!("{path}.pltc");
            let msg =
                run_to_string(&["index", "--input", path, "--min-sup", "2", "--output", &idx])
                    .unwrap();
            assert!(msg.contains("wrote"), "{msg}");

            // Mining the index equals mining the raw file.
            let from_raw = run_to_string(&["mine", "--input", path, "--min-sup", "2"]).unwrap();
            let from_idx = run_to_string(&["mine-index", "--index", &idx]).unwrap();
            let tail = |s: &str| s.lines().skip(1).map(str::to_owned).collect::<Vec<_>>();
            assert_eq!(tail(&from_raw), tail(&from_idx));

            // Top-down over the index agrees too.
            let td = run_to_string(&["mine-index", "--index", &idx, "--topdown"]).unwrap();
            assert_eq!(tail(&from_raw), tail(&td));

            // Point queries.
            let q = run_to_string(&[
                "query",
                "--index",
                &idx,
                "--itemset",
                "1 2 3",
                "--itemset",
                "6",
            ])
            .unwrap();
            assert!(q.contains("{1,2,3}  support=3"), "{q}");
            assert!(q.contains("{6}  support=0"), "{q}");
            std::fs::remove_file(&idx).ok();
        });
    }

    #[test]
    fn query_rejects_empty_itemset() {
        assert!(run_to_string(&["query", "--index", "x", "--itemset", " "]).is_err());
        assert!(run_to_string(&["query", "--index", "x"]).is_err());
    }

    #[test]
    fn limit_truncates_output() {
        with_tmp_db(|path| {
            let out = run_to_string(&["mine", "--input", path, "--min-sup", "1", "--limit", "3"])
                .unwrap();
            // header + 3 itemsets + truncation notice
            assert_eq!(out.lines().count(), 5, "{out}");
            assert!(out.contains("... ("));
        });
    }
}
