//! # plt-bench — experiment harness
//!
//! Everything needed to regenerate the paper's exhibits and the extended
//! evaluation of `DESIGN.md`, driven by the `experiments` binary:
//!
//! * [`figures`] — exact reproductions of the paper's Table 1 and
//!   Figures 1–5 (experiments E-T1, E-F1…E-F5), as renderable strings
//!   that the `experiments` binary prints and the integration tests
//!   assert on;
//! * [`datasets`] — the seeded workloads of the X-experiments (Quest
//!   sparse, dense, market baskets, Zipf);
//! * [`experiments`] — each of X1–X10 and X13–X18 as a function
//!   producing a [`Table`]; X13–X18 also expose their raw cells;
//! * [`Table`] — a tiny fixed-width table printer so every experiment
//!   reports "the same rows the paper would";
//! * `record` — the one writer of the machine-readable `BENCH_*.json`
//!   records, stamped with [`bench_meta_json`].

pub mod datasets;
pub mod experiments;
pub mod figures;
mod record;

use std::time::{Duration, Instant};

/// Times a closure over `runs` runs (after one warm-up), reporting the
/// minimum — the stablest point estimate for short CPU-bound workloads.
pub fn time_best<R>(runs: usize, mut f: impl FnMut() -> R) -> (R, Duration) {
    assert!(runs >= 1);
    let mut best = Duration::MAX;
    let mut result = None;
    let _ = f(); // warm-up
    for _ in 0..runs {
        let start = Instant::now();
        let r = f();
        let elapsed = start.elapsed();
        if elapsed < best {
            best = elapsed;
        }
        result = Some(r);
    }
    (result.expect("runs >= 1"), best)
}

/// A fixed-width text table, printed like the tables in an evaluation
/// section.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a caption and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; must match the header arity.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Cell accessor for tests: `(row, col)`.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        writeln!(out, "== {} ==", self.title).unwrap();
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                write!(out, "{cell:>w$}", w = w).unwrap();
            }
            out.push('\n');
        };
        line(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &widths, &mut out);
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Provenance block stamped into every machine-readable benchmark record
/// (`BENCH_*.json`): the commit and toolchain that produced the numbers,
/// the host CPU, and whether the SIMD backend was compiled in and live at
/// run time. Returned as one hand-rolled JSON object (the workspace is
/// dependency-free by design) for `record::Record` to splice in under
/// a `"bench_meta"` key.
pub fn bench_meta_json() -> String {
    format!(
        "{{\"git_commit\": \"{}\", \"rustc\": \"{}\", \"cpu\": \"{}\", \
         \"simd_compiled\": {}, \"simd_available\": {}}}",
        json_escape(&git_commit(".")),
        json_escape(&command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        json_escape(&cpu_model()),
        plt_core::kernels::simd_compiled(),
        plt_core::kernels::simd_available(),
    )
}

/// The checkout's `HEAD` commit, suffixed `-dirty` when tracked files
/// differ from it (numbers from an uncommitted tree must not name the
/// parent commit as their source), or `"unknown"` outside a git
/// checkout (benchmarks may run from an exported tarball).
fn git_commit(repo: &str) -> String {
    let git = |args: &[&str]| command_line("git", &[&["-C", repo][..], args].concat());
    match git(&["rev-parse", "--short=12", "HEAD"]) {
        None => "unknown".into(),
        Some(head) => match git(&["status", "--porcelain", "--untracked-files=no"]) {
            Some(_) => format!("{head}-dirty"),
            None => head,
        },
    }
}

/// A subprocess's trimmed stdout, or `None` if the tool is missing,
/// fails, or prints nothing.
fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The host CPU model from `/proc/cpuinfo`, or `"unknown"` off Linux.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Minimal JSON string escaping (quotes and backslashes) for the
/// strings in `bench_meta` and in records.
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Why a `--json-out` write failed: which step, on which path.
#[derive(Debug)]
pub enum JsonOutError {
    /// Creating the parent directory failed.
    CreateDir {
        dir: std::path::PathBuf,
        source: std::io::Error,
    },
    /// Writing the file itself failed.
    Write {
        path: std::path::PathBuf,
        source: std::io::Error,
    },
}

impl std::fmt::Display for JsonOutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonOutError::CreateDir { dir, source } => {
                write!(f, "cannot create directory {}: {source}", dir.display())
            }
            JsonOutError::Write { path, source } => {
                write!(f, "cannot write {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for JsonOutError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JsonOutError::CreateDir { source, .. } | JsonOutError::Write { source, .. } => {
                Some(source)
            }
        }
    }
}

/// Writes a machine-readable record to `path`, creating missing parent
/// directories. Never panics: unwritable paths come back as a typed
/// [`JsonOutError`] for the caller to report.
pub fn write_json_out(path: &str, json: &str) -> Result<(), JsonOutError> {
    let path = std::path::Path::new(path);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|source| JsonOutError::CreateDir {
                dir: parent.to_path_buf(),
                source,
            })?;
        }
    }
    std::fs::write(path, json).map_err(|source| JsonOutError::Write {
        path: path.to_path_buf(),
        source,
    })
}

/// Thread counts for the X5 scaling sweep: powers of two up to the larger
/// of the host parallelism and 4, so the sweep exercises the machinery
/// even on small hosts (oversubscribed counts are reported as-is).
pub fn thread_sweep() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .max(4);
    let mut counts = vec![1usize];
    let mut t = 2;
    while t <= max {
        counts.push(t);
        t *= 2;
    }
    counts
}

/// Formats a duration in adaptive units for table cells.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["miner", "time"]);
        t.row(vec!["apriori".into(), "12ms".into()]);
        t.row(vec!["plt".into(), "3ms".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("miner"));
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.cell(1, 0), "plt");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_ragged_rows() {
        Table::new("x", &["a", "b"]).row(vec!["1".into()]);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500us");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }

    #[test]
    fn write_json_out_creates_parent_directories() {
        let dir = std::env::temp_dir().join(format!("plt-bench-jsonout-{}", std::process::id()));
        let path = dir.join("a").join("b").join("out.json");
        write_json_out(path.to_str().unwrap(), "{}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_json_out_reports_unwritable_paths_as_typed_errors() {
        // A path whose "parent directory" is a regular file: create_dir_all
        // must fail, and the failure must be the typed CreateDir variant —
        // not a panic.
        let dir = std::env::temp_dir().join(format!("plt-bench-jsonerr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("not-a-dir");
        std::fs::write(&file, "x").unwrap();
        let bad = file.join("deeper").join("out.json");
        let err = write_json_out(bad.to_str().unwrap(), "{}").unwrap_err();
        match &err {
            JsonOutError::CreateDir { dir: d, .. } => {
                assert!(d.starts_with(&file), "wrong dir in error: {}", d.display());
            }
            other => panic!("expected CreateDir, got {other:?}"),
        }
        assert!(err.to_string().contains("cannot create directory"));
        assert!(std::error::Error::source(&err).is_some());

        // Writing *to* a directory fails at the write step.
        let err = write_json_out(dir.to_str().unwrap(), "{}").unwrap_err();
        assert!(matches!(err, JsonOutError::Write { .. }), "{err:?}");
        assert!(err.to_string().contains("cannot write"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_meta_carries_provenance_fields() {
        let meta = bench_meta_json();
        for key in [
            "\"git_commit\"",
            "\"rustc\"",
            "\"cpu\"",
            "\"simd_compiled\"",
            "\"simd_available\"",
        ] {
            assert!(meta.contains(key), "missing {key} in {meta}");
        }
        // The flags must reflect the build: without the `simd` feature
        // both are necessarily false; with it, availability never
        // exceeds compilation.
        assert!(meta.starts_with('{') && meta.trim_end().ends_with('}'));
        if !plt_core::kernels::simd_compiled() {
            assert!(meta.contains("\"simd_compiled\": false"));
            assert!(meta.contains("\"simd_available\": false"));
        }
    }

    #[test]
    fn git_commit_marks_uncommitted_tracked_changes_dirty() {
        let dir = std::env::temp_dir().join(format!("plt-bench-git-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let repo = dir.to_str().unwrap();
        let git = |args: &[&str]| {
            let status = std::process::Command::new("git")
                .args(["-C", repo, "-c", "commit.gpgsign=false"])
                .args(["-c", "user.name=plt", "-c", "user.email=plt@localhost"])
                .args(args)
                .status()
                .expect("git runs");
            assert!(status.success(), "git {args:?}");
        };
        git(&["init", "-q"]);
        std::fs::write(dir.join("tracked"), "a").unwrap();
        git(&["add", "tracked"]);
        git(&["commit", "-q", "-m", "base"]);

        let clean = git_commit(repo);
        assert_eq!(clean.len(), 12, "{clean}");
        // Untracked files do not change what the numbers came from.
        std::fs::write(dir.join("untracked"), "x").unwrap();
        assert_eq!(git_commit(repo), clean);
        std::fs::write(dir.join("tracked"), "b").unwrap();
        assert_eq!(git_commit(repo), format!("{clean}-dirty"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_escape_handles_quotes_and_backslashes() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("plain"), "plain");
    }
}
