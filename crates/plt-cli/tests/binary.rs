//! End-to-end tests of the compiled `plt-mine` binary: real process, real
//! argv, real files — the contract a shell user sees.

use std::process::Command;

fn plt_mine() -> Command {
    Command::new(env!("CARGO_BIN_EXE_plt-mine"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("plt-mine-e2e-{}-{name}", std::process::id()))
}

#[test]
fn full_pipeline_gen_stats_index_mine_query() {
    let dat = tmp("db.dat");
    let idx = tmp("db.pltc");

    // gen
    let out = plt_mine()
        .args([
            "gen",
            "--kind",
            "basket",
            "--transactions",
            "400",
            "--output",
            dat.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote"));

    // stats
    let out = plt_mine()
        .args(["stats", "--input", dat.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("|D|=400"));

    // index
    let out = plt_mine()
        .args([
            "index",
            "--input",
            dat.to_str().unwrap(),
            "--min-sup",
            "0.05",
            "--output",
            idx.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // mine from raw and from index must agree line-for-line after headers.
    let raw = plt_mine()
        .args([
            "mine",
            "--input",
            dat.to_str().unwrap(),
            "--min-sup",
            "0.05",
        ])
        .output()
        .unwrap();
    let via_idx = plt_mine()
        .args(["mine-index", "--index", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(raw.status.success() && via_idx.status.success());
    let body = |o: &std::process::Output| {
        String::from_utf8_lossy(&o.stdout)
            .lines()
            .skip(1)
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    assert_eq!(body(&raw), body(&via_idx));

    // query
    let out = plt_mine()
        .args(["query", "--index", idx.to_str().unwrap(), "--itemset", "0"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("support="));

    std::fs::remove_file(&dat).ok();
    std::fs::remove_file(&idx).ok();
}

#[test]
fn mine_metrics_json_emits_schema_v1_and_creates_parent_dirs() {
    let dat = tmp("metrics-db.dat");
    let out = plt_mine()
        .args([
            "gen",
            "--kind",
            "quest",
            "--transactions",
            "200",
            "--seed",
            "11",
            "--output",
            dat.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The metrics path points into a directory that does not exist yet:
    // the CLI must create it rather than fail.
    let dir = tmp("metrics-out");
    let json_path = dir.join("nested").join("metrics.json");
    let out = plt_mine()
        .args([
            "mine",
            "--input",
            dat.to_str().unwrap(),
            "--min-sup",
            "0.02",
            "--limit",
            "0",
            "--metrics-json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let json = std::fs::read_to_string(&json_path).expect("metrics file written");
    for needle in [
        "\"schema_version\": 1",
        "\"context\"",
        "\"input\"",
        "\"algo\": \"conditional\"",
        "\"engine\": \"arena\"",
        "\"num_transactions\": 200",
        "\"wall_ns\"",
        "\"spans\"",
        "construct/rank",
        "construct/encode",
        "mine/conditional",
        "mine/finish",
        "\"counters\"",
        "arena.vectors_folded",
        "arena.mask_levels",
        "arena.subset_sum_finishes",
        "\"gauges\"",
        "arena.bytes_peak",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }

    std::fs::remove_file(&dat).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_exits_nonzero_with_message() {
    let out = plt_mine().args(["mine"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");

    let out = plt_mine().arg("definitely-not-a-command").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = plt_mine()
        .args(["mine", "--input", "/nonexistent/x.dat", "--min-sup", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}
