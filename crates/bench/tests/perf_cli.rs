//! The perf harness never overwrites the baseline it checks: when the
//! output file (`--out`, or `BENCH_<suite>.json` at the repository root
//! by default) is the `--check` file, the run stops with exit 2 before
//! anything is timed, and the file keeps its bytes.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `perf_sim` with `args` from the repository root, then asserts it
/// exited 2 at once, naming `--out`, with `baseline` byte-identical. A
/// run that did overwrite the file is undone before the test fails.
fn refuses(args: &[&str], baseline: &Path) {
    let before = std::fs::read(baseline).expect("baseline readable");
    let out = Command::new(env!("CARGO_BIN_EXE_perf_sim"))
        .args(args)
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .output()
        .expect("perf_sim runs");
    let after = std::fs::read(baseline).expect("baseline readable");
    if after != before {
        std::fs::write(baseline, &before).expect("baseline restored");
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr:\n{stderr}");
    assert!(stderr.contains("pass --out"), "{args:?}: stderr:\n{stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran the grid");
    assert!(after == before, "{args:?} overwrote {}", baseline.display());
}

#[test]
fn check_without_out_refuses_to_overwrite_the_committed_baseline() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    refuses(
        &["--quick", "--check", "BENCH_sim.json"],
        &root.join("BENCH_sim.json"),
    );
}

#[test]
fn out_equal_to_check_is_refused() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let copy = std::env::temp_dir().join(format!("perf_cli_{}.json", std::process::id()));
    std::fs::copy(root.join("BENCH_sim.json"), &copy).expect("baseline copied");
    let path = copy.to_str().expect("utf-8 temp path");
    refuses(&["--quick", "--out", path, "--check", path], &copy);
    std::fs::remove_file(&copy).ok();
}
