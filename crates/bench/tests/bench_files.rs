//! The committed `BENCH_*.json` baselines pass their suite's schema
//! check, invariants and floors — the checks `perf_* --check` runs on
//! them — and are byte-for-byte what the harness writes, so `cargo test`
//! validates them without running a grid.

use std::path::Path;

use rod_bench::perf::{self, ctrl::Ctrl, planner::Planner, sim::Sim, Scope, Suite};
use serde::Serialize;

/// The violations `--check` reports for the committed baseline, after
/// asserting the file passes the schema check, is in written form, and
/// has every column the suite gates (a misspelt gate would never fire).
fn committed<S: Suite>() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{}.json", S::NAME));
    let (file, cells) = perf::read::<S>(&path).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        serde_json::to_string_pretty(&file).unwrap(),
        std::fs::read_to_string(&path).unwrap(),
        "{} is not in the form the harness writes",
        path.display()
    );
    let cell = cells[0].to_value();
    let keys: Vec<&str> = cell
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let floored = S::FLOORS.iter().flat_map(|f| match f.scope {
        Scope::Where { column, .. } => vec![f.column, column],
        _ => vec![f.column],
    });
    for column in S::RATIO_GATES.iter().copied().chain(floored) {
        assert!(keys.contains(&column), "{}: no column `{column}`", S::NAME);
    }
    perf::validate::<S>(&file, &cells)
}

#[test]
fn committed_planner_baseline_checks() {
    assert_eq!(committed::<Planner>(), Vec::<String>::new());
}

#[test]
fn committed_sim_baseline_checks() {
    assert_eq!(committed::<Sim>(), Vec::<String>::new());
}

#[test]
fn committed_ctrl_baseline_checks() {
    assert_eq!(committed::<Ctrl>(), Vec::<String>::new());
}
