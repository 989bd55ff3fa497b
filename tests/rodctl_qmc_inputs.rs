//! `rodctl`'s QMC-scored subcommands at the process boundary: a graph
//! with more than 16 input streams is scored like any other, and
//! `--samples 0` is rejected with a specific message instead of a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn rodctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rodctl"))
        .args(args)
        .output()
        .expect("rodctl runs")
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rodctl-qmc-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Writes a tree graph with `inputs` input streams and its ROD plan on
/// `nodes` nodes into `dir`; returns their paths.
fn graph_and_plan(dir: &Path, inputs: usize, nodes: usize) -> (String, String) {
    let graph = dir.join("graph.json");
    let plan = dir.join("plan.json");
    let inputs = inputs.to_string();
    let out = rodctl(&[
        "generate",
        "--kind",
        "tree",
        "--inputs",
        &inputs,
        "--ops-per-tree",
        "2",
        "--seed",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(0));
    std::fs::write(&graph, &out.stdout).expect("write graph");
    let (graph, plan) = (graph.display().to_string(), plan.display().to_string());
    let nodes = nodes.to_string();
    let out = rodctl(&["plan", "--graph", &graph, "--nodes", &nodes, "--out", &plan]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    (graph, plan)
}

fn assert_exit(out: &Output, code: i32) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "rodctl panicked:\n{stderr}");
    assert_eq!(out.status.code(), Some(code), "stderr:\n{stderr}");
    stderr
}

/// 17 input streams: one past the Halton sequence's former 16-base
/// table. Every QMC-scored subcommand runs to completion.
#[test]
fn seventeen_input_streams_are_scored() {
    let dir = scratch("d17");
    let (graph, plan) = graph_and_plan(&dir, 17, 3);
    let common = [
        "--graph",
        graph.as_str(),
        "--nodes",
        "3",
        "--samples",
        "2000",
    ];
    let out = rodctl(&[&["evaluate", "--plan", plan.as_str()][..], &common].concat());
    assert_exit(&out, 0);
    assert!(String::from_utf8_lossy(&out.stdout).contains("rate variables: 17"));
    assert_exit(&rodctl(&[&["compare"][..], &common].concat()), 0);
    let out = rodctl(&[&["plan", "--algorithm", "resilient"][..], &common].concat());
    assert_exit(&out, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evaluate_rejects_zero_samples() {
    let dir = scratch("eval0");
    let (graph, plan) = graph_and_plan(&dir, 2, 2);
    let out = rodctl(&[
        "evaluate",
        "--graph",
        &graph,
        "--plan",
        &plan,
        "--nodes",
        "2",
        "--samples",
        "0",
    ]);
    let stderr = assert_exit(&out, 1);
    assert!(stderr.contains("--samples: must be at least 1"), "{stderr}");
    assert!(out.stdout.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_rejects_zero_samples() {
    let dir = scratch("cmp0");
    let (graph, _) = graph_and_plan(&dir, 2, 2);
    let out = rodctl(&[
        "compare",
        "--graph",
        &graph,
        "--nodes",
        "2",
        "--samples",
        "0",
    ]);
    let stderr = assert_exit(&out, 1);
    assert!(stderr.contains("--samples: must be at least 1"), "{stderr}");
    assert!(out.stdout.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
