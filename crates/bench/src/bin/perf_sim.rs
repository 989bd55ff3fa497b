//! **Simulator performance trajectory** — times the simulator's event
//! engine (`rod_sim::batched`) in exact mode (`batch: None`, one tuple
//! per batch) against the same engine with `BatchConfig::default()` at
//! production-volume rates, and records the repo's persistent simulator
//! perf baseline.
//!
//! Each grid cell fixes a workload (a map chain at a constant Poisson
//! rate, or a bursty self-similar ON/OFF trace) and runs it in both
//! modes over `repeats` repetitions, keeping median wall times. The
//! `reference_*` columns are the exact-mode leg (the schema-v1 name
//! dates from when a separate per-tuple engine filled them) and the
//! `batched_*` columns the batched leg. The headline column is
//! `batch_speedup` — batched tuples/sec over exact-mode tuples/sec on
//! the same machine, so the number is a machine-relative ratio like
//! `perf_planner`'s speedups and stays comparable across runner
//! hardware.
//!
//! Every repetition cross-checks the two legs: the batched run must see
//! exactly the exact-mode arrival count (identical source RNG draws)
//! and deliver the same tuples within a small horizon-edge tolerance —
//! the perf numbers can never come from a run that dropped work.
//!
//! Results go to `BENCH_sim.json` at the repo root (schema in
//! `docs/benchmarks.md`). Flags, mirroring `perf_planner`:
//!
//! * `--quick` — subset of the grid, fewer repeats (CI smoke mode);
//! * `--out FILE` — write somewhere else (CI writes a scratch copy);
//! * `--check FILE` — compare against a committed baseline and exit
//!   non-zero when any cell's `batch_speedup` regressed by more than 2×,
//!   or fell below the cell's hard floor (the ≥10× acceptance bar on
//!   the 1M-tuples/s cell).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use rod_bench::output::{arg_value, print_table};
use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::graph::{GraphBuilder, QueryGraph};
use rod_core::ids::{NodeId, OperatorId};
use rod_core::operator::OperatorKind;
use rod_sim::{BatchConfig, SimReport, Simulation, SimulationConfig, SourceSpec};
use rod_traces::OnOffAggregate;

/// Schema version of `BENCH_sim.json`; bump on breaking layout changes
/// and teach `--check` the migration.
const SCHEMA_VERSION: u32 = 1;

/// Run seed — fixed so the trajectory tracks code, not instances.
const SEED: u64 = 42;

#[derive(Clone, Copy)]
enum Load {
    /// Constant-rate Poisson arrivals at `rate` tuples/s.
    Constant { rate: f64 },
    /// A self-similar ON/OFF aggregate scaled to `mean` tuples/s.
    OnOff { mean: f64 },
}

#[derive(Clone, Copy)]
struct Cell {
    name: &'static str,
    load: Load,
    horizon: f64,
    /// Per-tuple cost of each chain operator (three operators over two
    /// nodes; sized so the busiest node stays clearly under capacity).
    op_cost: f64,
    /// Included in `--quick` runs (must stay a subset of the full grid
    /// with identical parameters so `--check` can match cells by name).
    quick: bool,
    /// Hard floor on `batch_speedup` under `--check`; zero = ratio-only.
    min_speedup: f64,
}

const GRID: &[Cell] = &[
    Cell {
        name: "chain_100k",
        load: Load::Constant { rate: 1e5 },
        horizon: 5.0,
        op_cost: 2e-6,
        quick: true,
        min_speedup: 0.0,
    },
    // The acceptance cell: ≥ 1M tuples/s with a ≥10× floor on
    // batching's advantage over exact mode.
    Cell {
        name: "chain_1m",
        load: Load::Constant { rate: 1e6 },
        horizon: 4.0,
        op_cost: 2e-7,
        quick: true,
        min_speedup: 10.0,
    },
    // Bursty self-similar ON/OFF aggregate at 500k mean tuples/s: the
    // §7.3 trace-driven regime, where batches form unevenly.
    Cell {
        name: "onoff_500k",
        load: Load::OnOff { mean: 5e5 },
        horizon: 10.0,
        op_cost: 4e-7,
        quick: false,
        min_speedup: 0.0,
    },
];

#[derive(Serialize, Deserialize)]
struct CellResult {
    name: String,
    /// Mean source rate (tuples/s) of the cell's workload.
    rate: f64,
    horizon_seconds: f64,
    /// Source tuples generated within the horizon (identical in both
    /// modes by construction).
    tuples: u64,
    reference_seconds: f64,
    batched_seconds: f64,
    reference_tuples_per_sec: f64,
    batched_tuples_per_sec: f64,
    /// The headline machine-relative ratio: batched over exact mode.
    batch_speedup: f64,
    max_batch: usize,
    bucket_seconds: f64,
}

#[derive(Serialize, Deserialize)]
struct BenchFile {
    schema_version: u32,
    created_unix: u64,
    rustc: String,
    commit: String,
    /// Logical cores of the recording machine (provenance; both legs
    /// are single-threaded, so the ratios do not depend on it).
    cores: usize,
    quick: bool,
    repeats: usize,
    seed: u64,
    grid: Vec<CellResult>,
}

fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn tool_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Three-map chain spread over two nodes — the hot path is the event
/// engine, not operator logic, which is exactly what this bench times.
fn chain(op_cost: f64) -> (QueryGraph, Cluster, Allocation) {
    let mut b = GraphBuilder::new();
    let mut up = b.add_input();
    for j in 0..3 {
        let (_, s) = b
            .add_operator(format!("m{j}"), OperatorKind::map(op_cost), &[up])
            .unwrap();
        up = s;
    }
    let graph = b.build().unwrap();
    let cluster = Cluster::homogeneous(2, 1.0);
    let mut alloc = Allocation::new(3, 2);
    for j in 0..3 {
        alloc.assign(OperatorId(j), NodeId(j % 2));
    }
    (graph, cluster, alloc)
}

fn source(load: Load, horizon: f64) -> SourceSpec {
    match load {
        Load::Constant { rate } => SourceSpec::ConstantRate(rate),
        Load::OnOff { mean } => {
            let bins = horizon.ceil() as usize + 1;
            let trace = OnOffAggregate {
                sources: 6,
                alpha: 1.2,
                min_period: 4.0,
                on_rate: 1.0,
                bins,
                dt: 1.0,
            }
            .generate(11)
            .with_mean(mean);
            SourceSpec::TraceDriven(trace)
        }
    }
}

fn run_once(cell: &Cell, batch: Option<BatchConfig>) -> (SimReport, f64) {
    let (graph, cluster, alloc) = chain(cell.op_cost);
    let sim = Simulation::new(
        &graph,
        &alloc,
        &cluster,
        vec![source(cell.load, cell.horizon)],
        SimulationConfig {
            horizon: cell.horizon,
            warmup: 0.5,
            seed: SEED,
            max_queue: 100_000_000,
            batch,
            ..SimulationConfig::default()
        },
    );
    let t = Instant::now();
    let report = sim.run();
    (report, t.elapsed().as_secs_f64())
}

fn run_cell(cell: &Cell, repeats: usize) -> CellResult {
    let batch = BatchConfig::default();
    let mut ref_times = Vec::with_capacity(repeats);
    let mut bat_times = Vec::with_capacity(repeats);
    let mut tuples = 0u64;
    for _ in 0..repeats {
        let (ref_report, ref_s) = run_once(cell, None);
        let (bat_report, bat_s) = run_once(cell, Some(batch));
        // The perf numbers must come from legs doing the same work.
        assert_eq!(
            ref_report.tuples_in, bat_report.tuples_in,
            "{}: exact and batched legs disagree on the arrival count",
            cell.name
        );
        assert!(!ref_report.saturated && !bat_report.saturated);
        let diff = ref_report.tuples_out.abs_diff(bat_report.tuples_out);
        assert!(
            (diff as f64) < 0.02 * ref_report.tuples_out as f64 + 2.0 * batch.max_batch as f64,
            "{}: tuples_out diverged ({} vs {})",
            cell.name,
            ref_report.tuples_out,
            bat_report.tuples_out
        );
        tuples = ref_report.tuples_in;
        ref_times.push(ref_s);
        bat_times.push(bat_s);
    }
    let ref_s = median(&mut ref_times);
    let bat_s = median(&mut bat_times);
    let rate = match cell.load {
        Load::Constant { rate } => rate,
        Load::OnOff { mean } => mean,
    };
    CellResult {
        name: cell.name.to_string(),
        rate,
        horizon_seconds: cell.horizon,
        tuples,
        reference_seconds: ref_s,
        batched_seconds: bat_s,
        reference_tuples_per_sec: tuples as f64 / ref_s,
        batched_tuples_per_sec: tuples as f64 / bat_s,
        batch_speedup: ref_s / bat_s,
        max_batch: batch.max_batch,
        bucket_seconds: batch.bucket,
    }
}

/// Trimmed view of a baseline cell — only what the checker compares
/// (the vendored serde shim ignores unknown fields, keeping `--check`
/// forward-compatible with later schema additions).
#[derive(Deserialize)]
struct BaselineCell {
    name: String,
    batch_speedup: f64,
}

#[derive(Deserialize)]
struct BaselineFile {
    schema_version: u32,
    grid: Vec<BaselineCell>,
}

/// Compares against a baseline; returns the regressed cell names. A
/// cell regresses when `baseline_speedup / current_speedup > 2.0`, or
/// when the current speedup falls under the cell's hard floor.
fn regressions(current: &BenchFile, baseline_path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {}: {e}", baseline_path.display()));
    let baseline: BaselineFile = serde_json::from_str(&text).expect("baseline parses");
    assert!(
        baseline.schema_version >= 1 && baseline.schema_version <= SCHEMA_VERSION,
        "baseline schema version {} is not supported (expected 1..={SCHEMA_VERSION})",
        baseline.schema_version
    );
    let mut bad = Vec::new();
    for cur in &current.grid {
        if let Some(floor) = GRID
            .iter()
            .find(|c| c.name == cur.name)
            .map(|c| c.min_speedup)
        {
            if floor > 0.0 && cur.batch_speedup < floor {
                bad.push(format!(
                    "{}: batch speedup {:.2}x under the {floor:.0}x floor",
                    cur.name, cur.batch_speedup
                ));
                continue;
            }
        }
        let Some(base) = baseline.grid.iter().find(|b| b.name == cur.name) else {
            continue;
        };
        if base.batch_speedup <= 0.0 || cur.batch_speedup <= 0.0 {
            continue;
        }
        if base.batch_speedup / cur.batch_speedup > 2.0 {
            bad.push(format!(
                "{}: batch speedup {:.2}x vs baseline {:.2}x",
                cur.name, cur.batch_speedup, base.batch_speedup
            ));
        }
    }
    bad
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let repeats = if quick { 3 } else { 5 };
    let out = arg_value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join("BENCH_sim.json"));

    let cells: Vec<&Cell> = GRID.iter().filter(|c| !quick || c.quick).collect();
    let mut grid = Vec::with_capacity(cells.len());
    for cell in cells {
        eprintln!("[perf_sim] {} ...", cell.name);
        grid.push(run_cell(cell, repeats));
    }

    let file = BenchFile {
        schema_version: SCHEMA_VERSION,
        created_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        rustc: tool_line("rustc", &["--version"]),
        commit: tool_line(
            "git",
            &["-C", repo_root().to_str().unwrap(), "rev-parse", "HEAD"],
        ),
        cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
        quick,
        repeats,
        seed: SEED,
        grid,
    };

    let rows: Vec<Vec<String>> = file
        .grid
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                format!("{:.0}k", c.rate / 1e3),
                c.tuples.to_string(),
                format!("{:.3}", c.reference_seconds),
                format!("{:.3}", c.batched_seconds),
                format!("{:.2}M", c.reference_tuples_per_sec / 1e6),
                format!("{:.2}M", c.batched_tuples_per_sec / 1e6),
                format!("{:.1}x", c.batch_speedup),
            ]
        })
        .collect();
    print_table(
        "simulator perf trajectory (medians)",
        &[
            "cell",
            "rate",
            "tuples",
            "exact s",
            "batch s",
            "exact tps",
            "batch tps",
            "speedup",
        ],
        &rows,
    );

    let json = serde_json::to_string_pretty(&file).expect("results serialise");
    std::fs::write(&out, json).expect("write bench file");
    println!("[bench written to {}]", out.display());

    if let Some(baseline) = arg_value("--check") {
        let bad = regressions(&file, Path::new(&baseline));
        if bad.is_empty() {
            println!("[check] no >2x speedup regressions vs {baseline}");
        } else {
            eprintln!("[check] PERF REGRESSION vs {baseline}:");
            for line in &bad {
                eprintln!("  {line}");
            }
            std::process::exit(1);
        }
    }
}
