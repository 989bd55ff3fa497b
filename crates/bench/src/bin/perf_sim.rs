//! `perf_sim` → `BENCH_sim.json`: the event engine (`rod_sim::batched`,
//! DESIGN.md §12) in exact mode (`batch: None`, the `reference_*`
//! columns) against `BatchConfig::default()` (the `batched_*` columns)
//! on a Poisson map chain or a bursty ON/OFF trace. Every repetition
//! asserts both legs see the same arrivals, neither saturates, and both
//! deliver the same tuples within a horizon-edge tolerance.

use std::time::Instant;

use rod_bench::perf::sim::{Cell as CellResult, Sim};
use rod_bench::perf::{self, median};
use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::graph::{GraphBuilder, QueryGraph};
use rod_core::ids::{NodeId, OperatorId};
use rod_core::operator::OperatorKind;
use rod_sim::{BatchConfig, SimReport, Simulation, SimulationConfig, SourceSpec};
use rod_traces::OnOffAggregate;

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
}

const GRID: &[Cell] = &[
    Cell {
        name: "chain_100k",
        load: Load::Constant { rate: 1e5 },
        horizon: 5.0,
        op_cost: 2e-6,
        quick: true,
    },
    // The acceptance cell: ≥ 1M tuples/s, with a ≥10× floor on
    // batching's advantage over exact mode (`perf::sim::Sim::FLOORS`).
    Cell {
        name: "chain_1m",
        load: Load::Constant { rate: 1e6 },
        horizon: 4.0,
        op_cost: 2e-7,
        quick: true,
    },
    // Bursty self-similar ON/OFF aggregate at 500k mean tuples/s: the
    // §7.3 trace-driven regime, where batches form unevenly.
    Cell {
        name: "onoff_500k",
        load: Load::OnOff { mean: 5e5 },
        horizon: 10.0,
        op_cost: 4e-7,
        quick: false,
    },
];

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
    eprintln!("[perf_sim] {} ...", cell.name);
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
    let ref_s = median(&mut ref_times).expect("at least one repeat");
    let bat_s = median(&mut bat_times).expect("at least one repeat");
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

fn main() {
    perf::main::<Sim>(SEED, 5, |quick, repeats| {
        let cells = GRID.iter().filter(|c| !quick || c.quick);
        cells.map(|cell| run_cell(cell, repeats)).collect()
    });
}
