//! `perf_planner` → `BENCH_planner.json`: flat and hierarchical ROD
//! planning, the QMC volume estimate three ways (per-point walk, blocked
//! kernel on its scalar loops, runtime-dispatched AVX2 kernel), and the
//! ResilientRod climb with a serial and a pooled neighborhood scan.
//! Every repetition asserts the estimates are bit-equal, the climbs
//! agree, and (tree cells and `sparse_d64_m5k_n64`) the pruned Phase-2
//! scan places exactly like the exhaustive one.

use std::time::Instant;

use rod_bench::perf::planner::{Cell as CellResult, Planner, RESILIENT_THREADS};
use rod_bench::perf::{self, median};
use rod_core::allocation::PlanEvaluator;
use rod_core::cluster::Cluster;
use rod_core::hierarchical::HierarchicalRod;
use rod_core::load_model::LoadModel;
use rod_core::resilience::{ResilientRodOptions, ResilientRodPlanner};
use rod_core::rod::RodPlanner;
use rod_geom::{HaltonSeq, KernelPath, SimplexSampler, Vector, VolumeEstimator};
use rod_workloads::random_graphs::RandomTreeGenerator;
use rod_workloads::sparse_graphs::SparseGraphGenerator;

/// Inputs above which a cell skips the volume-estimation legs. The
/// Halton point set has no dimension cap of its own; the legs keep this
/// one so that no `BENCH_planner.json` column changes between cells
/// with and without estimate timings (`sparse_d64_*` stay null).
const MAX_QMC_INPUTS: usize = 16;

/// Workload seed — fixed so the trajectory tracks code, not instances.
const WORKLOAD_SEED: u64 = 42;

/// QMC seed for the estimators.
const QMC_SEED: u64 = 7;

/// Least wall time each volume-estimation leg runs per repeat: a leg of
/// 0.07–5 ms is called again until this much has passed, so that one
/// scheduler hiccup on a shared host cannot move its time by 2×.
const MIN_LEG_SECONDS: f64 = 0.02;

/// The legs of a repeat take turns in slices at least this long (at
/// least one call each), so a burst of host noise lands on all of them
/// and the speedup ratios divide timings taken in the same host state.
const SLICE_SECONDS: f64 = 0.004;

/// One repeat of the volume-estimation legs: each leg's wall time per
/// call, over at least [`MIN_LEG_SECONDS`] of calls taken in turns with
/// the other legs, and its last call's feasible ratio.
fn timed_legs(legs: &mut [&mut dyn FnMut() -> f64]) -> Vec<(f64, f64)> {
    // (seconds, calls, last ratio) per leg.
    let mut runs = vec![(0.0, 0u32, f64::NAN); legs.len()];
    while runs.iter().any(|&(secs, _, _)| secs < MIN_LEG_SECONDS) {
        for (leg, (secs, calls, last)) in legs.iter_mut().zip(&mut runs) {
            let start = Instant::now();
            loop {
                *last = std::hint::black_box(leg());
                *calls += 1;
                if start.elapsed().as_secs_f64() >= SLICE_SECONDS {
                    break;
                }
            }
            *secs += start.elapsed().as_secs_f64();
        }
    }
    runs.into_iter()
        .map(|(secs, calls, last)| (secs / f64::from(calls), last))
        .collect()
}

#[derive(Clone, Copy)]
enum Workload {
    /// The paper's random trees: `inputs × ops_per_tree` operators, one
    /// nonzero per load row.
    Tree { ops_per_tree: usize },
    /// Sparse many-input graphs ([`SparseGraphGenerator`]): `ops` total
    /// operators, at most 4 nonzeros per load row.
    Sparse { ops: usize },
}

#[derive(Clone, Copy)]
struct Cell {
    name: &'static str,
    inputs: usize,
    workload: Workload,
    nodes: usize,
    samples: usize,
    /// Included in `--quick` runs (must stay a subset of the full grid
    /// with identical parameters, so `--check` can match cells by name).
    quick: bool,
    /// Every repetition re-plans with the exhaustive Phase-2 scan and
    /// requires byte-identical placements: the tree cells, and the
    /// m = 5k sparse cell, where the pruned scan skips most probes. The
    /// m = 50k cell's full scan (~10 s a repeat) is out of budget.
    oracle: bool,
}

const GRID: &[Cell] = &[
    Cell {
        name: "d2_n4",
        inputs: 2,
        workload: Workload::Tree { ops_per_tree: 5 },
        nodes: 4,
        samples: 50_000,
        quick: true,
        oracle: true,
    },
    Cell {
        name: "d4_n8",
        inputs: 4,
        workload: Workload::Tree { ops_per_tree: 5 },
        nodes: 8,
        samples: 50_000,
        quick: false,
        oracle: true,
    },
    Cell {
        name: "d6_n16",
        inputs: 6,
        workload: Workload::Tree { ops_per_tree: 5 },
        nodes: 16,
        samples: 100_000,
        quick: true,
        oracle: true,
    },
    Cell {
        name: "d8_n24",
        inputs: 8,
        workload: Workload::Tree { ops_per_tree: 5 },
        nodes: 24,
        samples: 100_000,
        quick: false,
        oracle: true,
    },
    Cell {
        name: "sparse_d64_m5k_n64",
        inputs: 64,
        workload: Workload::Sparse { ops: 5_000 },
        nodes: 64,
        samples: 20_000,
        quick: false,
        oracle: true,
    },
    Cell {
        name: "sparse_d200_m50k_n1000",
        inputs: 200,
        workload: Workload::Sparse { ops: 50_000 },
        nodes: 1_000,
        samples: 2_000,
        quick: true,
        oracle: false,
    },
];

fn run_cell(cell: &Cell, repeats: usize) -> CellResult {
    eprintln!("[perf_planner] {} ...", cell.name);
    let graph = match cell.workload {
        Workload::Tree { ops_per_tree } => {
            RandomTreeGenerator::paper_default(cell.inputs, ops_per_tree).generate(WORKLOAD_SEED)
        }
        Workload::Sparse { ops } => {
            SparseGraphGenerator::sized(cell.inputs, ops).generate(WORKLOAD_SEED)
        }
    };
    let model = LoadModel::derive(&graph).expect("model derives");
    let cluster = Cluster::homogeneous(cell.nodes, 1.0);
    // The ResilientRod legs run on the tree cells; on the sparse ones
    // they are orders out of budget.
    let resilient = matches!(cell.workload, Workload::Tree { .. });

    let mut plan_times = Vec::with_capacity(repeats);
    let mut hier_times = Vec::with_capacity(repeats);
    let mut alloc = None;
    let mut candidates_scored = 0;
    for _ in 0..repeats {
        let t = Instant::now();
        let plan = RodPlanner::new()
            .place(&model, &cluster)
            .expect("ROD plans");
        plan_times.push(t.elapsed().as_secs_f64());
        if cell.oracle {
            // The full O(m·n) scan must choose byte-identical placements
            // every time.
            let full = RodPlanner::new()
                .with_exhaustive_scan(true)
                .place(&model, &cluster)
                .expect("exhaustive ROD plans");
            assert_eq!(
                plan.allocation, full.allocation,
                "{}: pruned scan diverged from the exhaustive scan",
                cell.name
            );
            assert!(plan.candidates_scored <= full.candidates_scored);
        }
        let t = Instant::now();
        let hier = HierarchicalRod::new()
            .place(&model, &cluster)
            .expect("hierarchical ROD plans");
        hier_times.push(t.elapsed().as_secs_f64());
        assert!(hier.allocation.is_complete());
        candidates_scored = plan.candidates_scored;
        alloc = Some(plan.allocation);
    }
    let alloc = alloc.expect("at least one repeat");

    // Past [`MAX_QMC_INPUTS`] inputs the volume-estimation legs take no
    // samples and their columns are null.
    let mut scalar_times = Vec::with_capacity(repeats);
    let mut kernel_times = Vec::with_capacity(repeats);
    let mut simd_times = Vec::with_capacity(repeats);
    let mut ratio = None;
    if cell.inputs <= MAX_QMC_INPUTS {
        // The per-point walk's row-major copy, one `Vector` a point, built
        // outside the timing through the point-at-a-time API (the
        // estimator holds columns only), and before the estimator, in
        // the allocation order the walk has always been timed in. The
        // bit-equality assert below also checks it against the columns.
        let sampler =
            SimplexSampler::new(model.total_coeffs().as_slice(), cluster.total_capacity());
        let mut seq = HaltonSeq::shifted(cell.inputs, QMC_SEED);
        let points: Vec<Vector> = (0..cell.samples)
            .map(|_| sampler.map_cube_point(&seq.next_point()))
            .collect();
        let estimator = VolumeEstimator::new(
            model.total_coeffs().as_slice(),
            cluster.total_capacity(),
            cell.samples,
            QMC_SEED,
        );
        let region = PlanEvaluator::new(&model, &cluster).feasible_region(&alloc);
        let simd = estimator.kernel_path() == KernelPath::Simd;

        // The per-point walk; the blocked kernel pinned to its scalar
        // loops, so `kernel_speedup` measures blocking alone on every
        // host; the runtime-dispatched kernel (AVX2 here, when selected).
        let mut walk = || {
            let hits = std::hint::black_box(&points)
                .iter()
                .filter(|p| region.contains(p))
                .count();
            hits as f64 / points.len() as f64
        };
        let mut kernel = || estimator.estimate_kernel_scalar(&region).ratio_to_ideal;
        let mut lanes = || estimator.estimate_with_threads(&region, 1).ratio_to_ideal;
        for _ in 0..repeats {
            let mut legs: Vec<&mut dyn FnMut() -> f64> = vec![&mut walk, &mut kernel];
            if simd {
                legs.push(&mut lanes);
            }
            let timed = timed_legs(&mut legs);
            let (scalar_s, scalar_ratio) = timed[0];
            let (kernel_s, kernel_ratio) = timed[1];
            scalar_times.push(scalar_s);
            kernel_times.push(kernel_s);
            assert_eq!(
                scalar_ratio.to_bits(),
                kernel_ratio.to_bits(),
                "{}: batched kernel diverged from the scalar path",
                cell.name
            );
            if let Some(&(simd_s, simd_ratio)) = timed.get(2) {
                simd_times.push(simd_s);
                assert_eq!(
                    kernel_ratio.to_bits(),
                    simd_ratio.to_bits(),
                    "{}: SIMD kernel diverged from the blocked-scalar path",
                    cell.name
                );
            }
            ratio = Some(kernel_ratio);
        }
    }

    // ResilientRod hill climb, serial vs pooled neighborhood scan.
    // Reduced budgets keep the full grid affordable; what matters for
    // the trajectory is the serial/pooled *ratio* on identical work,
    // and the bit-identity assert keeps that work honest. Skipped
    // entirely on the large sparse cells (null columns).
    let mut serial_times = Vec::new();
    let mut pooled_times = Vec::new();
    if resilient {
        let resilient_opts = ResilientRodOptions {
            samples: 1_500,
            seed: 2006,
            max_failures: 1,
            max_moves: 3,
            threads: 1,
        };
        for _ in 0..repeats.min(3) {
            let t = Instant::now();
            let serial = ResilientRodPlanner::with_options(resilient_opts.clone())
                .place(&model, &cluster)
                .expect("ResilientRod plans");
            serial_times.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let pooled = ResilientRodPlanner::with_options(ResilientRodOptions {
                threads: RESILIENT_THREADS,
                ..resilient_opts.clone()
            })
            .place(&model, &cluster)
            .expect("ResilientRod plans");
            pooled_times.push(t.elapsed().as_secs_f64());
            assert_eq!(
                serial.allocation, pooled.allocation,
                "{}: pooled neighborhood scan diverged from serial",
                cell.name
            );
            assert_eq!(
                serial.worst_alive, pooled.worst_alive,
                "{}: pooled worst-case score diverged from serial",
                cell.name
            );
        }
    }

    let speedup = |slow: Option<f64>, fast: Option<f64>| Some(slow? / fast?);
    let scalar_s = median(&mut scalar_times);
    let kernel_s = median(&mut kernel_times);
    let simd_s = median(&mut simd_times);
    let serial_s = median(&mut serial_times);
    let pooled_s = median(&mut pooled_times);
    CellResult {
        name: cell.name.to_string(),
        inputs: cell.inputs,
        ops: model.num_operators(),
        nodes: cell.nodes,
        samples: cell.samples,
        qmc_seed: QMC_SEED,
        nnz: model.nnz(),
        plan_seconds: median(&mut plan_times).expect("at least one repeat"),
        candidates_scored,
        hier_plan_seconds: median(&mut hier_times).expect("at least one repeat"),
        scalar_estimate_seconds: scalar_s,
        kernel_estimate_seconds: kernel_s,
        kernel_speedup: speedup(scalar_s, kernel_s),
        simd_estimate_seconds: simd_s,
        simd_speedup: speedup(kernel_s, simd_s),
        feasible_ratio: ratio,
        threads: resilient.then_some(RESILIENT_THREADS),
        resilient_serial_seconds: serial_s,
        resilient_pooled_seconds: pooled_s,
        resilient_speedup: speedup(serial_s, pooled_s),
    }
}

fn main() {
    perf::main::<Planner>(WORKLOAD_SEED, 7, |quick, repeats| {
        let cells = GRID.iter().filter(|c| !quick || c.quick);
        cells.map(|cell| run_cell(cell, repeats)).collect()
    });
}
