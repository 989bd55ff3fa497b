//! **Ablations of ROD's design choices** — each report measures one
//! choice the paper argues for in prose against its alternatives:
//!
//! 1. Phase 1's descending load-vector norm order (§5) vs ascending norm
//!    and graph order;
//! 2. Phase 2's Class I preference vs always taking the MMPD node;
//! 3. §7.1's quasi-Monte-Carlo volume estimate (Halton, Sobol) vs plain
//!    Monte-Carlo, on Example 2's plan (a), whose exact area is known;
//! 4. node scheduling (FIFO, round-robin, longest-queue-first): the load
//!    model ignores it, latency under bursts does not.
//!
//! Every input is seeded, so the tables and `results/exp_ablations.json`
//! are the same bytes on every run, kernel path and thread count.

use rand::Rng as _;
use serde::Serialize;

use rod_bench::output::{fmt, print_table, write_json};
use rod_core::allocation::PlanEvaluator;
use rod_core::cluster::Cluster;
use rod_core::examples_paper::{example2_plans, figure4_graph};
use rod_core::load_model::LoadModel;
use rod_core::metrics::{feasible_ratio, make_estimator};
use rod_core::rod::{OperatorOrdering, RodOptions, RodPlanner};
use rod_geom::polygon::feasible_area;
use rod_geom::{seeded_rng, SimplexSampler, Vector, VolumeEstimator};
use rod_sim::{SchedulingPolicy, Simulation, SimulationConfig, SourceSpec};
use rod_traces::selfsimilar::BModel;
use rod_workloads::RandomTreeGenerator;

/// Samples of each feasible-set estimate in the two planner ablations.
const VOLUME_SAMPLES: usize = 20_000;

/// One planner ablation: ROD variants scored on the same random trees
/// (`RandomTreeGenerator::paper_default(inputs, ops_per_tree)`), each
/// graph's feasible set estimated with `VOLUME_SAMPLES` Halton points
/// seeded by the graph's index.
#[derive(Serialize)]
struct PlannerAblation {
    inputs: usize,
    ops_per_tree: usize,
    graph_seeds: Vec<u64>,
    nodes: usize,
    volume_samples: usize,
    estimator_seeds: Vec<u64>,
    variants: Vec<PlannerVariant>,
}

#[derive(Serialize)]
struct PlannerVariant {
    variant: String,
    mean_feasible_ratio: f64,
}

#[derive(Serialize)]
struct QmcAblation {
    plan: String,
    nodes: usize,
    exact_area: f64,
    /// Halton and Sobol use estimator seeds `0..runs`; plain MC draws
    /// from `seeded_rng(1000 + run)`.
    runs: u64,
    rows: Vec<QmcRow>,
}

#[derive(Serialize)]
struct QmcRow {
    samples: usize,
    halton_rel_err: f64,
    sobol_rel_err: f64,
    plain_mc_rel_err: f64,
}

/// The scheduling ablation's inputs: one ROD plan of
/// `RandomTreeGenerator::paper_default(inputs, ops_per_tree)`, fed per
/// input by a b-model trace (seed `trace_seed_base + k`) normalised to
/// coefficient of variation `trace_cov` and to the mean rate that loads
/// the cluster to `load_fraction` of its capacity.
#[derive(Serialize)]
struct SchedulingAblation {
    inputs: usize,
    ops_per_tree: usize,
    graph_seed: u64,
    nodes: usize,
    bmodel_bias: f64,
    bmodel_levels: u32,
    trace_seed_base: u64,
    trace_cov: f64,
    load_fraction: f64,
    mean_rate: f64,
    horizon: f64,
    warmup: f64,
    sim_seed: u64,
    rows: Vec<SchedulingRow>,
}

#[derive(Serialize)]
struct SchedulingRow {
    policy: String,
    mean_latency_ms: Option<f64>,
    p99_latency_ms: Option<f64>,
    peak_queue: usize,
}

#[derive(Serialize)]
struct Payload {
    ordering: PlannerAblation,
    classes: PlannerAblation,
    qmc: QmcAblation,
    scheduling: SchedulingAblation,
}

/// Runs ROD with each variant's options on the same random trees and
/// records each variant's mean feasible-set ratio.
fn planner_ablation(
    (inputs, ops_per_tree, nodes): (usize, usize, usize),
    graph_seeds: Vec<u64>,
    variants: Vec<(String, RodOptions)>,
) -> PlannerAblation {
    let cluster = Cluster::homogeneous(nodes, 1.0);
    let variants = variants
        .into_iter()
        .map(|(variant, options)| {
            let planner = RodPlanner::with_options(options);
            let mut sum = 0.0;
            for (g, &seed) in graph_seeds.iter().enumerate() {
                let graph = RandomTreeGenerator::paper_default(inputs, ops_per_tree).generate(seed);
                let model = LoadModel::derive(&graph).unwrap();
                let ev = PlanEvaluator::new(&model, &cluster);
                let estimator = make_estimator(&model, &cluster, VOLUME_SAMPLES, g as u64);
                let plan = planner.place(&model, &cluster).unwrap();
                sum += feasible_ratio(&ev, &estimator, &plan.allocation);
            }
            PlannerVariant {
                variant,
                mean_feasible_ratio: sum / graph_seeds.len() as f64,
            }
        })
        .collect();
    PlannerAblation {
        inputs,
        ops_per_tree,
        estimator_seeds: (0..graph_seeds.len() as u64).collect(),
        graph_seeds,
        nodes,
        volume_samples: VOLUME_SAMPLES,
        variants,
    }
}

fn print_planner(title: &str, header: &str, ablation: &PlannerAblation) {
    let rows: Vec<Vec<String>> = ablation
        .variants
        .iter()
        .map(|v| vec![v.variant.clone(), fmt(v.mean_feasible_ratio)])
        .collect();
    print_table(title, &[header, "mean feasible-set ratio"], &rows);
}

fn ordering() -> PlannerAblation {
    let variants = [
        OperatorOrdering::NormDescending,
        OperatorOrdering::NormAscending,
        OperatorOrdering::ByIndex,
    ]
    .into_iter()
    .map(|ordering| {
        let options = RodOptions {
            ordering,
            ..RodOptions::default()
        };
        (format!("{ordering:?}"), options)
    })
    .collect();
    planner_ablation((5, 16, 5), (0..5).collect(), variants)
}

fn classes() -> PlannerAblation {
    let variants = [("with Class I (full ROD)", true), ("pure MMPD", false)]
        .into_iter()
        .map(|(name, use_class_one)| {
            let options = RodOptions {
                use_class_one,
                ..RodOptions::default()
            };
            (name.to_string(), options)
        })
        .collect();
    planner_ablation((4, 24, 6), (100..106).collect(), variants)
}

fn qmc() -> QmcAblation {
    let model = LoadModel::derive(&figure4_graph()).unwrap();
    let cluster = Cluster::homogeneous(2, 1.0);
    let ev = PlanEvaluator::new(&model, &cluster);
    let [plan_a, _, _] = example2_plans();
    let region = ev.feasible_region(&plan_a);
    let exact = feasible_area(&region.hyperplanes()).unwrap();
    let totals = model.total_coeffs().as_slice();
    let ct = cluster.total_capacity();
    let runs = 10;

    let rows = [1_000usize, 10_000, 100_000]
        .into_iter()
        .map(|samples| {
            // Halton and Sobol (shifted): mean |error| over seeds.
            let mut halton_err = 0.0;
            let mut sobol_err = 0.0;
            for s in 0..runs {
                let est = VolumeEstimator::new(totals, ct, samples, s).estimate(&region);
                halton_err += (est.absolute - exact).abs() / exact;
                let est = VolumeEstimator::with_sobol(totals, ct, samples, s).estimate(&region);
                sobol_err += (est.absolute - exact).abs() / exact;
            }
            // Plain MC with the same budget.
            let sampler = SimplexSampler::new(totals, ct);
            let ideal = rod_geom::simplex_volume(totals, ct);
            let mut mc_err = 0.0;
            for s in 0..runs {
                let mut rng = seeded_rng(1000 + s);
                let mut hits = 0usize;
                for _ in 0..samples {
                    let u = Vector::new(vec![rng.gen::<f64>(), rng.gen::<f64>()]);
                    if region.contains(&sampler.map_cube_point(&u)) {
                        hits += 1;
                    }
                }
                let mc = hits as f64 / samples as f64 * ideal;
                mc_err += (mc - exact).abs() / exact;
            }
            QmcRow {
                samples,
                halton_rel_err: halton_err / runs as f64,
                sobol_rel_err: sobol_err / runs as f64,
                plain_mc_rel_err: mc_err / runs as f64,
            }
        })
        .collect();
    QmcAblation {
        plan: "Example 2 plan (a) on the Figure 4 graph".to_string(),
        nodes: 2,
        exact_area: exact,
        runs,
        rows,
    }
}

fn scheduling() -> SchedulingAblation {
    let (inputs, ops_per_tree, graph_seed, nodes) = (2, 10, 17, 2);
    let (bias, levels, trace_seed_base, cov, load_fraction) = (0.7, 7, 40, 0.35, 0.6);
    let (horizon, warmup, sim_seed) = (128.0, 10.0, 3);
    let graph = RandomTreeGenerator::paper_default(inputs, ops_per_tree).generate(graph_seed);
    let model = LoadModel::derive(&graph).unwrap();
    let cluster = Cluster::homogeneous(nodes, 1.0);
    let alloc = RodPlanner::new()
        .place(&model, &cluster)
        .unwrap()
        .allocation;
    let unit = model.total_load(&model.variable_point(&[1.0, 1.0]));
    let mean_rate = load_fraction * cluster.total_capacity() / unit;
    let traces: Vec<_> = (0..inputs)
        .map(|k| {
            SourceSpec::TraceDriven(
                BModel::new(bias, levels, 1.0, 1.0)
                    .generate(trace_seed_base + k as u64)
                    .normalised()
                    .with_cov(cov)
                    .with_mean(mean_rate),
            )
        })
        .collect();
    let rows = [
        SchedulingPolicy::Fifo,
        SchedulingPolicy::RoundRobin,
        SchedulingPolicy::LongestQueueFirst,
    ]
    .into_iter()
    .map(|policy| {
        let report = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            traces.clone(),
            SimulationConfig {
                horizon,
                warmup,
                seed: sim_seed,
                scheduling: policy,
                ..SimulationConfig::default()
            },
        )
        .run();
        SchedulingRow {
            policy: format!("{policy:?}"),
            mean_latency_ms: report.mean_latency().map(|s| s * 1e3),
            p99_latency_ms: report.latencies.quantile(0.99).map(|s| s * 1e3),
            peak_queue: report.peak_queue,
        }
    })
    .collect();
    SchedulingAblation {
        inputs,
        ops_per_tree,
        graph_seed,
        nodes,
        bmodel_bias: bias,
        bmodel_levels: levels,
        trace_seed_base,
        trace_cov: cov,
        load_fraction,
        mean_rate,
        horizon,
        warmup,
        sim_seed,
        rows,
    }
}

fn main() {
    let exp = rod_bench::output::Experiment::start();

    let ordering = ordering();
    print_planner(
        "Phase-1 ordering ablation: mean over 5 random trees (d=5, 80 ops, 5 nodes)",
        "ordering",
        &ordering,
    );

    let classes = classes();
    print_planner(
        "Class I / Class II ablation: mean over 6 random trees (d=4, 96 ops, 6 nodes)",
        "variant",
        &classes,
    );

    let qmc = qmc();
    let rows: Vec<Vec<String>> = qmc
        .rows
        .iter()
        .map(|r| {
            vec![
                r.samples.to_string(),
                format!("{:.5}", r.halton_rel_err),
                format!("{:.5}", r.sobol_rel_err),
                format!("{:.5}", r.plain_mc_rel_err),
            ]
        })
        .collect();
    print_table(
        "QMC vs MC: mean relative area error over 10 seeds, Example 2 plan (a)",
        &["samples", "Halton", "Sobol", "plain MC"],
        &rows,
    );

    let scheduling = scheduling();
    let ms = |x: Option<f64>| x.map_or_else(|| "-".to_string(), |v| format!("{v:.2}"));
    let rows: Vec<Vec<String>> = scheduling
        .rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                ms(r.mean_latency_ms),
                ms(r.p99_latency_ms),
                r.peak_queue.to_string(),
            ]
        })
        .collect();
    print_table(
        "Scheduling ablation: latency under a bursty trace (2 nodes, 60% load)",
        &[
            "policy",
            "mean latency (ms)",
            "p99 latency (ms)",
            "peak queue",
        ],
        &rows,
    );
    println!(
        "\nExpected shape: descending norm beats both other orders; the \
         Class I preference\nbeats pure MMPD; at equal samples QMC's error \
         is about 3x below plain MC's at 1k\nand about 10x below from 10k \
         on; round-robin has the lowest mean latency and\npeak queue, FIFO \
         the lowest p99."
    );

    write_json(
        "exp_ablations",
        &Payload {
            ordering,
            classes,
            qmc,
            scheduling,
        },
    );
    exp.finish();
}
