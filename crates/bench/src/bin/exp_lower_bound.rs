//! **§6.1 lower-bound extension experiment \[reconstructed\]**.
//!
//! "This general lower bound extension is useful in cases where it is
//! known that the input stream rates are strictly, or likely, larger
//! than a workload point B. Using point B as the lower bound is
//! equivalent to ignoring those workload points that never or seldom
//! happen."
//!
//! Reconstruction: draw random-tree workloads, set `B` to a fraction β of
//! each input's share of the ideal simplex centroid, and compare plain
//! ROD against ROD-with-lower-bound *on the truncated workload set*
//! `{R ≥ B}`: the fraction of ideal-simplex sample points above `B` that
//! each plan sustains. The LB-aware plan should win there (and may lose
//! on the full set — it deliberately sacrifices the never-happening
//! corner near the origin).

use serde::Serialize;

use rod_bench::output::{fmt, print_table, write_json};
use rod_core::allocation::PlanEvaluator;
use rod_core::cluster::Cluster;
use rod_core::load_model::LoadModel;
use rod_core::metrics::make_estimator;
use rod_core::rod::{RodOptions, RodPlanner};
use rod_geom::rng::derive_seed;
use rod_geom::OnlineStats;
use rod_workloads::RandomTreeGenerator;

#[derive(Serialize)]
struct LbPoint {
    beta: f64,
    graph_seed: u64,
    plain_truncated_ratio: f64,
    lb_truncated_ratio: f64,
}

fn main() {
    let exp = rod_bench::output::Experiment::start();
    let inputs = 4;
    let nodes = 4;
    let graphs = 6;
    let betas = [0.0, 0.2, 0.4, 0.6];

    let mut rows = Vec::new();
    let mut payload: Vec<LbPoint> = Vec::new();

    for &beta in &betas {
        let mut plain_stats = OnlineStats::new();
        let mut lb_stats = OnlineStats::new();
        let mut plain_metric = OnlineStats::new();
        let mut lb_metric = OnlineStats::new();
        for g in 0..graphs {
            let seed = derive_seed(600, (g as u64) * 13 + (beta * 100.0) as u64);
            let graph = RandomTreeGenerator::paper_default(inputs, 15).generate(seed);
            let model = LoadModel::derive(&graph).unwrap();
            let cluster = Cluster::homogeneous(nodes, 1.0);
            let ev = PlanEvaluator::new(&model, &cluster);
            let estimator = make_estimator(&model, &cluster, 40_000, seed ^ 1);

            // B: an *asymmetric* bound — the first half of the inputs are
            // known to run at beta × (twice their centroid share of the
            // ideal simplex), the rest can go all the way to zero. A
            // symmetric bound shifts every candidate's LB-distance almost
            // equally and gives the greedy nothing to exploit; asymmetry
            // is where knowing B pays (e.g. one feed with a guaranteed
            // baseline rate).
            let d = model.num_vars();
            let b: Vec<f64> = (0..inputs)
                .map(|k| {
                    if k < inputs / 2 {
                        2.0 * beta * cluster.total_capacity()
                            / (model.total_coeffs()[k] * (d as f64 + 1.0))
                    } else {
                        0.0
                    }
                })
                .collect();
            let b_var = model.variable_point(&b);

            let plain = RodPlanner::new()
                .place(&model, &cluster)
                .unwrap()
                .allocation;
            let lb = RodPlanner::with_options(RodOptions {
                input_lower_bound: Some(b.clone()),
                ..RodOptions::default()
            })
            .place(&model, &cluster)
            .unwrap()
            .allocation;

            // Truncated-set ratio: of the ideal-simplex points with
            // x >= B, what fraction does each plan sustain?
            let batch = estimator.batch();
            let above: Vec<rod_geom::Vector> = (0..batch.num_points())
                .map(|p| batch.point(p))
                .filter(|p| b_var.le(p))
                .collect();
            if above.is_empty() {
                continue;
            }
            let truncated_ratio = |alloc: &rod_core::Allocation| {
                let region = ev.feasible_region(alloc);
                above.iter().filter(|p| region.contains(p)).count() as f64 / above.len() as f64
            };
            let plain_r = truncated_ratio(&plain);
            let lb_r = truncated_ratio(&lb);
            plain_stats.push(plain_r);
            lb_stats.push(lb_r);
            // The greedy's own objective: min distance from B̃ to any
            // normalised node hyperplane.
            let b_norm = rod_geom::Vector::new(
                (0..d)
                    .map(|k| b_var[k] * model.total_coeffs()[k] / cluster.total_capacity())
                    .collect(),
            );
            plain_metric.push(ev.weight_matrix(&plain).min_plane_distance_from(&b_norm));
            lb_metric.push(ev.weight_matrix(&lb).min_plane_distance_from(&b_norm));
            payload.push(LbPoint {
                beta,
                graph_seed: seed,
                plain_truncated_ratio: plain_r,
                lb_truncated_ratio: lb_r,
            });
        }
        rows.push(vec![
            fmt(beta),
            fmt(plain_stats.mean()),
            fmt(lb_stats.mean()),
            fmt(lb_stats.mean() - plain_stats.mean()),
            fmt(plain_metric.mean()),
            fmt(lb_metric.mean()),
        ]);
    }

    print_table(
        "ROD vs ROD+lower-bound on the truncated workload set {R >= B}",
        &[
            "beta",
            "plain ROD",
            "ROD-LB",
            "LB gain",
            "r_B(plain)",
            "r_B(LB)",
        ],
        &rows,
    );
    println!(
        "\nExpected shape: at beta = 0 the two coincide; as beta grows, \
         ROD-LB's advantage\non the truncated set is non-negative and \
         (typically) grows."
    );
    write_json("exp_lower_bound", &payload);
    exp.finish();
}
