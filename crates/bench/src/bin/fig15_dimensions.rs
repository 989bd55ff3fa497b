//! **Figure 15** — varying the number of input streams.
//!
//! "We now examine the relative performance of different algorithms for
//! different numbers of dimensions using the simulator. Figure 15 shows
//! the ratio of the feasible set size of the competing approaches to
//! that of ROD … as additional inputs are used, the relative performance
//! of ROD gets increasingly better. … the case with two inputs exhibits
//! a higher ratio than that estimated by the tail, as the relatively few
//! operators per node in this case significantly limits the possible
//! load distribution choices."
//!
//! Setup: fixed operators per tree, d from 2 to 8, five nodes.

use serde::Serialize;

use rod_bench::comparison::{compare_algorithms, mean_per_algorithm, ComparisonConfig};
use rod_bench::output::{fmt, print_table, write_json};
use rod_core::cluster::Cluster;
use rod_core::load_model::LoadModel;
use rod_geom::rng::derive_seed;
use rod_workloads::RandomTreeGenerator;

#[derive(Serialize)]
struct FigurePoint {
    inputs: usize,
    algorithm: String,
    ratio_to_rod: f64,
}

fn main() {
    let exp = rod_bench::output::Experiment::start();
    let ops_per_tree = 16;
    let nodes = 5;
    let graphs_per_dim = 3;
    let dims = [2usize, 3, 4, 5, 6, 7, 8];

    // One pool job per (dimension, graph) pair; the results come back in task
    // order whatever the worker count.
    let tasks: Vec<(usize, usize)> = dims
        .iter()
        .flat_map(|&d| (0..graphs_per_dim).map(move |g| (d, g)))
        .collect();
    let run = |(d, g): (usize, usize)| {
        let graph = RandomTreeGenerator::paper_default(d, ops_per_tree)
            .generate(derive_seed(150, (d * 10 + g) as u64));
        let model = LoadModel::derive(&graph).unwrap();
        let cluster = Cluster::homogeneous(nodes, 1.0);
        let results = compare_algorithms(
            &model,
            &cluster,
            &ComparisonConfig {
                reps: 6,
                volume_samples: 30_000,
                seed: derive_seed(151, (d * 10 + g) as u64),
                ..ComparisonConfig::default()
            },
        );
        (d, results)
    };
    let task_results = rod_pool::global().map_reduce(
        tasks.len(),
        |t| run(tasks[t]),
        Vec::new(),
        |mut all, result| {
            all.push(result);
            all
        },
    );

    let mut rows = Vec::new();
    let mut payload: Vec<FigurePoint> = Vec::new();
    for &d in &dims {
        // Each graph's ratio to its own ROD plan, averaged per algorithm.
        let means = mean_per_algorithm(
            task_results
                .iter()
                .filter(|(td, _)| *td == d)
                .map(|(_, results)| results.as_slice()),
            |r, rod| {
                if rod.mean_ratio > 0.0 {
                    r.mean_ratio / rod.mean_ratio
                } else {
                    0.0
                }
            },
        );
        let mut row = vec![d.to_string()];
        for (name, mean) in means.into_iter().skip(1) {
            row.push(fmt(mean));
            payload.push(FigurePoint {
                inputs: d,
                algorithm: name,
                ratio_to_rod: mean,
            });
        }
        rows.push(row);
    }

    let header: Vec<&str> = std::iter::once("d")
        .chain(task_results[0].1[1..].iter().map(|r| r.name.as_str()))
        .collect();
    print_table(
        "Figure 15: feasible-set ratio A/ROD vs #input streams (16 ops/tree, n=5)",
        &header,
        &rows,
    );
    println!(
        "\nPaper shape: every baseline's ratio to ROD falls as d grows \
         (each extra dimension\nbuys ROD a roughly constant relative \
         improvement); d=2 sits above the trend line."
    );
    write_json("fig15_dimensions", &payload);
    exp.finish();
}
