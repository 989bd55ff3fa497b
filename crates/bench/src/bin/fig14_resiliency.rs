//! **Figure 14** — the base resiliency results.
//!
//! "Figure 14 shows the average feasible set size achieved by each
//! algorithm divided by the ideal feasible set size on query graphs with
//! different numbers of operators" (left panel), and the same ratios
//! normalised by ROD's (right panel). Setup per §7.1/§7.3.1: random
//! operator trees over five input streams, homogeneous nodes, ten runs
//! per randomised algorithm.
//!
//! Expected shape: ROD ≫ Correlation > {LLF, Random} > Connected; all
//! algorithms improve with more operators; ROD approaches the ideal.

use serde::Serialize;

use rod_bench::comparison::{compare_algorithms, mean_per_algorithm, ComparisonConfig};
use rod_bench::output::{fmt, print_table, write_json};
use rod_core::cluster::Cluster;
use rod_core::load_model::LoadModel;
use rod_geom::rng::derive_seed;
use rod_workloads::RandomTreeGenerator;

#[derive(Serialize)]
struct FigurePoint {
    operators: usize,
    algorithm: String,
    ratio_to_ideal: f64,
    ratio_to_rod: f64,
}

fn main() {
    let exp = rod_bench::output::Experiment::start();
    let inputs = 5;
    let nodes = 5;
    let graphs_per_size = 3; // independent random graphs averaged per size
    let operator_counts = [40usize, 80, 120, 160, 200];

    // One pool job per (size, graph) pair; the results come back in task
    // order whatever the worker count.
    let tasks: Vec<(usize, usize)> = operator_counts
        .iter()
        .flat_map(|&m| (0..graphs_per_size).map(move |g| (m, g)))
        .collect();
    let run = |(m, g): (usize, usize)| {
        let graph = RandomTreeGenerator::paper_default(inputs, m / inputs)
            .generate(derive_seed(14, (m * 10 + g) as u64));
        let model = LoadModel::derive(&graph).unwrap();
        let cluster = Cluster::homogeneous(nodes, 1.0);
        let results = compare_algorithms(
            &model,
            &cluster,
            &ComparisonConfig {
                reps: 10,
                volume_samples: 20_000,
                seed: derive_seed(15, (m * 10 + g) as u64),
                ..ComparisonConfig::default()
            },
        );
        (m, results)
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
    let names: Vec<&str> = task_results[0].1.iter().map(|r| r.name.as_str()).collect();

    let mut rows_ideal = Vec::new();
    let mut rows_rod = Vec::new();
    let mut payload: Vec<FigurePoint> = Vec::new();
    for &m in &operator_counts {
        // Average each algorithm over this size's random graphs.
        let means = mean_per_algorithm(
            task_results
                .iter()
                .filter(|(tm, _)| *tm == m)
                .map(|(_, results)| results.as_slice()),
            |r, _| r.mean_ratio,
        );
        let rod_ratio = means[0].1;
        let mut row_i = vec![m.to_string()];
        let mut row_r = vec![m.to_string()];
        for (a, (name, mean)) in means.into_iter().enumerate() {
            row_i.push(fmt(mean));
            if a > 0 {
                row_r.push(fmt(mean / rod_ratio));
            }
            payload.push(FigurePoint {
                operators: m,
                algorithm: name,
                ratio_to_ideal: mean,
                ratio_to_rod: mean / rod_ratio,
            });
        }
        rows_ideal.push(row_i);
        rows_rod.push(row_r);
    }

    let header: Vec<&str> = std::iter::once("ops")
        .chain(names.iter().copied())
        .collect();
    print_table(
        "Figure 14 (left): avg feasible-set ratio A/Ideal vs #operators (d=5, n=5)",
        &header,
        &rows_ideal,
    );
    // Figure-style rendering of the left panel.
    let x_labels: Vec<String> = operator_counts.iter().map(|m| m.to_string()).collect();
    let series: Vec<(&str, Vec<f64>)> = names
        .iter()
        .map(|&name| {
            let ys = operator_counts
                .iter()
                .map(|&m| {
                    payload
                        .iter()
                        .find(|p| p.operators == m && p.algorithm == name)
                        .map_or(0.0, |p| p.ratio_to_ideal)
                })
                .collect();
            (name, ys)
        })
        .collect();
    println!(
        "\n{}",
        rod_bench::plot::line_chart("Figure 14 (left), rendered:", &x_labels, &series, 14)
    );
    let header_rod: Vec<&str> = std::iter::once("ops")
        .chain(names[1..].iter().copied())
        .collect();
    print_table(
        "Figure 14 (right): avg feasible-set ratio A/ROD vs #operators",
        &header_rod,
        &rows_rod,
    );
    println!(
        "\nPaper shape: ROD significantly above all baselines at every size; \
         Connected worst\n(\"a spike in an input rate cannot be shared\"); \
         Correlation the best baseline;\neveryone improves with more \
         operators; ROD approaches the ideal."
    );
    write_json("fig14_resiliency", &payload);
    exp.finish();
}
