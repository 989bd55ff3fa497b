//! **Heterogeneous clusters \[reconstructed\]**.
//!
//! §7.1: "Unless otherwise stated, we assume the system has homogeneous
//! nodes" — implying the machinery (and Theorem 1, which balances load
//! "in proportion to the nodes' CPU capacity") covers heterogeneous
//! clusters too. This experiment verifies that:
//!
//! 1. ROD's advantage over the baselines survives capacity skew;
//! 2. the weight matrix keeps per-node load shares proportional to
//!    `C_i / C_T` (utilisations stay balanced at a common rate point);
//! 3. resiliency degrades gracefully as skew grows at fixed total
//!    capacity (a skewed cluster has an inherently harder integral
//!    packing problem — fewer ways to split streams evenly).

use serde::Serialize;

use rod_bench::comparison::{compare_algorithms, ComparisonConfig};
use rod_bench::output::{fmt, print_table, write_json};
use rod_core::allocation::PlanEvaluator;
use rod_core::cluster::Cluster;
use rod_core::load_model::LoadModel;
use rod_core::rod::RodPlanner;
use rod_geom::rng::derive_seed;
use rod_workloads::RandomTreeGenerator;

#[derive(Serialize)]
struct HeteroRow {
    skew: String,
    algorithm: String,
    mean_ratio: f64,
    utilisation_spread: f64,
}

fn main() {
    let exp = rod_bench::output::Experiment::start();
    let inputs = 4;
    // Four cluster shapes with equal total capacity 4.0.
    let shapes: Vec<(&str, Vec<f64>)> = vec![
        ("1:1:1:1", vec![1.0, 1.0, 1.0, 1.0]),
        ("2:1:0.5:0.5", vec![2.0, 1.0, 0.5, 0.5]),
        ("2.5:1:0.25:0.25", vec![2.5, 1.0, 0.25, 0.25]),
        ("3:0.4:0.3:0.3", vec![3.0, 0.4, 0.3, 0.3]),
    ];

    let graph = RandomTreeGenerator::paper_default(inputs, 20).generate(88);
    let model = LoadModel::derive(&graph).unwrap();

    let mut rows = Vec::new();
    let mut payload = Vec::new();
    let mut names = Vec::new();
    for (label, caps) in &shapes {
        let cluster = Cluster::heterogeneous(caps.clone());
        let results = compare_algorithms(
            &model,
            &cluster,
            &ComparisonConfig {
                reps: 8,
                volume_samples: 25_000,
                seed: derive_seed(900, label.len() as u64),
                ..ComparisonConfig::default()
            },
        );
        // Utilisation spread of the ROD plan at the simplex centroid.
        let ev = PlanEvaluator::new(&model, &cluster);
        let rod = RodPlanner::new()
            .place(&model, &cluster)
            .unwrap()
            .allocation;
        let d = model.num_vars();
        let centroid: Vec<f64> = (0..inputs)
            .map(|k| cluster.total_capacity() / (model.total_coeffs()[k] * (d as f64 + 1.0)))
            .collect();
        let u = ev.utilisations_at(&rod, &centroid);
        let spread = u.max() - u.min();

        names = results.iter().map(|r| r.name.clone()).collect();
        let mut row = vec![label.to_string()];
        for r in &results {
            row.push(fmt(r.mean_ratio));
            payload.push(HeteroRow {
                skew: label.to_string(),
                algorithm: r.name.clone(),
                mean_ratio: r.mean_ratio,
                utilisation_spread: spread,
            });
        }
        row.push(fmt(spread));
        rows.push(row);
    }

    let header: Vec<&str> = std::iter::once("capacities")
        .chain(names.iter().map(String::as_str))
        .chain(["ROD util spread"])
        .collect();
    print_table(
        "Heterogeneous clusters (total capacity fixed at 4.0), d=4, 80 ops",
        &header,
        &rows,
    );
    println!(
        "\nExpected shape: ROD leads every row; everyone degrades as skew \
         grows (harder\ninteger packing at fixed total capacity); ROD's \
         utilisations at the centroid stay\nroughly proportional to \
         capacity (small spread)."
    );
    write_json("exp_heterogeneous", &payload);
    exp.finish();
}
