//! **§6.2 nonlinear-model experiment \[reconstructed\]**.
//!
//! The paper generalises ROD to nonlinear operators by introducing the
//! outputs of joins (and variable-selectivity operators) as fresh rate
//! variables, "cutting a nonlinear query graph into linear pieces" (Fig.
//! 13). This experiment validates the machinery end to end:
//!
//! 1. the Example 3 cut introduces exactly the two variables the paper
//!    names (r₃ and r₄), and the linearised load agrees with the true
//!    nonlinear load at every probed rate point;
//! 2. on windowed-join workloads, ROD on the linearised model still
//!    dominates the §7.2 baselines in feasible-set ratio (measured in
//!    the linearised variable space, where Theorem 1 applies).

use serde::Serialize;

use rod_bench::comparison::{compare_algorithms, ComparisonConfig};
use rod_bench::output::{fmt, print_table, write_json};
use rod_core::cluster::Cluster;
use rod_core::examples_paper::example3_graph;
use rod_core::linearize::VarInfo;
use rod_core::load_model::LoadModel;
use rod_geom::rng::derive_seed;
use rod_workloads::joins::{join_pairs, JoinConfig};

#[derive(Serialize)]
struct NonlinearRow {
    workload: String,
    algorithm: String,
    mean_ratio: f64,
}

fn main() {
    let exp = rod_bench::output::Experiment::start();
    // Part 1: the Example 3 cut.
    let g3 = example3_graph();
    let model3 = LoadModel::derive(&g3).unwrap();
    println!("Example 3 / Figure 13 linearisation:");
    println!("  variables: {}", model3.num_vars());
    for (i, v) in model3.linearization().vars.iter().enumerate() {
        match v {
            VarInfo::SystemInput(k) => println!("    x{i} = rate of system input {k}"),
            VarInfo::Introduced { operator, stream } => println!(
                "    x{i} = output rate of {} (stream {stream}) [introduced]",
                g3.operator(*operator).name
            ),
        }
    }
    let mut worst_err = 0.0f64;
    for probe in [[1.0, 1.0], [3.0, 0.5], [0.2, 4.0], [6.0, 6.0]] {
        let x = model3.variable_point(&probe);
        let lin = model3.total_load(&x);
        let truth: f64 = g3.operator_loads(&probe).iter().sum();
        worst_err = worst_err.max((lin - truth).abs() / truth.max(1e-12));
    }
    println!("  max relative error linearised vs true load: {worst_err:.2e}\n");

    // Part 2: baselines on join workloads.
    let mut rows = Vec::new();
    let mut payload = Vec::new();
    let mut names = Vec::new();
    let workloads = [
        ("joins (2 pairs)", JoinConfig::default()),
        (
            "joins (3 pairs + varsel heads)",
            JoinConfig {
                pairs: 3,
                variable_selectivity_heads: true,
                ..JoinConfig::default()
            },
        ),
    ];
    for (wi, (label, cfg)) in workloads.iter().enumerate() {
        let graph = join_pairs(cfg, derive_seed(620, wi as u64));
        let model = LoadModel::derive(&graph).unwrap();
        let cluster = Cluster::homogeneous(4, 1.0);
        let results = compare_algorithms(
            &model,
            &cluster,
            &ComparisonConfig {
                reps: 8,
                volume_samples: 30_000,
                seed: derive_seed(621, wi as u64),
                ..ComparisonConfig::default()
            },
        );
        names = results.iter().map(|r| r.name.clone()).collect();
        let mut row = vec![label.to_string(), model.num_vars().to_string()];
        for r in &results {
            row.push(fmt(r.mean_ratio));
            payload.push(NonlinearRow {
                workload: label.to_string(),
                algorithm: r.name.clone(),
                mean_ratio: r.mean_ratio,
            });
        }
        rows.push(row);
    }
    let header: Vec<&str> = ["workload", "d'"]
        .into_iter()
        .chain(names.iter().map(String::as_str))
        .collect();
    print_table(
        "Feasible-set ratio (linearised space) on join workloads, n=4",
        &header,
        &rows,
    );
    println!(
        "\nExpected shape: the cut introduces exactly one variable per join \
         (plus one per\nvariable-selectivity head); linearised load is exact; \
         ROD still leads the baselines."
    );
    write_json("exp_nonlinear", &payload);
    exp.finish();
}
