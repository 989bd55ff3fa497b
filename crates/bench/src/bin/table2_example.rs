//! **Table 2 + Figures 5 & 6** — the worked Example 2.
//!
//! Regenerates, for the Figure 4 query graph with `c = (4, 6, 9, 4)`,
//! `s₁ = 1`, `s₃ = 0.5` and two unit-capacity nodes:
//!
//! * Table 2's `L^o` and the three plans' `L^n` matrices;
//! * Figure 5's feasible-set *areas*, computed exactly by half-plane
//!   clipping (and cross-checked by QMC);
//! * Figure 6's ideal hyperplane `10 r₁ + 11 r₂ = C_T` and the fact that
//!   no plan achieves the ideal feasible set.

use serde::Serialize;

use rod_bench::output::{fmt, print_table, write_json};
use rod_core::allocation::PlanEvaluator;
use rod_core::cluster::Cluster;
use rod_core::examples_paper::{example2_plans, figure4_graph};
use rod_core::load_model::LoadModel;
use rod_core::metrics::make_estimator;
use rod_core::rod::RodPlanner;
use rod_geom::polygon::feasible_area;

#[derive(Serialize)]
struct PlanRow {
    plan: String,
    ln: Vec<Vec<f64>>,
    exact_area: f64,
    qmc_area: f64,
    ratio_to_ideal: f64,
    min_plane_distance: f64,
}

fn main() {
    let exp = rod_bench::output::Experiment::start();
    let graph = figure4_graph();
    let model = LoadModel::derive(&graph).unwrap();
    let cluster = Cluster::homogeneous(2, 1.0);
    let ev = PlanEvaluator::new(&model, &cluster);
    let estimator = make_estimator(&model, &cluster, 200_000, 7);

    println!("L^o (Table 2):");
    for (j, row) in model.sparse_lo().rows().iter().enumerate() {
        println!("  o{} -> {:?}", j + 1, row.to_dense());
    }
    println!(
        "\nIdeal hyperplane (Figure 6): {} r1 + {} r2 = C_T = {}",
        model.total_coeffs()[0],
        model.total_coeffs()[1],
        cluster.total_capacity()
    );
    let ideal_area = ev.ideal_volume().unwrap();
    println!("Ideal feasible set area V(F*): {}", fmt(ideal_area));

    let plans = example2_plans();
    let labels = ["(a)", "(b)", "(c)"];
    let mut rows = Vec::new();
    let mut payload = Vec::new();
    for (label, alloc) in labels.iter().zip(plans.iter()) {
        let ln = ev.node_load_matrix(alloc);
        let exact = feasible_area(&ev.feasible_region(alloc).hyperplanes()).unwrap();
        let est = estimator.estimate(&ev.feasible_region(alloc));
        let w = ev.weight_matrix(alloc);
        rows.push(vec![
            label.to_string(),
            format!("{:?} {:?}", ln.row(0), ln.row(1)),
            fmt(exact),
            fmt(est.absolute),
            fmt(exact / ideal_area),
            fmt(w.min_plane_distance()),
        ]);
        payload.push(PlanRow {
            plan: label.to_string(),
            ln: vec![ln.row(0).to_vec(), ln.row(1).to_vec()],
            exact_area: exact,
            qmc_area: est.absolute,
            ratio_to_ideal: exact / ideal_area,
            min_plane_distance: w.min_plane_distance(),
        });
    }

    // And what ROD itself chooses on this instance.
    let rod = RodPlanner::new().place(&model, &cluster).unwrap();
    let rod_exact = feasible_area(&ev.feasible_region(&rod.allocation).hyperplanes()).unwrap();
    let rod_w = ev.weight_matrix(&rod.allocation);
    rows.push(vec![
        "ROD".into(),
        format!(
            "{:?} {:?}",
            ev.node_load_matrix(&rod.allocation).row(0),
            ev.node_load_matrix(&rod.allocation).row(1)
        ),
        fmt(rod_exact),
        fmt(estimator
            .estimate(&ev.feasible_region(&rod.allocation))
            .absolute),
        fmt(rod_exact / ideal_area),
        fmt(rod_w.min_plane_distance()),
    ]);

    print_table(
        "Table 2 / Figures 5-6: Example 2 plans",
        &[
            "plan",
            "L^n rows",
            "exact area",
            "QMC area",
            "ratio/ideal",
            "min plane dist",
        ],
        &rows,
    );
    println!(
        "\nPaper: no plan reaches the ideal set (Fig. 6). Exact areas rank \
         (b) > (a) > (c):\nplan (b) separates the heavy operators of the \
         two streams (the Fig. 8 lesson),\nplan (c) (whole chains per node) \
         is worst. ROD should recover plan (b)."
    );
    write_json("table2_example", &payload);
    exp.finish();
}
