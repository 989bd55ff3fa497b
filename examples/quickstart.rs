//! Quickstart: build a query network, place it resiliently, inspect the
//! result, and run it in the simulator.
//!
//! ```sh
//! cargo run --release -p rod --example quickstart
//! ```

use rod::prelude::*;

fn main() {
    // 1. A small query network: two input streams feeding four operators
    //    (costs in CPU-seconds per tuple).
    let mut b = GraphBuilder::new();
    let sensors = b.add_input();
    let clicks = b.add_input();
    let (_, clean) = b
        .add_operator("clean", OperatorKind::filter(2e-3, 0.8), &[sensors])
        .unwrap();
    b.add_operator("window_avg", OperatorKind::aggregate(3e-3, 0.1), &[clean])
        .unwrap();
    let (_, sessions) = b
        .add_operator("sessionise", OperatorKind::map(4e-3), &[clicks])
        .unwrap();
    b.add_operator("score", OperatorKind::filter(1e-3, 0.5), &[sessions])
        .unwrap();
    let graph = b.build().unwrap();

    // 2. Derive the linear load model: load(op) = Σ_k l_ok · rate_k.
    let model = LoadModel::derive(&graph).unwrap();
    println!("Load coefficient matrix L^o:");
    for (op, row) in graph.operators().iter().zip(model.sparse_lo().rows()) {
        println!("  {:12} {:?}", op.name, row.to_dense());
    }

    // 3. Place resiliently on two nodes with the ROD algorithm.
    let cluster = Cluster::homogeneous(2, 1.0);
    let plan = RodPlanner::new().place(&model, &cluster).unwrap();
    println!("\nROD placement:");
    for node in cluster.nodes() {
        let names: Vec<&str> = plan
            .allocation
            .operators_on(node)
            .iter()
            .map(|&op| graph.operator(op).name.as_str())
            .collect();
        println!("  {node}: {names:?}");
    }

    // 4. Inspect resiliency: the feasible set and its distance metrics.
    let eval = PlanEvaluator::new(&model, &cluster);
    let w = eval.weight_matrix(&plan.allocation);
    println!(
        "\nmin plane distance (MMPD objective): {:.4}",
        w.min_plane_distance()
    );
    println!(
        "ideal feasible-set volume: {:.4}",
        eval.ideal_volume().unwrap()
    );
    let estimator = VolumeEstimator::new(
        model.total_coeffs().as_slice(),
        cluster.total_capacity(),
        20_000,
        1,
    );
    let est = estimator.estimate(&eval.feasible_region(&plan.allocation));
    println!(
        "achieved feasible-set volume: {:.4} ({:.1}% of ideal)",
        est.absolute,
        est.ratio_to_ideal * 100.0
    );

    // 5. Run the placement in the discrete-event simulator for a minute
    //    of simulated time at a moderate load.
    let report = Simulation::new(
        &graph,
        &plan.allocation,
        &cluster,
        vec![
            SourceSpec::ConstantRate(120.0),
            SourceSpec::ConstantRate(60.0),
        ],
        SimulationConfig {
            horizon: 60.0,
            warmup: 10.0,
            seed: 7,
            ..SimulationConfig::default()
        },
    )
    .run();
    println!("\nSimulated 60 s at (120/s, 60/s):");
    println!("  node utilisations: {:?}", report.utilisations);
    println!(
        "  mean end-to-end latency: {:.2} ms",
        report.mean_latency().unwrap_or(f64::NAN) * 1e3
    );
    println!("  feasible: {}", report.is_feasible(0.97));
}
