//! Linear Road — placing the classic stream benchmark resiliently.
//!
//! Builds the Linear-Road-flavoured monitoring network (position reports
//! from four expressways feeding tolls, accident detection and account
//! updates), places it with ROD, inspects the plan with the explanation
//! and headroom tools, and rides out rush hour in the simulator.
//!
//! ```sh
//! cargo run --release -p rod --example linear_road_demo
//! ```

use rod::core::explain::explain_plan;
use rod::core::headroom::headroom;
use rod::prelude::*;
use rod::traces::modulate::diurnal;
use rod::workloads::linear_road::{linear_road, LinearRoadConfig};

fn main() {
    let graph = linear_road(&LinearRoadConfig::default());
    let model = LoadModel::derive(&graph).unwrap();
    let cluster = Cluster::homogeneous(3, 1.0);
    println!(
        "Linear Road: {} operators over {} expressways, depth {}",
        graph.num_operators(),
        graph.num_inputs(),
        graph.depth()
    );

    let plan = RodPlanner::new().place(&model, &cluster).unwrap();
    let eval = PlanEvaluator::new(&model, &cluster);
    println!("\n{}", explain_plan(&eval, &plan.allocation));

    // Mean operating point: 55% of capacity.
    let unit = model.total_load(&model.variable_point(&[1.0; 4]));
    let q = 0.55 * cluster.total_capacity() / unit;
    let report = headroom(&eval, &plan.allocation, &[q; 4]).unwrap();
    println!("at {q:.0} reports/s per expressway:");
    for (k, m) in report.per_stream.iter().enumerate() {
        println!("  expressway {k} alone can surge to {m:.2}x");
    }
    println!(
        "  all four together can grow to {:.2}x before {} saturates",
        report.uniform, report.binding_node
    );

    // Rush hour: diurnal swell with staggered peaks per expressway.
    let bins = 120usize;
    let sources: Vec<SourceSpec> = (0..4)
        .map(|k| {
            let envelope = diurnal(bins, bins as f64, 0.45, k as f64 * 1.4);
            SourceSpec::TraceDriven(Trace::constant(q, bins, 1.0).modulated(&envelope))
        })
        .collect();
    let sim = Simulation::new(
        &graph,
        &plan.allocation,
        &cluster,
        sources,
        SimulationConfig {
            horizon: bins as f64,
            warmup: 10.0,
            seed: 8,
            sample_interval: Some(10.0),
            ..SimulationConfig::default()
        },
    )
    .run();
    println!(
        "\nrush hour simulated: max util {:.2}, mean latency {:.2} ms, p99 {:.2} ms",
        sim.max_utilisation(),
        sim.mean_latency().unwrap_or(f64::NAN) * 1e3,
        sim.latencies.quantile(0.99).unwrap_or(f64::NAN) * 1e3
    );
    print!("utilisation over time (node 0):  ");
    for s in &sim.timeline {
        print!("{:.0}% ", s.utilisations[0] * 100.0);
    }
    println!();
}
