//! Burst resilience — the headline claim, end to end.
//!
//! A flash crowd (§1's "flash-crowds reacting to breaking news") multiplies
//! one input's rate several-fold for a stretch of time. A placement
//! optimised for the average rate point may be infeasible at the spike;
//! ROD's larger feasible set absorbs it without moving any operator.
//!
//! ```sh
//! cargo run --release -p rod --example burst_resilience
//! ```

use rod::core::baselines::{connected::ConnectedPlanner, Planner};
use rod::prelude::*;
use rod::traces::modulate::flash_crowd;
use rod::workloads::RandomTreeGenerator;

fn main() {
    // A random operator-tree workload over two inputs.
    let graph = RandomTreeGenerator::paper_default(2, 15).generate(21);
    let model = LoadModel::derive(&graph).unwrap();
    let cluster = Cluster::homogeneous(2, 1.0);

    // Average operating point: 40% of capacity, evenly split.
    let unit = model.total_load(&model.variable_point(&[1.0, 1.0]));
    let q = 0.4 * cluster.total_capacity() / unit;

    let rod = RodPlanner::new()
        .place(&model, &cluster)
        .unwrap()
        .allocation;
    let connected = ConnectedPlanner::new(vec![q, q])
        .plan(&model, &cluster)
        .unwrap();
    let eval = PlanEvaluator::new(&model, &cluster);

    // How big a spike on input 0 can each placement absorb? Exact, via
    // ray casting against the node hyperplanes.
    let spike = |alloc: &Allocation| {
        rod::core::headroom::headroom(&eval, alloc, &[q, q])
            .unwrap()
            .per_stream[0]
    };
    println!(
        "spike tolerance on input 0 (× mean rate): ROD {:.2}, Connected {:.2}",
        spike(&rod),
        spike(&connected)
    );

    // Now the same story dynamically: a 3.5× flash crowd for ~15 s.
    let bins = 120usize;
    let envelope = flash_crowd(bins, 40, 3.5, 0.95);
    let burst_trace = Trace::constant(q, bins, 1.0).modulated(&envelope);
    let steady_trace = Trace::constant(q, bins, 1.0);

    for (name, alloc) in [("ROD", &rod), ("Connected", &connected)] {
        let report = Simulation::new(
            &graph,
            alloc,
            &cluster,
            vec![
                SourceSpec::TraceDriven(burst_trace.clone()),
                SourceSpec::TraceDriven(steady_trace.clone()),
            ],
            SimulationConfig {
                horizon: bins as f64,
                warmup: 10.0,
                seed: 5,
                max_queue: 300_000,
                ..SimulationConfig::default()
            },
        )
        .run();
        println!(
            "{name:>9}: max util {:.2}, mean latency {:.2} ms, p99 {:.2} ms, saturated: {}",
            report.max_utilisation(),
            report.mean_latency().unwrap_or(f64::NAN) * 1e3,
            report.latencies.quantile(0.99).unwrap_or(f64::NAN) * 1e3,
            report.saturated
        );
    }
    println!(
        "\nNo operator moved in either run — the difference is entirely \
         the static placement's\nfeasible set, which is what ROD maximises."
    );
}
