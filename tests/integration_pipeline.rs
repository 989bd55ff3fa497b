//! Whole-pipeline integration: traces → workload → linearisation →
//! clustering → ROD (with extensions) → simulation, plus serde
//! round-trips of the public artefacts.

use rod::core::clustering::{ArcCosts, ClusteringSearch};
use rod::core::rod::{RodOptions, RodPlanner};
use rod::prelude::*;

#[test]
fn end_to_end_traffic_pipeline() {
    use rod::workloads::traffic::{traffic_monitoring, TrafficConfig};
    // 1. Workload.
    let graph = traffic_monitoring(&TrafficConfig::default());
    // 2. Model.
    let model = LoadModel::derive(&graph).unwrap();
    assert_eq!(model.num_vars(), graph.num_inputs(), "linear workload");
    // 3. Clustered resilient placement.
    let cluster = Cluster::homogeneous(3, 1.0);
    let best = ClusteringSearch::default()
        .best(&model, &cluster, &ArcCosts::uniform(1e-4))
        .unwrap();
    assert!(best.allocation.is_complete());
    // 4. Drive with synthetic traces at a feasible mean point.
    let unit = model.total_load(&model.variable_point(&[1.0; 3]));
    let q = 0.5 * cluster.total_capacity() / unit;
    let traces: Vec<Trace> = paper_traces(8, 1)
        .into_iter()
        .map(|(_, t)| t.with_mean(q))
        .collect();
    let report = Simulation::new(
        &graph,
        &best.allocation,
        &cluster,
        traces.into_iter().map(SourceSpec::TraceDriven).collect(),
        SimulationConfig {
            horizon: 60.0,
            warmup: 10.0,
            seed: 12,
            ..SimulationConfig::default()
        },
    )
    .run();
    assert!(report.tuples_out > 0);
    assert!(report.mean_latency().is_some());
}

#[test]
fn lower_bound_plans_win_on_truncated_sets() {
    use rod::core::metrics::make_estimator;
    // Average over several graphs: the §6.1 extension must help (or tie)
    // on the workload set it optimises for. The bound is asymmetric —
    // one input has a known high floor, the others none — which is the
    // regime where knowing B has leverage (a symmetric bound shifts all
    // candidate distances nearly equally and changes nothing).
    let inputs = 3;
    let cluster = Cluster::homogeneous(3, 1.0);
    let mut gain_sum = 0.0;
    let graphs = 5;
    for seed in 0..graphs {
        let graph = RandomTreeGenerator::paper_default(inputs, 12).generate(40 + seed);
        let model = LoadModel::derive(&graph).unwrap();
        let ev = PlanEvaluator::new(&model, &cluster);
        let estimator = make_estimator(&model, &cluster, 25_000, seed);
        let d = model.num_vars();
        let b: Vec<f64> = (0..inputs)
            .map(|k| {
                if k == 0 {
                    1.2 * cluster.total_capacity() / (model.total_coeffs()[k] * (d as f64 + 1.0))
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
            input_lower_bound: Some(b),
            ..RodOptions::default()
        })
        .place(&model, &cluster)
        .unwrap()
        .allocation;

        let truncated_ratio = |alloc: &Allocation| {
            let region = ev.feasible_region(alloc);
            let batch = estimator.batch();
            let above: Vec<_> = (0..batch.num_points())
                .map(|p| batch.point(p))
                .filter(|p| b_var.le(p))
                .collect();
            above.iter().filter(|p| region.contains(p)).count() as f64 / above.len().max(1) as f64
        };
        gain_sum += truncated_ratio(&lb) - truncated_ratio(&plain);
    }
    assert!(
        gain_sum / graphs as f64 > -0.02,
        "LB extension lost on its own objective: mean gain {}",
        gain_sum / graphs as f64
    );
}

#[test]
fn nonlinear_pipeline_places_and_simulates() {
    use rod::workloads::joins::{join_pairs, JoinConfig};
    let graph = join_pairs(
        &JoinConfig {
            pairs: 2,
            variable_selectivity_heads: true,
            ..JoinConfig::default()
        },
        6,
    );
    let model = LoadModel::derive(&graph).unwrap();
    assert!(
        model.num_vars() > graph.num_inputs(),
        "introduced variables"
    );
    let cluster = Cluster::homogeneous(3, 1.0);
    let plan = RodPlanner::new().place(&model, &cluster).unwrap();
    assert!(plan.allocation.is_complete());
    let report = Simulation::new(
        &graph,
        &plan.allocation,
        &cluster,
        vec![SourceSpec::ConstantRate(15.0); 4],
        SimulationConfig {
            horizon: 20.0,
            warmup: 4.0,
            seed: 3,
            ..SimulationConfig::default()
        },
    )
    .run();
    assert!(!report.saturated);
}

#[test]
fn public_artefacts_serde_round_trip() {
    let graph = RandomTreeGenerator::paper_default(2, 6).generate(1);
    let model = LoadModel::derive(&graph).unwrap();
    let cluster = Cluster::homogeneous(2, 1.0);
    let plan = RodPlanner::new().place(&model, &cluster).unwrap();

    // Graph round-trip. Rates are compared approximately: JSON float
    // parsing may differ from the original in the last ulp, which
    // compounds through multiplicative propagation.
    let json = serde_json::to_string(&graph).unwrap();
    let graph2: rod::core::QueryGraph = serde_json::from_str(&json).unwrap();
    assert_eq!(graph2.num_operators(), graph.num_operators());
    for (a, b) in graph2
        .propagate_rates(&[2.0, 3.0])
        .iter()
        .zip(graph.propagate_rates(&[2.0, 3.0]))
    {
        assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "{a} vs {b}");
    }

    // Allocation round-trip.
    let json = serde_json::to_string(&plan.allocation).unwrap();
    let alloc2: Allocation = serde_json::from_str(&json).unwrap();
    assert_eq!(alloc2, plan.allocation);

    // Model round-trip preserves the matrix.
    let json = serde_json::to_string(&model).unwrap();
    let model2: LoadModel = serde_json::from_str(&json).unwrap();
    assert_eq!(model2.sparse_lo(), model.sparse_lo());

    // Trace round-trip.
    let trace = Trace::new(vec![1.0, 2.5, 0.0], 0.5);
    let json = serde_json::to_string(&trace).unwrap();
    let trace2: Trace = serde_json::from_str(&json).unwrap();
    assert_eq!(trace2, trace);
}

#[test]
fn clustering_respects_network_cost_knob() {
    // Higher transfer cost ⇒ (weakly) fewer inter-node arcs in the
    // chosen plan.
    let graph = RandomTreeGenerator::paper_default(3, 10).generate(2);
    let model = LoadModel::derive(&graph).unwrap();
    let cluster = Cluster::homogeneous(3, 1.0);
    let ev = PlanEvaluator::new(&model, &cluster);
    let arcs_at = |cost: f64| {
        let best = ClusteringSearch::default()
            .best(&model, &cluster, &ArcCosts::uniform(cost))
            .unwrap();
        ev.internode_arcs(&best.allocation)
    };
    let cheap = arcs_at(1e-6);
    let pricey = arcs_at(5e-3);
    assert!(
        pricey <= cheap,
        "expensive network should not increase crossings: {pricey} > {cheap}"
    );
}
