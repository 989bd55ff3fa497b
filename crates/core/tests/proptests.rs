//! Property-based tests for the core placement machinery, driven by
//! randomly generated (but always-valid) query graphs.

use proptest::prelude::*;

use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::graph::{GraphBuilder, QueryGraph};
use rod_core::ids::{NodeId, OperatorId, StreamId};
use rod_core::load_model::LoadModel;
use rod_core::operator::OperatorKind;
use rod_core::rod::{RodOptions, RodPlanner};
use rod_geom::Matrix;

/// A tiny local stand-in for the rod-workloads tree generator (this
/// crate cannot depend on rod-workloads — that would be a cycle), built
/// on the same GraphBuilder primitives.
mod rod_workloads_free {
    use super::*;
    pub fn generate(inputs: usize, ops_per_tree: usize, seed: u64) -> QueryGraph {
        use rand::Rng as _;
        let mut rng = rod_geom::seeded_rng(seed);
        let mut b = GraphBuilder::new();
        for tree in 0..inputs {
            let mut up = b.add_input();
            for j in 0..ops_per_tree {
                let cost = rng.gen_range(1e-4..1e-3);
                let sel = rng.gen_range(0.5..1.0);
                let (_, s) = b
                    .add_operator(
                        format!("t{tree}_o{j}"),
                        OperatorKind::delay(cost, sel),
                        &[up],
                    )
                    .unwrap();
                up = s;
            }
        }
        b.build().unwrap()
    }
}

/// Strategy: a random valid query graph described by compact choices —
/// number of inputs, then a list of operators each picking its parent
/// stream by index modulo the streams created so far.
#[derive(Clone, Debug)]
struct GraphSpec {
    inputs: usize,
    ops: Vec<(usize, u8, u16, u16)>, // (parent pick, kind pick, cost‰, sel‰)
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (
        1usize..4,
        prop::collection::vec((0usize..100, 0u8..10, 1u16..1000, 1u16..1000), 1..24),
    )
        .prop_map(|(inputs, ops)| GraphSpec { inputs, ops })
}

/// `L^n = A·L^o` rebuilt from scratch out of the dense operator rows —
/// the oracle the incremental evaluation layer is checked against.
fn node_load_matrix(model: &LoadModel, alloc: &Allocation) -> Matrix {
    let mut ln = Matrix::zeros(alloc.num_nodes(), model.num_vars());
    for j in 0..model.num_operators() {
        if let Some(node) = alloc.node_of(OperatorId(j)) {
            let row = model.operator_sparse_row(OperatorId(j)).to_dense();
            for (t, v) in ln.row_mut(node.index()).iter_mut().zip(row) {
                *t += v;
            }
        }
    }
    ln
}

fn build(spec: &GraphSpec) -> QueryGraph {
    let mut b = GraphBuilder::new();
    let mut streams: Vec<StreamId> = (0..spec.inputs).map(|_| b.add_input()).collect();
    for (j, &(parent, kind, cost, sel)) in spec.ops.iter().enumerate() {
        let cost = cost as f64 / 1000.0;
        let sel = sel as f64 / 1000.0;
        let p1 = streams[parent % streams.len()];
        let (_, out) = match kind {
            // Mostly linear single-input operators; occasionally a join
            // or a variable-selectivity operator.
            0..=6 => b
                .add_operator(format!("op{j}"), OperatorKind::delay(cost, sel), &[p1])
                .unwrap(),
            7 | 8 => {
                let p2 = streams[(parent / 7) % streams.len()];
                b.add_operator(
                    format!("op{j}"),
                    OperatorKind::WindowJoin {
                        window: 0.5,
                        cost_per_pair: cost,
                        selectivity_per_pair: sel.max(0.01),
                    },
                    &[p1, p2],
                )
                .unwrap()
            }
            _ => b
                .add_operator(
                    format!("op{j}"),
                    OperatorKind::VariableSelectivity {
                        costs: vec![cost],
                        nominal_selectivities: vec![sel],
                    },
                    &[p1],
                )
                .unwrap(),
        };
        streams.push(out);
    }
    b.build().unwrap()
}

proptest! {
    #[test]
    fn linearised_load_always_matches_truth(spec in graph_spec(),
                                            rates in prop::collection::vec(0.0..20.0f64, 1..4)) {
        let graph = build(&spec);
        prop_assume!(rates.len() >= graph.num_inputs());
        let rates = &rates[..graph.num_inputs()];
        let model = LoadModel::derive(&graph).unwrap();
        let x = model.variable_point(rates);
        let true_loads = graph.operator_loads(rates);
        for (j, truth) in true_loads.iter().enumerate() {
            let row = model.operator_sparse_row(OperatorId(j)).to_dense();
            let lin: f64 = row.iter().zip(x.as_slice()).map(|(l, v)| l * v).sum();
            prop_assert!(
                (lin - truth).abs() <= 1e-9 * (1.0 + truth.abs()),
                "op {j}: linear {lin} vs true {truth}"
            );
        }
    }

    #[test]
    fn rod_places_every_operator_once(spec in graph_spec(), nodes in 1usize..6) {
        let graph = build(&spec);
        let model = LoadModel::derive(&graph).unwrap();
        let cluster = Cluster::homogeneous(nodes, 1.0);
        let plan = RodPlanner::new().place(&model, &cluster).unwrap();
        prop_assert!(plan.allocation.is_complete());
        prop_assert_eq!(
            plan.allocation.node_counts().iter().sum::<usize>(),
            model.num_operators()
        );
        prop_assert_eq!(plan.order.len(), model.num_operators());
    }

    #[test]
    fn column_sums_invariant_under_rod(spec in graph_spec(), nodes in 1usize..5) {
        let graph = build(&spec);
        let model = LoadModel::derive(&graph).unwrap();
        let cluster = Cluster::homogeneous(nodes, 1.0);
        let plan = RodPlanner::new().place(&model, &cluster).unwrap();
        let ln = node_load_matrix(&model, &plan.allocation);
        for k in 0..model.num_vars() {
            let col: f64 = (0..nodes).map(|i| ln[(i, k)]).sum();
            prop_assert!((col - model.total_coeffs()[k]).abs() < 1e-9);
        }
    }

    #[test]
    fn weight_matrix_rows_scale_with_capacity(spec in graph_spec()) {
        // Doubling every capacity halves every weight (w = share / rel
        // capacity is capacity-scale invariant; doubling total AND node
        // capacity leaves relative shares unchanged) — here we check the
        // invariance: homogeneous clusters of any capacity give the same W.
        let graph = build(&spec);
        let model = LoadModel::derive(&graph).unwrap();
        let c1 = Cluster::homogeneous(3, 1.0);
        let c2 = Cluster::homogeneous(3, 8.0);
        let plan = RodPlanner::new().place(&model, &c1).unwrap();
        let w1 = rod_core::allocation::WeightMatrix::new(
            &node_load_matrix(&model, &plan.allocation),
            model.total_coeffs(),
            &c1,
        );
        let w2 = rod_core::allocation::WeightMatrix::new(
            &node_load_matrix(&model, &plan.allocation),
            model.total_coeffs(),
            &c2,
        );
        for i in 0..3 {
            for k in 0..model.num_vars() {
                prop_assert!(
                    (w1.matrix()[(i, k)] - w2.matrix()[(i, k)]).abs() < 1e-9
                );
            }
        }
    }

    #[test]
    fn rod_deterministic(spec in graph_spec(), nodes in 1usize..5) {
        let graph = build(&spec);
        let model = LoadModel::derive(&graph).unwrap();
        let cluster = Cluster::homogeneous(nodes, 1.0);
        let a = RodPlanner::new().place(&model, &cluster).unwrap();
        let b = RodPlanner::new().place(&model, &cluster).unwrap();
        prop_assert_eq!(a.allocation, b.allocation);
    }

    #[test]
    fn lower_bound_never_breaks_placement(spec in graph_spec(),
                                          beta in 0.0..0.9f64) {
        let graph = build(&spec);
        let model = LoadModel::derive(&graph).unwrap();
        let cluster = Cluster::homogeneous(3, 1.0);
        let d = graph.num_inputs();
        let b: Vec<f64> = (0..d).map(|k| beta * (k as f64 + 0.1)).collect();
        let plan = RodPlanner::with_options(RodOptions {
            input_lower_bound: Some(b),
            ..RodOptions::default()
        })
        .place(&model, &cluster)
        .unwrap();
        prop_assert!(plan.allocation.is_complete());
    }

    #[test]
    fn rate_propagation_is_monotone(spec in graph_spec(),
                                    base in prop::collection::vec(0.0..10.0f64, 1..4),
                                    bump in 0.0..5.0f64) {
        // All operators are rate-monotone, so raising any input rate
        // cannot lower any stream rate or operator load.
        let graph = build(&spec);
        prop_assume!(base.len() >= graph.num_inputs());
        let lo_rates = &base[..graph.num_inputs()];
        let mut hi_rates = lo_rates.to_vec();
        hi_rates[0] += bump;
        let lo = graph.propagate_rates(lo_rates);
        let hi = graph.propagate_rates(&hi_rates);
        for (a, b) in lo.iter().zip(&hi) {
            prop_assert!(b + 1e-12 >= *a, "rate dropped: {a} -> {b}");
        }
        let lo_load = graph.operator_loads(lo_rates);
        let hi_load = graph.operator_loads(&hi_rates);
        for (a, b) in lo_load.iter().zip(&hi_load) {
            prop_assert!(b + 1e-12 >= *a, "load dropped: {a} -> {b}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn headroom_boundaries_verify_on_random_linear_graphs(
        inputs in 1usize..4, seed in 0u64..200, nodes in 1usize..4,
    ) {
        use rod_core::allocation::PlanEvaluator;
        use rod_core::headroom::headroom;
        // Linear random trees (the generator guarantees linearity), so
        // the ray-cast boundary must be exact.
        let graph = rod_workloads_free::generate(inputs, 8, seed);
        let model = LoadModel::derive(&graph).unwrap();
        let cluster = Cluster::homogeneous(nodes, 1.0);
        let alloc = RodPlanner::new().place(&model, &cluster).unwrap().allocation;
        let ev = PlanEvaluator::new(&model, &cluster);
        let base: Vec<f64> = (0..inputs).map(|k| 0.5 + k as f64 * 0.3).collect();
        let report = headroom(&ev, &alloc, &base).unwrap();
        prop_assume!(report.uniform.is_finite() && report.uniform > 1.0);
        let inside: Vec<f64> = base.iter().map(|r| r * report.uniform * 0.999).collect();
        let outside: Vec<f64> = base.iter().map(|r| r * report.uniform * 1.001).collect();
        prop_assert!(ev.is_feasible_at(&alloc, &inside));
        prop_assert!(!ev.is_feasible_at(&alloc, &outside));
    }

    #[test]
    fn incremental_eval_matches_from_scratch_rebuild(
        spec in graph_spec(),
        nodes in 1usize..5,
        moves in prop::collection::vec((0usize..64, 0usize..8, 0u8..2), 1..32),
    ) {
        use rod_core::allocation::WeightMatrix;
        use rod_core::eval::IncrementalPlanEval;
        // Drive the incremental evaluator through a random interleaving
        // of assigns and unassigns; after every move its weight rows and
        // plane distances must match a WeightMatrix rebuilt from scratch
        // off the allocation's own node-load matrix.
        let graph = build(&spec);
        let model = LoadModel::derive(&graph).unwrap();
        let cluster = Cluster::homogeneous(nodes, 1.0);
        let mut eval = IncrementalPlanEval::new(&model, &cluster);
        let m = model.num_operators();
        for (op_pick, node_pick, assign) in moves {
            let op = OperatorId(op_pick % m);
            let node = NodeId(node_pick % nodes);
            match (assign == 1, eval.allocation().node_of(op)) {
                (true, None) => {
                    // The committed distance must equal the quoted one.
                    let quote = eval.score_candidate(op, node);
                    eval.assign(op, node);
                    let committed = eval.plane_distance(node);
                    prop_assert!(
                        quote.plane_distance == committed
                            || (quote.plane_distance - committed).abs()
                                <= 1e-9 * (1.0 + committed.abs()),
                        "quote {} vs committed {committed}",
                        quote.plane_distance
                    );
                }
                (false, Some(current)) if current == node => eval.unassign(op, node),
                _ => continue,
            }
            let reference = WeightMatrix::new(
                &node_load_matrix(&model, eval.allocation()),
                model.total_coeffs(),
                &cluster,
            );
            for i in 0..nodes {
                for (k, &got) in eval.weight_row(NodeId(i)).iter().enumerate() {
                    let want = reference.matrix()[(i, k)];
                    prop_assert!(
                        (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
                        "w[{i},{k}]: incremental {got} vs scratch {want}"
                    );
                }
                let want = reference.plane_distance(NodeId(i));
                let got = eval.plane_distance(NodeId(i));
                prop_assert!(
                    got == want || (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
                    "plane[{i}]: incremental {got} vs scratch {want}"
                );
            }
            let want = reference.max_weight();
            let got = eval.max_weight();
            prop_assert!(
                (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
                "max weight: incremental {got} vs scratch {want}"
            );
        }
    }

    #[test]
    fn degenerate_zero_load_graphs_never_poison_planners(
        inputs in 1usize..3,
        ops in prop::collection::vec((0usize..100, 0u16..1000, 0u16..1000), 1..12),
        nodes in 2usize..4,
    ) {
        // Regression guard for the NaN audit: zero-cost operators, zero
        // selectivities, and flat (zero-variance) rate histories used to
        // be able to produce NaN sort keys deep inside the planners and
        // abort via `partial_cmp().expect(...)`. Every planner must now
        // finish with a complete plan on such degenerate instances.
        use rod_core::baselines::connected::ConnectedPlanner;
        use rod_core::baselines::correlation::CorrelationPlanner;
        use rod_core::baselines::llf::LlfPlanner;
        use rod_core::baselines::Planner;
        use rod_core::resilience::{ResilientRodOptions, ResilientRodPlanner};

        let mut b = GraphBuilder::new();
        let mut streams: Vec<StreamId> = (0..inputs).map(|_| b.add_input()).collect();
        for (j, &(parent, cost, sel)) in ops.iter().enumerate() {
            // cost/sel hit exactly 0.0 with probability 1/1000 per draw,
            // and proptest's shrinker drives them there on any failure.
            let cost = cost as f64 / 1000.0;
            let sel = sel as f64 / 1000.0;
            let p = streams[parent % streams.len()];
            let (_, out) = b
                .add_operator(format!("z{j}"), OperatorKind::delay(cost, sel), &[p])
                .unwrap();
            streams.push(out);
        }
        let graph = b.build().unwrap();
        let model = LoadModel::derive(&graph).unwrap();
        let cluster = Cluster::homogeneous(nodes, 1.0);
        let d = graph.num_inputs();

        let zero_rates = vec![0.0; d];
        // Constant histories have zero variance: the correlation
        // coefficient's denominator vanishes, the classic NaN source.
        let flat_history = vec![vec![0.0; d], vec![0.0; d], vec![0.0; d]];
        let planners: Vec<Box<dyn Planner>> = vec![
            Box::new(RodPlanner::new()),
            Box::new(LlfPlanner::new(zero_rates.clone())),
            Box::new(ConnectedPlanner::new(zero_rates)),
            Box::new(CorrelationPlanner::new(flat_history)),
            Box::new(ResilientRodPlanner::with_options(ResilientRodOptions {
                samples: 200,
                seed: 7,
                max_failures: 1,
                max_moves: 2,
                threads: 2,
            })),
        ];
        for planner in &planners {
            let alloc = planner.plan(&model, &cluster);
            prop_assert!(alloc.is_ok(), "{} failed: {:?}", planner.name(), alloc.err());
            prop_assert!(alloc.unwrap().is_complete(), "{} incomplete", planner.name());
        }
    }

    #[test]
    fn parallel_planners_are_bit_identical_across_thread_counts(
        inputs in 1usize..3,
        ops in prop::collection::vec((0usize..100, 1u16..1000, 1u16..1000), 1..6),
        nodes in 2usize..4,
    ) {
        // The pool's ordered-reduction contract, checked end to end on
        // random instances: for the parallel ResilientRod scan, any chunk
        // count must reproduce the serial result exactly — same
        // placement, same worst-case survivor count. (The optimal search
        // is serial; `sparse_equivalence.rs` pins it to an enumeration.)
        use rod_core::resilience::{ResilientRodOptions, ResilientRodPlanner};

        let mut b = GraphBuilder::new();
        let mut streams: Vec<StreamId> = (0..inputs).map(|_| b.add_input()).collect();
        for (j, &(parent, cost, sel)) in ops.iter().enumerate() {
            let cost = cost as f64 / 1000.0;
            let sel = sel as f64 / 1000.0;
            let p = streams[parent % streams.len()];
            let (_, out) = b
                .add_operator(format!("p{j}"), OperatorKind::delay(cost, sel), &[p])
                .unwrap();
            streams.push(out);
        }
        let graph = b.build().unwrap();
        let model = LoadModel::derive(&graph).unwrap();
        let cluster = Cluster::homogeneous(nodes, 1.0);

        let resilient = |threads: usize| {
            ResilientRodPlanner::with_options(ResilientRodOptions {
                samples: 300,
                seed: 11,
                max_failures: 1,
                max_moves: 3,
                threads,
            })
            .place(&model, &cluster)
            .unwrap()
        };
        let serial = resilient(1);
        for threads in [2usize, 4, 7] {
            let pooled = resilient(threads);
            prop_assert_eq!(
                &serial.allocation, &pooled.allocation,
                "ResilientRod placement drifted at threads={}", threads
            );
            prop_assert_eq!(
                serial.worst_alive, pooled.worst_alive,
                "ResilientRod worst-case score drifted at threads={}", threads
            );
        }
    }

    #[test]
    fn clustered_plans_keep_clusters_together(spec in graph_spec(),
                                              transfer in 0.0..2.0f64) {
        use rod_core::clustering::{cluster_operators, place_clustered,
                                   ArcCosts, ClusteringPolicy};
        let graph = build(&spec);
        let model = LoadModel::derive(&graph).unwrap();
        let cluster = Cluster::homogeneous(3, 1.0);
        let clustering = cluster_operators(
            &model,
            &ArcCosts::uniform(transfer),
            ClusteringPolicy::LargestRatio,
            1.0,
            0.6,
        );
        let alloc = place_clustered(&model, &cluster, &clustering).unwrap();
        prop_assert!(alloc.is_complete());
        for c in 0..clustering.num_clusters() {
            let nodes: std::collections::HashSet<NodeId> = clustering
                .members(c)
                .iter()
                .map(|&op| alloc.node_of(op).unwrap())
                .collect();
            prop_assert_eq!(nodes.len(), 1);
        }
    }
}
