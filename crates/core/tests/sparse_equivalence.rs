//! Property tests pinning the scaling machinery to its exact-equivalence
//! contracts: the sparse evaluation path must be **bit-identical** to a
//! dense reference, the pruned Phase-2 scan must choose **byte-identical
//! placements** to the exhaustive scan, and a single-rack hierarchical
//! plan must *be* the flat ROD plan. These are the invariants that let
//! the large-instance fast paths ship without a tolerance anywhere.
//!
//! The pruned scan's O(1) and O(nnz) bounds are checked against the
//! probe they stand in for at every (operator, node) pair of churned
//! evaluator states.
//!
//! Survivor re-placement and clustered placement run ROD's shared
//! Phase-2 selector; each is pinned to the private greedy loop it used
//! to carry, kept here as the oracle. Both consumers of the point-mask
//! counter — the survivor scorer's memoised node masks and the optimal
//! planner's branch-and-bound — are pinned to [`fresh_count`], an alive
//! count built here from scratch.

use proptest::prelude::*;

use rod_core::allocation::Allocation;
use rod_core::baselines::optimal::OptimalPlanner;
use rod_core::cluster::{Cluster, Topology};
use rod_core::clustering::{
    cluster_operators, place_clustered, ArcCosts, ClusteringPolicy, OperatorClustering,
};
use rod_core::eval::IncrementalPlanEval;
use rod_core::graph::{GraphBuilder, QueryGraph};
use rod_core::hierarchical::HierarchicalRod;
use rod_core::ids::{NodeId, OperatorId, StreamId};
use rod_core::load_model::LoadModel;
use rod_core::operator::OperatorKind;
use rod_core::resilience::{survivor_moves, FailureScenario, ScenarioScorer};
use rod_core::rod::{RodOptions, RodPlanner};
use rod_geom::{PointBatch, VolumeEstimator};

/// A compact description of a *sparse-regime* random graph: several
/// inputs, operators that are mostly single-input but sometimes union
/// two or three streams — exactly the shape that gives load rows more
/// than one nonzero without densifying them.
#[derive(Clone, Debug)]
struct SparseSpec {
    inputs: usize,
    ops: Vec<(usize, usize, u8, u16, u16)>, // (pick a, pick b, arity, cost‰, sel‰)
}

fn sparse_spec() -> impl Strategy<Value = SparseSpec> {
    sparse_spec_sized(2..6, 1..28)
}

/// [`sparse_spec`] with chosen ranges of inputs and operators.
fn sparse_spec_sized(
    inputs: std::ops::Range<usize>,
    ops: std::ops::Range<usize>,
) -> impl Strategy<Value = SparseSpec> {
    (
        inputs,
        prop::collection::vec(
            (
                0usize..1000,
                0usize..1000,
                1u8..=3,
                1u16..1000,
                500u16..1000,
            ),
            ops,
        ),
    )
        .prop_map(|(inputs, ops)| SparseSpec { inputs, ops })
}

fn build(spec: &SparseSpec) -> QueryGraph {
    let mut b = GraphBuilder::new();
    let mut streams: Vec<StreamId> = (0..spec.inputs).map(|_| b.add_input()).collect();
    for (j, &(pa, pb, arity, cost, sel)) in spec.ops.iter().enumerate() {
        let cost = cost as f64 / 1000.0;
        let sel = sel as f64 / 1000.0;
        let mut inputs = vec![streams[pa % streams.len()]];
        // Unions widen the row's input support; duplicates are skipped so
        // ports stay distinct streams.
        for extra in [pb, pa / 3 + pb / 7] {
            if inputs.len() >= arity as usize {
                break;
            }
            let s = streams[extra % streams.len()];
            if !inputs.contains(&s) {
                inputs.push(s);
            }
        }
        let n = inputs.len();
        let (_, out) = b
            .add_operator(
                format!("op{j}"),
                OperatorKind::Linear {
                    costs: vec![cost; n],
                    selectivities: vec![sel; n],
                },
                &inputs,
            )
            .unwrap();
        streams.push(out);
    }
    b.build().unwrap()
}

/// The dense reference for one node's plane distance: a full ascending-k
/// loop over the weight row, squaring and accumulating every column —
/// including the exact zeros the sparse path skips. Skipping an exact
/// IEEE-754 zero in `acc + w*w` leaves `acc` bit-identical, which is the
/// whole sparse contract; this function is the executable statement of
/// the dense side.
fn dense_plane_distance(row: &[f64]) -> f64 {
    let mut sumsq = 0.0f64;
    for &w in row {
        sumsq += w * w;
    }
    if sumsq == 0.0 {
        f64::INFINITY
    } else {
        1.0 / sumsq.sqrt()
    }
}

/// The cluster shapes the selector proptests sweep: homogeneous, and
/// heterogeneous with a dominant node.
fn cluster_for(pick: usize) -> Cluster {
    match pick {
        0 => Cluster::homogeneous(4, 1.0),
        1 => Cluster::homogeneous(5, 2.0),
        _ => Cluster::heterogeneous(vec![3.0, 1.0, 0.5, 2.0]),
    }
}

/// [`cluster_for`]'s shapes, then `nodes`-node homogeneous and
/// heterogeneous clusters, where the pruned scan has nodes to skip: four
/// capacity classes in turn, and three in an irregular interleave, so
/// that the unloaded nodes of every class sit between those of others.
fn wide_cluster_for(pick: usize, nodes: usize) -> Cluster {
    match pick {
        0..=2 => cluster_for(pick),
        3 => Cluster::homogeneous(nodes, 1.0),
        4 => Cluster::heterogeneous((0..nodes).map(|i| [3.0, 1.0, 0.5, 2.0][i % 4]).collect()),
        _ => Cluster::heterogeneous(
            (0..nodes)
                .map(|i| [1.0, 2.0, 0.5][(i * 7 + i / 3) % 3])
                .collect(),
        ),
    }
}

/// Survivor re-placement as written before it ran ROD's Phase-2
/// selector: every survivor scored, Class I before Class II, the largest
/// candidate plane distance within a class, ties within `1e-15` to the
/// lowest index.
fn survivor_moves_oracle(
    model: &LoadModel,
    cluster: &Cluster,
    alloc: &Allocation,
    scenario: &FailureScenario,
) -> Vec<(OperatorId, NodeId)> {
    let mut eval = IncrementalPlanEval::from_allocation(model, cluster, alloc);
    let mut orphans: Vec<OperatorId> = Vec::new();
    for j in 0..model.num_operators() {
        let op = OperatorId(j);
        if let Some(host) = alloc.node_of(op) {
            if scenario.kills(host) {
                eval.unassign(op, host);
                orphans.push(op);
            }
        }
    }
    orphans.sort_by(|&a, &b| {
        model
            .operator_norm(b)
            .total_cmp(&model.operator_norm(a))
            .then(a.cmp(&b))
    });
    let survivors = scenario.survivors(cluster.num_nodes());
    let mut moves = Vec::with_capacity(orphans.len());
    for op in orphans {
        let mut best: Option<(NodeId, f64, bool)> = None;
        for &node in &survivors {
            let score = eval.score_candidate(op, node);
            let better = match best {
                None => true,
                Some((_, best_dist, best_class_one)) => {
                    (score.class_one && !best_class_one)
                        || (score.class_one == best_class_one
                            && score.plane_distance > best_dist + 1e-15)
                }
            };
            if better {
                best = Some((node, score.plane_distance, score.class_one));
            }
        }
        let (dest, _, _) = best.expect("scenario leaves at least one survivor");
        eval.assign(op, dest);
        moves.push((op, dest));
    }
    moves
}

/// Clustered placement as written before it ran ROD's shared greedy:
/// dense super-rows and a dense O(n·d) scan per step — with ROD's
/// first-maximum tie-break (a later node must win by more than `1e-15`)
/// where the old loop's `Iterator::max_by` took the last maximum.
fn place_clustered_reference(
    model: &LoadModel,
    cluster: &Cluster,
    clustering: &OperatorClustering,
) -> Allocation {
    let d = model.num_vars();
    let nc = clustering.num_clusters();
    let mut rows: Vec<Vec<f64>> = vec![vec![0.0; d]; nc];
    for (c, row) in rows.iter_mut().enumerate() {
        for &op in clustering.members(c) {
            for (k, v) in model.operator_sparse_row(op).iter() {
                row[k] += v;
            }
        }
    }
    let n = cluster.num_nodes();
    let ct = cluster.total_capacity();
    let totals = model.total_coeffs();
    let mut order: Vec<usize> = (0..nc).collect();
    let norm = |row: &[f64]| row.iter().map(|v| v * v).sum::<f64>().sqrt();
    order.sort_by(|&a, &b| norm(&rows[b]).total_cmp(&norm(&rows[a])).then(a.cmp(&b)));

    let mut ln = vec![0.0; n * d];
    let mut destination = vec![0usize; nc];
    for &c in &order {
        let mut class_one: Vec<usize> = Vec::new();
        let mut w = vec![0.0; n * d];
        for i in 0..n {
            let rel = cluster.capacity(NodeId(i)) / ct;
            let mut ok = true;
            for k in 0..d {
                let lk = totals[k];
                let wv = if lk > 0.0 {
                    ((ln[i * d + k] + rows[c][k]) / lk) / rel
                } else {
                    0.0
                };
                w[i * d + k] = wv;
                if wv > 1.0 + 1e-12 {
                    ok = false;
                }
            }
            if ok {
                class_one.push(i);
            }
        }
        let dist = |i: usize| -> f64 {
            let nrm = w[i * d..(i + 1) * d]
                .iter()
                .map(|v| v * v)
                .sum::<f64>()
                .sqrt();
            if nrm == 0.0 {
                f64::INFINITY
            } else {
                1.0 / nrm
            }
        };
        let pool: Vec<usize> = if class_one.is_empty() {
            (0..n).collect()
        } else {
            class_one
        };
        let mut dest = pool[0];
        for &i in &pool[1..] {
            if dist(i) > dist(dest) + 1e-15 {
                dest = i;
            }
        }
        destination[c] = dest;
        for k in 0..d {
            ln[dest * d + k] += rows[c][k];
        }
    }
    let mut alloc = Allocation::new(model.num_operators(), n);
    for (c, &dest) in destination.iter().enumerate() {
        for &op in clustering.members(c) {
            alloc.assign(op, NodeId(dest));
        }
    }
    alloc
}

/// The alive count of an effective assignment (each operator on its
/// allocation host unless redirected), built from scratch: each
/// operator's loads at every point from [`PointBatch::dot_into`], per
/// node a running sum from `+0.0` in ascending operator order, and a
/// point is dead once any add takes its node past `cap + 1e-12`.
fn fresh_count(
    model: &LoadModel,
    cluster: &Cluster,
    points: &PointBatch,
    alloc: &Allocation,
    redirects: &[(OperatorId, NodeId)],
) -> usize {
    let p = points.num_points();
    let mut node_loads = vec![vec![0.0; p]; cluster.num_nodes()];
    let mut op_loads = vec![0.0; p];
    let mut alive = vec![true; p];
    for j in 0..model.num_operators() {
        let op = OperatorId(j);
        let dest = redirects
            .iter()
            .find(|(o, _)| *o == op)
            .map(|(_, d)| *d)
            .or_else(|| alloc.node_of(op));
        let Some(node) = dest else { continue };
        points.dot_into(&model.operator_sparse_row(op).to_dense(), &mut op_loads);
        let cap = cluster.capacity(node) + 1e-12;
        for ((load, &delta), alive) in node_loads[node.index()]
            .iter_mut()
            .zip(&op_loads)
            .zip(&mut alive)
        {
            *load += delta;
            if *load > cap {
                *alive = false;
            }
        }
    }
    alive.into_iter().filter(|&a| a).count()
}

/// Every assignment the optimal search may visit, in its visit order:
/// lexicographic over all `n^m`, and on a homogeneous cluster only those
/// where each operator opens at most the lowest unused node.
fn assignments(m: usize, n: usize, homogeneous: bool) -> Vec<Vec<usize>> {
    let mut all = vec![Vec::new()];
    for _ in 0..m {
        all = all
            .into_iter()
            .flat_map(|prefix: Vec<usize>| {
                let used = prefix.iter().map(|&i| i + 1).max().unwrap_or(0);
                let limit = if homogeneous { (used + 1).min(n) } else { n };
                (0..limit).map(move |i| {
                    let mut next = prefix.clone();
                    next.push(i);
                    next
                })
            })
            .collect();
    }
    all
}

/// `a >= b`, false when either is NaN.
fn at_least(a: f64, b: f64) -> bool {
    a >= b
}

/// Checks [`IncrementalPlanEval`]'s Phase-2 bounds against
/// `score_candidate` at every (operator, node) pair of the current state;
/// `Err` names the first pair that breaks one.
fn check_bounds(eval: &IncrementalPlanEval<'_>, m: usize, n: usize) -> Result<(), String> {
    for j in 0..m {
        let op = OperatorId(j);
        let q = eval
            .bound_input(op)
            .ok_or(format!("op {j}: no bound input"))?;
        for i in 0..n {
            let node = NodeId(i);
            let probe = eval.score_candidate(op, node);
            let negative = eval.node_load_row(node).iter().any(|&c| c < 0.0);
            let at = format!("op {j} node {i} probe {probe:?}");
            if eval.admits_bounds(node) == negative {
                return Err(format!(
                    "{at}: admits_bounds with negative cells {negative}"
                ));
            }
            match (eval.pre_bound(q, node), eval.candidate_bound(op, node)) {
                (None, None) if negative => {}
                (Some(pre), Some(bound)) if !negative => {
                    if !at_least(pre, probe.plane_distance) {
                        return Err(format!("{at}: pre-bound {pre:e} below the probe"));
                    }
                    if !at_least(bound.plane_distance, probe.plane_distance) {
                        return Err(format!("{at}: delta bound {bound:?} below the probe"));
                    }
                    if bound.class_one != probe.class_one {
                        return Err(format!("{at}: delta bound's class {bound:?}"));
                    }
                }
                (pre, bound) => {
                    return Err(format!(
                        "{at}: negative {negative}, bounds {pre:?} {bound:?}"
                    ))
                }
            }
        }
    }
    Ok(())
}

/// A load cell that went negative through unassign residues — assign
/// `1.0` and then `1e16` to one cell, unassign the `1e16` operator, then
/// the `1.0` one — leaves its node without a bound while every other
/// node keeps sound bounds, until an assign lifts the cell back.
#[test]
fn a_negative_cell_gets_no_bound() {
    let mut b = GraphBuilder::new();
    let input = b.add_input();
    for (j, cost) in [1.0, 1e16, 3.0, 2.0].into_iter().enumerate() {
        b.add_operator(format!("f{j}"), OperatorKind::filter(cost, 1.0), &[input])
            .unwrap();
    }
    let model = LoadModel::derive(&b.build().unwrap()).unwrap();
    let cluster = Cluster::homogeneous(3, 1.0);
    let mut eval = IncrementalPlanEval::new(&model, &cluster);
    eval.assign(OperatorId(0), NodeId(0));
    eval.assign(OperatorId(1), NodeId(0));
    eval.assign(OperatorId(2), NodeId(1));
    eval.unassign(OperatorId(1), NodeId(0));
    eval.unassign(OperatorId(0), NodeId(0));
    assert_eq!(eval.node_load_row(NodeId(0)), &[-1.0]);
    assert!(!eval.admits_bounds(NodeId(0)));
    assert_eq!(check_bounds(&eval, 4, 3), Ok(()));
    eval.assign(OperatorId(3), NodeId(0));
    assert!(eval.admits_bounds(NodeId(0)));
    assert_eq!(check_bounds(&eval, 4, 3), Ok(()));
}

/// The scorer's healthy count, then its count under every scenario.
fn scorer_counts(
    scorer: &mut ScenarioScorer<'_>,
    alloc: &Allocation,
    scenarios: &[FailureScenario],
) -> Vec<usize> {
    let mut counts = vec![scorer.healthy_alive(alloc)];
    counts.extend(scenarios.iter().map(|s| scorer.scenario_alive(alloc, s)));
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sparse evaluator's maintained plane distances equal the dense
    /// reference bit for bit at every step of a random assign/unassign
    /// churn — on every node, not just the touched one.
    #[test]
    fn sparse_plane_distances_match_dense_reference_bitwise(
        spec in sparse_spec(),
        nodes in 1usize..5,
        moves in prop::collection::vec((0usize..64, 0usize..8, 0u8..3), 1..40),
    ) {
        let graph = build(&spec);
        let model = LoadModel::derive(&graph).unwrap();
        let cluster = Cluster::homogeneous(nodes, 1.0);
        let mut eval = IncrementalPlanEval::new(&model, &cluster);
        let m = model.num_operators();
        for (op_pick, node_pick, action) in moves {
            let op = OperatorId(op_pick % m);
            let node = NodeId(node_pick % nodes);
            match (action, eval.allocation().node_of(op)) {
                (0 | 1, None) => eval.assign(op, node),
                (2, Some(host)) => eval.unassign(op, host),
                _ => continue,
            }
            for i in 0..nodes {
                let node = NodeId(i);
                let dense = dense_plane_distance(eval.weight_row(node));
                prop_assert_eq!(
                    eval.plane_distance(node).to_bits(),
                    dense.to_bits(),
                    "node {}: sparse {} vs dense {}",
                    i, eval.plane_distance(node), dense
                );
            }
        }
    }

    /// Candidate quotes agree with the dense reference too: committing
    /// the quoted assignment must land exactly on the dense recompute.
    #[test]
    fn candidate_scores_commit_to_their_quotes_bitwise(
        spec in sparse_spec(),
        nodes in 1usize..4,
    ) {
        let graph = build(&spec);
        let model = LoadModel::derive(&graph).unwrap();
        let cluster = Cluster::homogeneous(nodes, 1.0);
        let mut eval = IncrementalPlanEval::new(&model, &cluster);
        for j in 0..model.num_operators() {
            let op = OperatorId(j);
            let node = NodeId(j % nodes);
            let quote = eval.score_candidate(op, node);
            eval.assign(op, node);
            prop_assert_eq!(
                quote.plane_distance.to_bits(),
                eval.plane_distance(node).to_bits(),
                "op {}: quote diverged from committed state", j
            );
            prop_assert_eq!(
                eval.plane_distance(node).to_bits(),
                dense_plane_distance(eval.weight_row(node)).to_bits()
            );
        }
    }

    /// The pruned Phase-2 walk (the default) picks byte-identical
    /// placements to the exhaustive O(m·n) scan: across clusters of 1 to
    /// 70 nodes (so every length of a short last block), with three and
    /// four interleaved capacity classes, the class-one ablation switch
    /// and §6.1 lower bounds; `extend` from a partial allocation; and
    /// `survivor_moves` over survivor lists with holes, against the
    /// exhaustive re-placement of every orphan.
    #[test]
    fn pruned_scan_places_byte_identically_to_exhaustive(
        spec in sparse_spec_sized(2..12, 1..160),
        caps_pick in 0usize..6,
        nodes in 1usize..=70,
        class_one_pick in 0u8..2,
        bound_pick in 0usize..3,
        hosts in prop::collection::vec(0usize..70, 28),
        placed_every in 2usize..5,
    ) {
        let graph = build(&spec);
        let model = LoadModel::derive(&graph).unwrap();
        let cluster = wide_cluster_for(caps_pick, nodes);
        let n = cluster.num_nodes();
        let options = RodOptions {
            use_class_one: class_one_pick == 1,
            input_lower_bound: [None, Some(0.01), Some(0.2)][bound_pick]
                .map(|b| vec![b; model.num_inputs()]),
            ..RodOptions::default()
        };
        let pruned = RodPlanner::with_options(options.clone())
            .place(&model, &cluster)
            .unwrap();
        let full = RodPlanner::with_options(options)
            .with_exhaustive_scan(true)
            .place(&model, &cluster)
            .unwrap();
        prop_assert_eq!(&pruned.allocation, &full.allocation);
        prop_assert_eq!(&pruned.step_classes, &full.step_classes);
        prop_assert!(pruned.candidates_scored <= full.candidates_scored);

        let mut partial = Allocation::new(model.num_operators(), n);
        for j in (0..model.num_operators()).step_by(placed_every) {
            partial.assign(OperatorId(j), NodeId(hosts[j % hosts.len()] % n));
        }
        let extended = RodPlanner::new().extend(&model, &cluster, &partial).unwrap();
        let full = RodPlanner::new()
            .with_exhaustive_scan(true)
            .extend(&model, &cluster, &partial)
            .unwrap();
        prop_assert_eq!(&extended.allocation, &full.allocation);
        prop_assert_eq!(&extended.step_classes, &full.step_classes);

        // Kill every `placed_every`-th node from a picked offset, leaving
        // at least one survivor.
        if n >= 2 {
            let failed: Vec<NodeId> = (hosts[0] % n..n)
                .step_by(placed_every)
                .take(n - 1)
                .map(NodeId)
                .collect();
            let scenario = FailureScenario::new(failed);
            prop_assert_eq!(
                survivor_moves(&model, &cluster, &pruned.allocation, &scenario),
                survivor_moves_oracle(&model, &cluster, &pruned.allocation, &scenario),
                "{:?}", scenario
            );
        }
    }

    /// The pruned scan's bounds against the probe they stand in for, at
    /// every (operator, node) pair of fresh, partly assigned and churned
    /// evaluator states, with and without a §6.1 lower bound: neither
    /// bound falls below `score_candidate`'s plane distance, the delta
    /// bound's Class-I verdict is the probe's, and exactly the nodes
    /// holding a negative load cell get no bound.
    #[test]
    fn phase2_bounds_never_undercut_the_probe(
        spec in sparse_spec(),
        caps_pick in 0usize..3,
        lower_bound in 0u8..2,
        moves in prop::collection::vec((0usize..64, 0usize..8, 0u8..3), 0..40),
    ) {
        let model = LoadModel::derive(&build(&spec)).unwrap();
        let cluster = cluster_for(caps_pick);
        let (m, n) = (model.num_operators(), cluster.num_nodes());
        let mut eval = IncrementalPlanEval::new(&model, &cluster);
        if lower_bound == 1 {
            eval.set_lower_bound(&model.variable_point(&vec![0.05; model.num_inputs()]));
        }
        prop_assert_eq!(check_bounds(&eval, m, n), Ok(()));
        for (op_pick, node_pick, action) in moves {
            let op = OperatorId(op_pick % m);
            match (action, eval.allocation().node_of(op)) {
                (0 | 1, None) => eval.assign(op, NodeId(node_pick % n)),
                (2, Some(host)) => eval.unassign(op, host),
                _ => continue,
            }
            prop_assert_eq!(check_bounds(&eval, m, n), Ok(()));
        }
    }

    /// A one-rack topology makes the hierarchical planner *be* flat ROD:
    /// level 1 degenerates and level 2 runs the identical machinery.
    #[test]
    fn single_rack_hierarchical_is_flat_rod(
        spec in sparse_spec(),
        nodes in 2usize..6,
    ) {
        let graph = build(&spec);
        let model = LoadModel::derive(&graph).unwrap();
        let cluster = Cluster::homogeneous(nodes, 1.0);
        let hier = HierarchicalRod::with_topology(Topology::uniform(nodes, 1))
            .place(&model, &cluster)
            .unwrap();
        let flat = RodPlanner::new().place(&model, &cluster).unwrap();
        prop_assert_eq!(&hier.allocation, &flat.allocation);
    }

    /// Multi-rack hierarchical plans are complete, rack-respecting, and
    /// deterministic on the same random instances.
    #[test]
    fn hierarchical_plans_are_complete_and_rack_respecting(
        spec in sparse_spec(),
        racks_pick in 2usize..4,
    ) {
        let graph = build(&spec);
        let model = LoadModel::derive(&graph).unwrap();
        let nodes = racks_pick * 2;
        let cluster = Cluster::homogeneous(nodes, 1.0);
        let topology = Topology::uniform(nodes, racks_pick);
        let planner = HierarchicalRod::with_topology(topology.clone());
        let a = planner.place(&model, &cluster).unwrap();
        let b = planner.place(&model, &cluster).unwrap();
        prop_assert_eq!(&a.allocation, &b.allocation);
        prop_assert!(a.allocation.is_complete());
        for j in 0..model.num_operators() {
            let node = a.allocation.node_of(OperatorId(j)).unwrap().index();
            prop_assert!(topology.rack(a.rack_of[j]).contains(&node));
        }
    }

    /// Survivor re-placement through the shared selector moves exactly
    /// the orphans its old private loop moved, to the same nodes, in the
    /// same order: single and double failures, on ROD plans and on
    /// arbitrary ones.
    #[test]
    fn survivor_moves_match_the_private_loop_they_replaced(
        spec in sparse_spec(),
        caps_pick in 0usize..3,
        hosts in prop::collection::vec(0usize..64, 28),
        rod_plan in 0u8..2,
    ) {
        let model = LoadModel::derive(&build(&spec)).unwrap();
        let cluster = cluster_for(caps_pick);
        let n = cluster.num_nodes();
        let alloc = if rod_plan == 1 {
            RodPlanner::new().place(&model, &cluster).unwrap().allocation
        } else {
            let mut alloc = Allocation::new(model.num_operators(), n);
            for j in 0..model.num_operators() {
                alloc.assign(OperatorId(j), NodeId(hosts[j % hosts.len()] % n));
            }
            alloc
        };
        for scenario in FailureScenario::all_up_to_k(n, 2) {
            prop_assert_eq!(
                survivor_moves(&model, &cluster, &alloc, &scenario),
                survivor_moves_oracle(&model, &cluster, &alloc, &scenario),
                "{:?}", scenario
            );
        }
    }

    /// Clustered placement through the shared greedy places every
    /// operator where the dense super-row loop does, under both
    /// clustering policies and a range of thresholds and weight caps.
    #[test]
    fn clustered_placement_matches_the_dense_reference(
        spec in sparse_spec(),
        caps_pick in 0usize..3,
        policy_pick in 0u8..2,
        threshold_pick in 0usize..5,
        weight_cap_pick in 0usize..3,
    ) {
        let model = LoadModel::derive(&build(&spec)).unwrap();
        let cluster = cluster_for(caps_pick);
        let policy = if policy_pick == 0 {
            ClusteringPolicy::LargestRatio
        } else {
            ClusteringPolicy::MinWeight
        };
        let threshold = [0.25, 0.5, 1.0, 2.0, 4.0][threshold_pick];
        let weight_cap = [0.3, 0.6, 1.0][weight_cap_pick];
        let clustering =
            cluster_operators(&model, &ArcCosts::uniform(0.5), policy, threshold, weight_cap);
        prop_assert_eq!(
            place_clustered(&model, &cluster, &clustering).unwrap(),
            place_clustered_reference(&model, &cluster, &clustering)
        );
    }

    /// Every count the survivor scorer reports equals [`fresh_count`]
    /// over the same effective assignment: on
    /// complete and partial plans, under the redirects of every scenario
    /// of up to two losses, at point counts around the 64-bit word edge,
    /// cold and from the node-mask memo, and through a fork.
    #[test]
    fn scenario_scorer_counts_match_a_fresh_tracker(
        spec in sparse_spec(),
        caps_pick in 0usize..3,
        hosts in prop::collection::vec(0usize..64, 28),
        unplaced_every in 0usize..4,
        points_pick in 0usize..5,
        qmc_seed in 0u64..1_000,
    ) {
        let model = LoadModel::derive(&build(&spec)).unwrap();
        let cluster = cluster_for(caps_pick);
        let n = cluster.num_nodes();
        let m = model.num_operators();
        // unplaced_every = 0 gives a complete plan; k > 0 leaves every
        // k-th operator unplaced.
        let mut alloc = Allocation::new(m, n);
        for j in 0..m {
            if unplaced_every == 0 || j % (unplaced_every + 1) != 0 {
                alloc.assign(OperatorId(j), NodeId(hosts[j % hosts.len()] % n));
            }
        }
        let samples = [1usize, 63, 64, 65, 1_500][points_pick];
        let estimator = VolumeEstimator::new(
            model.total_coeffs().as_slice(),
            cluster.total_capacity(),
            samples,
            qmc_seed,
        );
        let points = estimator.batch();
        let scenarios = FailureScenario::all_up_to_k(n, 2);
        let want_for = |alloc: &Allocation| -> Vec<usize> {
            let mut want = vec![fresh_count(&model, &cluster, points, alloc, &[])];
            want.extend(scenarios.iter().map(|s| {
                let moves = survivor_moves(&model, &cluster, alloc, s);
                fresh_count(&model, &cluster, points, alloc, &moves)
            }));
            want
        };
        let want = want_for(&alloc);

        let mut scorer = ScenarioScorer::from_batch(&model, &cluster, points);
        prop_assert_eq!(scorer_counts(&mut scorer, &alloc, &scenarios), want.clone());
        // A second pass finds every node mask in the memo.
        let mask_misses = scorer.node_mask_misses();
        prop_assert_eq!(scorer_counts(&mut scorer, &alloc, &scenarios), want.clone());
        prop_assert_eq!(scorer.node_mask_misses(), mask_misses);

        // A fork counts the same from a cold memo of its own.
        let mut fork = scorer.fork();
        prop_assert_eq!(scorer_counts(&mut fork, &alloc, &scenarios), want);

        // A neighbouring plan through the warm scorer and the warm fork:
        // partly memoised node contents.
        let mut moved = alloc.clone();
        moved.assign(OperatorId(0), NodeId((hosts[0] + 1) % n));
        let want = want_for(&moved);
        prop_assert_eq!(scorer_counts(&mut scorer, &moved, &scenarios), want.clone());
        prop_assert_eq!(scorer_counts(&mut fork, &moved, &scenarios), want);
    }

    /// The optimal planner's mask branch-and-bound returns what scoring
    /// every assignment with [`fresh_count`] returns: the first strict
    /// maximum in visit order, the same allocation and the same ratio
    /// bits — on 1–6 operators, homogeneous and heterogeneous clusters of
    /// 2–3 nodes, and point counts around the 64-bit word edge. A
    /// survivor scorer over the same points reads the winner's count too.
    #[test]
    fn optimal_search_matches_an_enumeration_of_fresh_counts(
        spec in sparse_spec_sized(1..4, 1..7),
        nodes in 2usize..=3,
        heterogeneous in 0u8..2,
        points_pick in 0usize..5,
        qmc_seed in 0u64..1_000,
    ) {
        let model = LoadModel::derive(&build(&spec)).unwrap();
        let homogeneous = heterogeneous == 0;
        let cluster = if homogeneous {
            Cluster::homogeneous(nodes, 1.0)
        } else {
            Cluster::heterogeneous([1.5, 0.5, 1.0][..nodes].to_vec())
        };
        let (m, n) = (model.num_operators(), cluster.num_nodes());
        let samples = [1usize, 63, 64, 65, 300][points_pick];
        let estimator = VolumeEstimator::new(
            model.total_coeffs().as_slice(),
            cluster.total_capacity(),
            samples,
            qmc_seed,
        );
        let points = estimator.batch();
        let mut want: Option<(Allocation, usize)> = None;
        for assignment in assignments(m, n, homogeneous) {
            let mut alloc = Allocation::new(m, n);
            for (j, &node) in assignment.iter().enumerate() {
                alloc.assign(OperatorId(j), NodeId(node));
            }
            let hits = fresh_count(&model, &cluster, points, &alloc, &[]);
            if want.as_ref().map_or(true, |(_, best)| hits > *best) {
                want = Some((alloc, hits));
            }
        }
        let (want_alloc, want_hits) = want.unwrap();

        let (alloc, ratio) = OptimalPlanner {
            samples,
            seed: qmc_seed,
            ..OptimalPlanner::new()
        }
        .search(&model, &cluster)
        .unwrap();
        prop_assert_eq!(&alloc, &want_alloc);
        prop_assert_eq!(ratio.to_bits(), (want_hits as f64 / samples as f64).to_bits());
        let mut scorer = ScenarioScorer::from_batch(&model, &cluster, points);
        prop_assert_eq!(scorer.healthy_alive(&alloc), want_hits);
    }
}
