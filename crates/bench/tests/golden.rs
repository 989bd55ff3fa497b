//! Golden-value pins for the planner and the volume estimator.
//!
//! These tests freeze exact outputs — ROD and ResilientRod placements as
//! op→node vectors, failover tables, survivor point counts, and QMC
//! volume estimates down to the f64 bit pattern — for fixed
//! workload/QMC seeds. They exist to catch *unintentional* numeric or
//! behavioural drift: an optimisation that reorders float accumulation,
//! a planner tweak that silently changes placements, a sampler change
//! that shifts the point set.
//!
//! If a change fails these tests **on purpose** (e.g. a deliberate
//! planner improvement), re-pin the constants in the same commit and
//! call the change out in the commit message; a re-pin is an API-break
//! level event for downstream experiment reproducibility.

use rod_core::allocation::{Allocation, PlanEvaluator};
use rod_core::cluster::Cluster;
use rod_core::hierarchical::HierarchicalRod;
use rod_core::ids::{NodeId, OperatorId};
use rod_core::load_model::LoadModel;
use rod_core::resilience::{ResilientRodOptions, ResilientRodPlanner};
use rod_core::rod::RodPlanner;
use rod_geom::VolumeEstimator;
use rod_workloads::random_graphs::RandomTreeGenerator;
use rod_workloads::sparse_graphs::SparseGraphGenerator;

/// One frozen scenario: the paper-default random tree workload on a
/// homogeneous cluster, mirroring the `perf_planner` grid cells.
struct GoldenCase {
    name: &'static str,
    inputs: usize,
    ops_per_tree: usize,
    nodes: usize,
    samples: usize,
    workload_seed: u64,
    qmc_seed: u64,
    /// Expected op→node assignment from `RodPlanner::place`.
    placement: &'static [usize],
    /// Expected `ratio_to_ideal` as raw f64 bits (bit-exact pin).
    ratio_bits: u64,
}

const CASES: &[GoldenCase] = &[
    GoldenCase {
        name: "d2_n4_s42",
        inputs: 2,
        ops_per_tree: 5,
        nodes: 4,
        samples: 50_000,
        workload_seed: 42,
        qmc_seed: 7,
        placement: &[0, 2, 3, 1, 3, 2, 3, 2, 1, 0],
        ratio_bits: 0x3fe3a9a8049667b6, // 0.61446
    },
    GoldenCase {
        name: "d4_n8_s42",
        inputs: 4,
        ops_per_tree: 5,
        nodes: 8,
        samples: 50_000,
        workload_seed: 42,
        qmc_seed: 7,
        placement: &[5, 6, 4, 3, 7, 2, 4, 5, 3, 7, 0, 6, 2, 7, 3, 3, 1, 2, 6, 7],
        ratio_bits: 0x3fc916872b020c4a, // 0.196
    },
];

fn run_case(case: &GoldenCase) -> (Vec<usize>, f64) {
    let graph = RandomTreeGenerator::paper_default(case.inputs, case.ops_per_tree)
        .generate(case.workload_seed);
    let model = LoadModel::derive(&graph).expect("model derives");
    let cluster = Cluster::homogeneous(case.nodes, 1.0);
    let alloc = RodPlanner::new()
        .place(&model, &cluster)
        .expect("ROD plans")
        .allocation;
    let placement: Vec<usize> = (0..alloc.num_operators())
        .map(|op| alloc.node_of(OperatorId(op)).expect("complete placement").0)
        .collect();

    let estimator = VolumeEstimator::new(
        model.total_coeffs().as_slice(),
        cluster.total_capacity(),
        case.samples,
        case.qmc_seed,
    );
    let region = PlanEvaluator::new(&model, &cluster).feasible_region(&alloc);
    let estimate = estimator.estimate(&region);
    (placement, estimate.ratio_to_ideal)
}

#[test]
fn golden_placements_and_volumes_are_stable() {
    for case in CASES {
        let (placement, ratio) = run_case(case);
        assert_eq!(
            placement, case.placement,
            "{}: ROD placement drifted — if intentional, re-pin and \
             document in the commit message",
            case.name
        );
        assert_eq!(
            ratio.to_bits(),
            case.ratio_bits,
            "{}: volume estimate drifted ({} vs pinned {}) — if \
             intentional, re-pin and document in the commit message",
            case.name,
            ratio,
            f64::from_bits(case.ratio_bits)
        );
    }
}

/// FNV-1a over the op→node vector: a 5000-element placement is too big
/// to inline as a literal, so the large-sparse pins freeze its hash.
fn placement_fingerprint(alloc: &Allocation) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for op in 0..alloc.num_operators() {
        let node = alloc.node_of(OperatorId(op)).expect("complete placement").0 as u64;
        for byte in node.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The large-sparse scaling scenario (the `perf_planner` v3 regime in
/// miniature): 64 inputs, 5000 operators with ≤ 4-nonzero load rows, 64
/// nodes. The pins are the placement fingerprints of the flat (pruned)
/// and hierarchical planners, plus each one's exact probe and
/// delta-bound counts — any change to the pruning logic, the sparse
/// evaluation order, or the two-level split shows up here as a
/// bit-level diff.
#[test]
fn golden_large_sparse_placements_are_stable() {
    let graph = SparseGraphGenerator::sized(64, 5_000).generate(42);
    let model = LoadModel::derive(&graph).expect("model derives");
    assert_eq!(model.nnz(), 15_732, "workload generator drifted");
    let cluster = Cluster::homogeneous(64, 1.0);

    let flat = RodPlanner::new()
        .place(&model, &cluster)
        .expect("ROD plans");
    assert_eq!(
        placement_fingerprint(&flat.allocation),
        0xfaf3657c2dd7b498,
        "flat placement drifted (got {:#018x}) — if intentional, re-pin \
         and document in the commit message",
        placement_fingerprint(&flat.allocation)
    );
    assert_eq!(
        (flat.candidates_scored, flat.candidates_bounded),
        (23_993, 180_659),
        "pruned-scan probe and bound counts drifted — if intentional, \
         re-pin and document in the commit message"
    );

    let hier = HierarchicalRod::new()
        .place(&model, &cluster)
        .expect("hierarchical ROD plans");
    assert_eq!(
        placement_fingerprint(&hier.allocation),
        0x6f484cb9b6a3c602,
        "hierarchical placement drifted (got {:#018x}) — if intentional, \
         re-pin and document in the commit message",
        placement_fingerprint(&hier.allocation)
    );
    assert_eq!(
        (hier.candidates_scored, hier.candidates_bounded),
        (27_099, 49_002),
        "hierarchical probe and bound counts drifted — if intentional, \
         re-pin and document in the commit message"
    );
}

/// A heterogeneous instance: 48 inputs and 3000 operators on 96 nodes
/// of three capacity classes in turn, so the unloaded nodes of each
/// class interleave with those of the others. The pins are the flat and
/// hierarchical placement fingerprints and probe and delta-bound counts,
/// recorded before the Phase-2 walk skipped blocks and struck off the
/// unloaded nodes of probed capacity classes; the flat plan must also be
/// the exhaustive scan's.
#[test]
fn golden_heterogeneous_placements_are_stable() {
    let graph = SparseGraphGenerator::sized(48, 3_000).generate(7);
    let model = LoadModel::derive(&graph).expect("model derives");
    assert_eq!(model.nnz(), 9_345, "workload generator drifted");
    let cluster = Cluster::heterogeneous((0..96).map(|i| [2.0, 1.0, 0.5][i % 3]).collect());

    let flat = RodPlanner::new()
        .place(&model, &cluster)
        .expect("ROD plans");
    let full = RodPlanner::new()
        .with_exhaustive_scan(true)
        .place(&model, &cluster)
        .expect("exhaustive ROD plans");
    assert_eq!(flat.allocation, full.allocation);
    assert_eq!(
        placement_fingerprint(&flat.allocation),
        0xe410c9ef1c6408f7,
        "flat placement drifted (got {:#018x}) — if intentional, re-pin \
         and document in the commit message",
        placement_fingerprint(&flat.allocation)
    );
    assert_eq!(
        (flat.candidates_scored, flat.candidates_bounded),
        (15_243, 128_331),
        "pruned-scan probe and bound counts drifted — if intentional, \
         re-pin and document in the commit message"
    );

    let hier = HierarchicalRod::new()
        .place(&model, &cluster)
        .expect("hierarchical ROD plans");
    assert_eq!(
        placement_fingerprint(&hier.allocation),
        0x7d3aa4a703a66897,
        "hierarchical placement drifted (got {:#018x}) — if intentional, \
         re-pin and document in the commit message",
        placement_fingerprint(&hier.allocation)
    );
    assert_eq!(
        (hier.candidates_scored, hier.candidates_bounded),
        (17_717, 34_660),
        "hierarchical probe and bound counts drifted — if intentional, \
         re-pin and document in the commit message"
    );
}

/// The batched kernel, the scalar reference walk, and the threaded path
/// must all agree bit-for-bit on the golden scenarios.
#[test]
fn golden_scenarios_are_bit_identical_across_estimate_paths() {
    for case in CASES {
        let graph = RandomTreeGenerator::paper_default(case.inputs, case.ops_per_tree)
            .generate(case.workload_seed);
        let model = LoadModel::derive(&graph).expect("model derives");
        let cluster = Cluster::homogeneous(case.nodes, 1.0);
        let alloc = RodPlanner::new()
            .place(&model, &cluster)
            .expect("ROD plans")
            .allocation;
        let estimator = VolumeEstimator::new(
            model.total_coeffs().as_slice(),
            cluster.total_capacity(),
            case.samples,
            case.qmc_seed,
        );
        let region = PlanEvaluator::new(&model, &cluster).feasible_region(&alloc);
        // Every path is pinned directly against the golden bits — not
        // merely against each other — so a drift that hit all paths at
        // once (e.g. a sampler change) still fails here.
        let batch = estimator.batch();
        let hits = (0..batch.num_points())
            .filter(|&p| region.contains(&batch.point(p)))
            .count();
        let scalar = (hits as f64 / batch.num_points() as f64).to_bits();
        assert_eq!(
            scalar, case.ratio_bits,
            "{}: scalar estimate drifted from the golden pin",
            case.name
        );
        for threads in [1usize, 2, 4, 7] {
            let pooled = estimator
                .estimate_with_threads(&region, threads)
                .ratio_to_ideal
                .to_bits();
            assert_eq!(
                pooled, case.ratio_bits,
                "{}: pooled estimate (threads={threads}) drifted from the \
                 golden pin",
                case.name
            );
        }
    }
}

/// One frozen ResilientRod instance: the `d2_n4_s42` paper tree on a
/// 4-node cluster, scored on 1,500 QMC points (not a multiple of 64).
struct GoldenResilient {
    name: &'static str,
    capacities: [f64; 4],
    max_failures: usize,
    /// Expected op→node assignment after the hill climb.
    placement: &'static [usize],
    /// Expected failover table: per node, `(operator, backup)` in order.
    failover: &'static [&'static [(usize, usize)]],
    worst_alive: usize,
    baseline_worst_alive: usize,
    healthy_alive: usize,
    moves: usize,
}

const RESILIENT_CASES: &[GoldenResilient] = &[
    GoldenResilient {
        // The climb empties node 2 into a hot spare: every single loss
        // keeps the whole healthy set.
        name: "homogeneous_k1",
        capacities: [1.0; 4],
        max_failures: 1,
        placement: &[0, 3, 3, 1, 0, 1, 3, 3, 3, 0],
        failover: &[
            &[(9, 2), (4, 2), (0, 2)],
            &[(3, 2), (5, 2)],
            &[],
            &[(1, 2), (2, 2), (6, 2), (7, 2), (8, 2)],
        ],
        worst_alive: 699,
        baseline_worst_alive: 480,
        healthy_alive: 699,
        moves: 5,
    },
    GoldenResilient {
        name: "heterogeneous_k1",
        capacities: [2.0, 1.0, 1.0, 0.5],
        max_failures: 1,
        placement: &[0, 2, 3, 0, 2, 0, 0, 2, 3, 1],
        failover: &[
            &[(3, 1), (5, 2), (6, 3), (0, 2)],
            &[(9, 0)],
            &[(4, 0), (1, 1), (7, 0)],
            &[(2, 0), (8, 0)],
        ],
        worst_alive: 414,
        baseline_worst_alive: 289,
        healthy_alive: 872,
        moves: 5,
    },
    GoldenResilient {
        name: "homogeneous_k2",
        capacities: [1.0; 4],
        max_failures: 2,
        placement: &[3, 3, 1, 1, 3, 2, 3, 2, 1, 0],
        failover: &[
            &[(9, 3)],
            &[(3, 2), (2, 0), (8, 3)],
            &[(5, 3), (7, 0)],
            &[(4, 2), (1, 0), (6, 2), (0, 0)],
        ],
        worst_alive: 341,
        baseline_worst_alive: 290,
        healthy_alive: 743,
        moves: 3,
    },
];

/// ResilientRod's hill climb, failover table and survivor counts, at a
/// serial and a pooled neighbourhood scan: any change to the survivor
/// scoring, the climb's scan order or the failover greedy shows up here.
#[test]
fn golden_resilient_plans_are_stable() {
    let graph = RandomTreeGenerator::paper_default(2, 5).generate(42);
    let model = LoadModel::derive(&graph).expect("model derives");
    for case in RESILIENT_CASES {
        let cluster = Cluster::heterogeneous(case.capacities.to_vec());
        for threads in [1usize, 4] {
            let plan = ResilientRodPlanner::with_options(ResilientRodOptions {
                samples: 1_500,
                seed: 2006,
                max_failures: case.max_failures,
                max_moves: 64,
                threads,
            })
            .place(&model, &cluster)
            .expect("ResilientRod plans");
            let what = format!("{} at threads={threads}", case.name);
            let placement: Vec<usize> = (0..model.num_operators())
                .map(|j| plan.allocation.node_of(OperatorId(j)).expect("complete").0)
                .collect();
            assert_eq!(placement, case.placement, "{what}: placement drifted");
            for (i, want) in case.failover.iter().enumerate() {
                let got: Vec<(usize, usize)> = plan
                    .failover
                    .moves_for(NodeId(i))
                    .iter()
                    .map(|(op, dest)| (op.0, dest.0))
                    .collect();
                assert_eq!(got, *want, "{what}: failover of node {i} drifted");
            }
            assert_eq!(
                (
                    plan.worst_alive,
                    plan.baseline_worst_alive,
                    plan.healthy_alive,
                    plan.num_points,
                    plan.moves
                ),
                (
                    case.worst_alive,
                    case.baseline_worst_alive,
                    case.healthy_alive,
                    1_500,
                    case.moves
                ),
                "{what}: (worst, baseline worst, healthy, points, moves) drifted"
            );
        }
    }
}
