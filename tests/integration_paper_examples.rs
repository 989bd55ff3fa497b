//! The paper's worked examples, end to end: Table 2, Figures 5/6,
//! Theorem 1, Example 3, and the §7.3.1 ROD-vs-optimal band.

use rod::core::baselines::optimal::OptimalPlanner;
use rod::core::examples_paper::{example2_plans, example3_graph, figure4_graph};
use rod::core::metrics::{feasible_ratio, make_estimator};
use rod::geom::polygon::feasible_area;
use rod::geom::simplex_volume;
use rod::prelude::*;

#[test]
fn table2_node_load_matrices() {
    let model = LoadModel::derive(&figure4_graph()).unwrap();
    let cluster = Cluster::homogeneous(2, 1.0);
    let ev = PlanEvaluator::new(&model, &cluster);
    let [a, b, c] = example2_plans();
    let check = |alloc: &Allocation, rows: [[f64; 2]; 2]| {
        let ln = ev.node_load_matrix(alloc);
        assert_eq!(ln.row(0), &rows[0]);
        assert_eq!(ln.row(1), &rows[1]);
    };
    check(&a, [[4.0, 2.0], [6.0, 9.0]]);
    check(&b, [[4.0, 9.0], [6.0, 2.0]]);
    check(&c, [[10.0, 0.0], [0.0, 11.0]]);
}

#[test]
fn figure5_feasible_set_ordering() {
    // Exact areas with C1 = C2 = 1: plan (b) wins because it separates
    // the two heaviest operators (o2: 6r1, o3: 9r2) onto different nodes
    // — precisely the Figure 8 lesson that stacking the largest weights
    // of different streams on one node (plan (a)'s N2 = {o2, o3})
    // creates a bottleneck. Plan (c) (whole chains per node) is worst.
    //
    //   area(b) = 0.012077…  >  area(a) = 1/108  >  area(c) = 1/110
    let model = LoadModel::derive(&figure4_graph()).unwrap();
    let cluster = Cluster::homogeneous(2, 1.0);
    let ev = PlanEvaluator::new(&model, &cluster);
    let areas: Vec<f64> = example2_plans()
        .iter()
        .map(|p| feasible_area(&ev.feasible_region(p).hyperplanes()).unwrap())
        .collect();
    assert!(
        areas[1] > areas[0],
        "area(b)={} <= area(a)={}",
        areas[1],
        areas[0]
    );
    assert!(
        areas[0] > areas[2],
        "area(a)={} <= area(c)={}",
        areas[0],
        areas[2]
    );
    // Plan (a)'s binding constraint is N2 alone: triangle (1/6)·(1/9)/2.
    assert!((areas[0] - 1.0 / 108.0).abs() < 1e-9);
    // Plan (c) is exactly the rectangle (1/10)·(1/11).
    assert!((areas[2] - 1.0 / 110.0).abs() < 1e-9);
    // And MMPD ranks them the same way.
    let pd: Vec<f64> = example2_plans()
        .iter()
        .map(|p| ev.min_plane_distance(p))
        .collect();
    assert!(pd[1] > pd[0]);
}

#[test]
fn theorem1_ideal_set_contains_every_plan() {
    let model = LoadModel::derive(&figure4_graph()).unwrap();
    let cluster = Cluster::homogeneous(2, 1.0);
    let ev = PlanEvaluator::new(&model, &cluster);
    let ideal = ev.ideal_volume().unwrap();
    // Theorem 1's formula: C_T^d / (d! l1 l2) = 4 / (2·110).
    assert!((ideal - simplex_volume(&[10.0, 11.0], 2.0)).abs() < 1e-15);
    for plan in example2_plans() {
        let area = feasible_area(&ev.feasible_region(&plan).hyperplanes()).unwrap();
        assert!(
            area <= ideal + 1e-9,
            "plan area {area} exceeds ideal {ideal}"
        );
    }
}

#[test]
fn ideal_matrix_achieves_ideal_volume() {
    // A (synthetic) node load matrix equal to Theorem 1's L^n* has
    // feasible set exactly the ideal simplex. Build it with fractional
    // "operators" directly in geometry space.
    use rod::geom::{FeasibleRegion, Matrix, Vector, VolumeEstimator};
    let l = [10.0, 11.0];
    let (c1, c2) = (0.7, 1.3);
    let ct = c1 + c2;
    let ln = Matrix::from_rows(&[
        &[l[0] * c1 / ct, l[1] * c1 / ct],
        &[l[0] * c2 / ct, l[1] * c2 / ct],
    ]);
    let region = FeasibleRegion::new(ln, Vector::from([c1, c2]));
    let est = VolumeEstimator::new(&l, ct, 30_000, 3).estimate(&region);
    assert!(
        est.ratio_to_ideal > 0.999,
        "ideal matrix ratio {}",
        est.ratio_to_ideal
    );
}

#[test]
fn example3_linearisation_names_the_paper_variables() {
    let g = example3_graph();
    let model = LoadModel::derive(&g).unwrap();
    // r1, r2 system inputs; r3 = output of o1; r4 = output of o5.
    assert_eq!(model.num_vars(), 4);
    use rod::core::linearize::VarInfo;
    let vars = &model.linearization().vars;
    assert!(matches!(vars[0], VarInfo::SystemInput(k) if k.index() == 0));
    assert!(matches!(vars[1], VarInfo::SystemInput(k) if k.index() == 1));
    let names: Vec<&str> = vars[2..]
        .iter()
        .map(|v| match v {
            VarInfo::Introduced { operator, .. } => g.operator(*operator).name.as_str(),
            _ => panic!("expected introduced"),
        })
        .collect();
    assert_eq!(names, vec!["o1", "o5"]);
}

#[test]
fn example3_join_load_is_c_over_s_of_its_output() {
    let g = example3_graph();
    let model = LoadModel::derive(&g).unwrap();
    // o5: cost_per_pair 4.0, selectivity 0.25 → load = 16 · r4.
    let join_row = model.operator_sparse_row(rod::core::ids::OperatorId(4));
    assert_eq!(join_row.to_dense(), [0.0, 0.0, 0.0, 16.0]);
}

#[test]
fn rod_within_optimal_band_on_small_graphs() {
    // §7.3.1: avg 0.95, min 0.82 over small instances. At test scale we
    // check a handful of graphs stay above 0.80 and average above 0.90.
    let cluster = Cluster::homogeneous(2, 1.0);
    let mut ratios = Vec::new();
    for seed in 0..6u64 {
        let graph = RandomTreeGenerator::paper_default(2, 5).generate(seed);
        let model = LoadModel::derive(&graph).unwrap();
        let ev = PlanEvaluator::new(&model, &cluster);
        let estimator = make_estimator(&model, &cluster, 20_000, seed);
        let rod = RodPlanner::new()
            .place(&model, &cluster)
            .unwrap()
            .allocation;
        let rod_ratio = feasible_ratio(&ev, &estimator, &rod);
        let (_, opt_ratio) = OptimalPlanner {
            samples: 20_000,
            seed,
            ..OptimalPlanner::new()
        }
        .search(&model, &cluster)
        .unwrap();
        ratios.push((rod_ratio / opt_ratio).min(1.0));
    }
    let avg: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(avg > 0.90, "avg ROD/OPT {avg} (paper: 0.95)");
    assert!(min > 0.75, "min ROD/OPT {min} (paper: 0.82)");
}
