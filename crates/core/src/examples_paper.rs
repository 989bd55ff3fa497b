//! The worked examples of the paper, as constructible fixtures.
//!
//! These are used throughout the test suite and by the
//! `table2_example` experiment binary, and they double as executable
//! documentation of the model:
//!
//! * [`figure4_graph`] — the two-chain graph of Figure 4 with the
//!   parameters of Example 2 (`c = 4, 6, 9, 4`; `s₁ = 1`, `s₃ = 0.5`),
//!   whose operator load-coefficient matrix is Table 2's
//!   `L^o = [[4,0],[6,0],[0,9],[0,2]]`;
//! * [`example2_plans`] — the three allocation plans (a), (b), (c) of
//!   Table 2, whose feasible sets are drawn in Figure 5;
//! * [`example3_graph`] — the nonlinear graph of Example 3 / Figure 13
//!   (a variable-selectivity operator and a windowed join), used to
//!   exercise the §6.2 linearisation.

use crate::allocation::Allocation;
use crate::graph::{GraphBuilder, QueryGraph};
use crate::ids::NodeId;
use crate::operator::OperatorKind;

/// The query graph of Figure 4 with Example 2's costs and selectivities.
///
/// `I₁ → o₁(c=4, s=1) → o₂(c=6)` and `I₂ → o₃(c=9, s=0.5) → o₄(c=4)`.
/// Loads: `4r₁, 6r₁, 9r₂, 2r₂` (Example 1 with Example 2's numbers).
pub fn figure4_graph() -> QueryGraph {
    let mut b = GraphBuilder::new();
    let i1 = b.add_input();
    let i2 = b.add_input();
    let (_, s1) = b
        .add_operator("o1", OperatorKind::filter(4.0, 1.0), &[i1])
        .expect("o1");
    // o2's own selectivity is unspecified in the paper (nothing consumes
    // its output); 1.0 is as good as any.
    b.add_operator("o2", OperatorKind::filter(6.0, 1.0), &[s1])
        .expect("o2");
    let (_, s3) = b
        .add_operator("o3", OperatorKind::filter(9.0, 0.5), &[i2])
        .expect("o3");
    b.add_operator("o4", OperatorKind::filter(4.0, 1.0), &[s3])
        .expect("o4");
    b.build().expect("figure 4 graph is valid")
}

/// The three two-node allocation plans of Table 2 for [`figure4_graph`].
///
/// * Plan (a): `N₁ = {o₁, o₄}`, `N₂ = {o₂, o₃}` → `L^n = [[4,2],[6,9]]`
/// * Plan (b): `N₁ = {o₁, o₃}`, `N₂ = {o₂, o₄}` → `L^n = [[4,9],[6,2]]`
/// * Plan (c): `N₁ = {o₁, o₂}`, `N₂ = {o₃, o₄}` → `L^n = [[10,0],[0,11]]`
pub fn example2_plans() -> [Allocation; 3] {
    let plan = |n1: &[usize], n2: &[usize]| {
        let mut a = Allocation::new(4, 2);
        for &j in n1 {
            a.assign(j.into(), NodeId(0));
        }
        for &j in n2 {
            a.assign(j.into(), NodeId(1));
        }
        a
    };
    [
        plan(&[0, 3], &[1, 2]),
        plan(&[0, 2], &[1, 3]),
        plan(&[0, 1], &[2, 3]),
    ]
}

/// The nonlinear query graph of Example 3 / Figure 13.
///
/// `I₁(r₁) → o₁(variable selectivity) → r₃ → o₂ → r_u`,
/// `I₂(r₂) → o₃ → o₄ → r_v`, `o₅ = join(r_u, r_v) → r₄ → o₆`.
///
/// Linearisation introduces `r₃` (output of `o₁`) and `r₄` (output of
/// `o₅`), cutting the graph into linear pieces exactly as Figure 13 shows.
pub fn example3_graph() -> QueryGraph {
    let mut b = GraphBuilder::new();
    let i1 = b.add_input();
    let i2 = b.add_input();
    let (_, r3) = b
        .add_operator(
            "o1",
            OperatorKind::VariableSelectivity {
                costs: vec![2.0],
                nominal_selectivities: vec![0.8],
            },
            &[i1],
        )
        .expect("o1");
    let (_, ru) = b
        .add_operator("o2", OperatorKind::filter(3.0, 0.9), &[r3])
        .expect("o2");
    let (_, s_o3) = b
        .add_operator("o3", OperatorKind::filter(1.5, 1.0), &[i2])
        .expect("o3");
    let (_, rv) = b
        .add_operator("o4", OperatorKind::filter(2.5, 0.6), &[s_o3])
        .expect("o4");
    let (_, r4) = b
        .add_operator(
            "o5",
            OperatorKind::WindowJoin {
                window: 1.0,
                cost_per_pair: 4.0,
                selectivity_per_pair: 0.25,
            },
            &[ru, rv],
        )
        .expect("o5");
    b.add_operator("o6", OperatorKind::filter(1.0, 1.0), &[r4])
        .expect("o6");
    b.build().expect("example 3 graph is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::PlanEvaluator;
    use crate::cluster::Cluster;
    use crate::load_model::LoadModel;

    #[test]
    fn figure4_matches_example1_loads() {
        let g = figure4_graph();
        // At r1 = r2 = 1: loads 4, 6, 9, 2 (= c4 * s3).
        assert_eq!(g.operator_loads(&[1.0, 1.0]), vec![4.0, 6.0, 9.0, 2.0]);
    }

    #[test]
    fn example2_plans_reproduce_table2() {
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let ev = PlanEvaluator::new(&model, &cluster);
        let [a, b, c] = example2_plans();
        let ln_a = ev.node_load_matrix(&a);
        assert_eq!(ln_a.row(0), &[4.0, 2.0]);
        assert_eq!(ln_a.row(1), &[6.0, 9.0]);
        let ln_b = ev.node_load_matrix(&b);
        assert_eq!(ln_b.row(0), &[4.0, 9.0]);
        assert_eq!(ln_b.row(1), &[6.0, 2.0]);
        let ln_c = ev.node_load_matrix(&c);
        assert_eq!(ln_c.row(0), &[10.0, 0.0]);
        assert_eq!(ln_c.row(1), &[0.0, 11.0]);
    }

    #[test]
    fn example3_structure() {
        let g = example3_graph();
        assert_eq!(g.num_inputs(), 2);
        assert_eq!(g.num_operators(), 6);
        // The join consumes the two chain outputs.
        let join = &g.operators()[4];
        assert!(matches!(join.kind, OperatorKind::WindowJoin { .. }));
    }
}
