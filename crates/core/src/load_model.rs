//! The linear load model `L^o` derived from a query graph.
//!
//! This is the planner's view of the system (paper §2.2–2.3): an
//! `m × d'` operator load-coefficient matrix over the `d'` rate variables
//! produced by [`crate::linearize`] (for purely linear graphs,
//! `d' = d` and the variables *are* the system input rates).
//!
//! The matrix is stored **sparse**, and only sparse: each operator
//! touches only the few streams it actually consumes, so its row has a
//! handful of nonzeros out of `d'` columns — at production scale (tens of
//! thousands of operators over hundreds of streams) the dense matrix
//! would be almost entirely zeros. Every derived quantity (column totals,
//! row norms) is accumulated in the same index-ascending order as a dense
//! loop, so the bits are those of the dense arithmetic (see
//! [`rod_geom::sparse`]).

use serde::{DeError, Deserialize, Serialize, Value};

use rod_geom::{SparseLoadMatrix, SparseRow, Vector};

use crate::error::GraphError;
use crate::graph::QueryGraph;
use crate::ids::{OperatorId, VarId};
use crate::linearize::{Linearization, VarInfo};

pub use crate::linearize::RateExpr;

/// A query graph together with its derived linear load model.
#[derive(Clone, Debug)]
pub struct LoadModel {
    graph: QueryGraph,
    linearization: Linearization,
    /// `L^o` stored sparse: one row per operator over the rate variables.
    sparse: SparseLoadMatrix,
    /// Column sums `l_k = Σ_j l^o_{jk}` (paper Table 1).
    total_coeffs: Vector,
    /// Per-operator row norms — the Phase-1 ordering keys, precomputed in
    /// the dense accumulation order.
    norms: Vec<f64>,
}

impl LoadModel {
    /// Derives the load model from a graph (validates it first).
    pub fn derive(graph: &QueryGraph) -> Result<LoadModel, GraphError> {
        graph.validate()?;
        let linearization = Linearization::run(graph);
        let d = linearization.num_vars();
        let rows: Vec<SparseRow> = linearization
            .op_load_exprs
            .iter()
            .map(|expr| expr.to_sparse_row(d))
            .collect();
        let sparse = SparseLoadMatrix::from_rows(d, rows);
        Ok(LoadModel::from_parts(graph.clone(), linearization, sparse))
    }

    /// Assembles a model from already-derived parts, recomputing the
    /// cached totals and norms (used by `derive` and deserialisation).
    fn from_parts(
        graph: QueryGraph,
        linearization: Linearization,
        sparse: SparseLoadMatrix,
    ) -> LoadModel {
        let total_coeffs = Vector::new(sparse.col_sums());
        let norms = sparse.rows().iter().map(SparseRow::norm).collect();
        LoadModel {
            graph,
            linearization,
            sparse,
            total_coeffs,
            norms,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &QueryGraph {
        &self.graph
    }

    /// The linearisation (variable catalogue and stream expressions).
    pub fn linearization(&self) -> &Linearization {
        &self.linearization
    }

    /// Number of operators `m`.
    pub fn num_operators(&self) -> usize {
        self.sparse.num_rows()
    }

    /// Number of rate variables `d'`.
    pub fn num_vars(&self) -> usize {
        self.sparse.num_cols()
    }

    /// Number of *system* input streams `d` (≤ [`Self::num_vars`]).
    pub fn num_inputs(&self) -> usize {
        self.graph.num_inputs()
    }

    /// The sparse `L^o` matrix — the primary representation.
    pub fn sparse_lo(&self) -> &SparseLoadMatrix {
        &self.sparse
    }

    /// Total stored nonzeros in `L^o` — `Σ_j nnz(L^o_j) ≤ m·d'`.
    pub fn nnz(&self) -> usize {
        self.sparse.nnz()
    }

    /// Sparse load-coefficient row of one operator — O(nnz) iteration.
    pub fn operator_sparse_row(&self, j: OperatorId) -> &SparseRow {
        self.sparse.row(j.index())
    }

    /// The operator's load-vector L2 norm — the Phase-1 ordering key of
    /// the ROD algorithm.
    pub fn operator_norm(&self, j: OperatorId) -> f64 {
        self.norms[j.index()]
    }

    /// Total load coefficients `l_k` per variable.
    pub fn total_coeffs(&self) -> &Vector {
        &self.total_coeffs
    }

    /// Variables with zero total coefficient load no operator at all;
    /// they are degenerate axes (infinite ideal intercept). True linear
    /// models from non-trivial graphs never have them, but defensive
    /// callers can check.
    pub fn has_degenerate_vars(&self) -> bool {
        self.total_coeffs.as_slice().iter().any(|&l| l <= 0.0)
    }

    /// Concrete values of all `d'` variables at a system-input rate point
    /// (introduced variables take their propagated true rates).
    pub fn variable_point(&self, input_rates: &[f64]) -> Vector {
        Vector::new(self.linearization.variable_point(&self.graph, input_rates))
    }

    /// Total CPU load of the whole query graph at a variable point.
    pub fn total_load(&self, var_point: &Vector) -> f64 {
        self.total_coeffs.dot(var_point)
    }

    /// Which variable, if any, is an operator's introduced output
    /// variable.
    pub fn introduced_var_of(&self, op: OperatorId) -> Option<VarId> {
        self.linearization
            .vars
            .iter()
            .enumerate()
            .find_map(|(i, v)| match v {
                VarInfo::Introduced { operator, .. } if *operator == op => Some(VarId(i)),
                _ => None,
            })
    }
}

// Totals and norms are derived state, so (de)serialisation carries the
// sparse representation only and recomputes them on load.
impl Serialize for LoadModel {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("graph".to_string(), self.graph.to_value()),
            ("linearization".to_string(), self.linearization.to_value()),
            ("sparse".to_string(), self.sparse.to_value()),
        ])
    }
}

impl Deserialize for LoadModel {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", v))?;
        let graph: QueryGraph = serde::field(pairs, "graph", "LoadModel")?;
        let linearization: Linearization = serde::field(pairs, "linearization", "LoadModel")?;
        let sparse: SparseLoadMatrix = serde::field(pairs, "sparse", "LoadModel")?;
        if sparse.num_rows() != graph.num_operators() {
            return Err(DeError::custom(format!(
                "LoadModel sparse matrix has {} rows for {} operators",
                sparse.num_rows(),
                graph.num_operators()
            )));
        }
        if sparse.num_cols() != linearization.num_vars() {
            return Err(DeError::custom(format!(
                "LoadModel sparse matrix has {} columns for {} rate variables",
                sparse.num_cols(),
                linearization.num_vars()
            )));
        }
        // Every planner relies on loads only growing as operators are
        // added (the `eval` module docs).
        for (j, row) in sparse.rows().iter().enumerate() {
            if let Some((k, v)) = row.iter().find(|&(_, v)| !(v >= 0.0 && v.is_finite())) {
                return Err(DeError::custom(format!(
                    "LoadModel operator {} has load coefficient {v} in column {k}; \
                     coefficients must be finite and non-negative",
                    OperatorId(j)
                )));
            }
        }
        Ok(LoadModel::from_parts(graph, linearization, sparse))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::{example3_graph, figure4_graph};
    use crate::graph::GraphBuilder;
    use crate::operator::OperatorKind;
    use rod_geom::Matrix;

    fn dense_rows(model: &LoadModel) -> Vec<Vec<f64>> {
        model
            .sparse_lo()
            .rows()
            .iter()
            .map(SparseRow::to_dense)
            .collect()
    }

    /// Figure 4's graph plus an operator of zero cost, whose load row is
    /// all zeros: the case where an empty sparse sum and a dense sum of
    /// zeros could disagree on the sign of zero.
    fn graph_with_zero_cost_operator() -> QueryGraph {
        let mut b = GraphBuilder::new();
        let i1 = b.add_input();
        let i2 = b.add_input();
        let (_, s1) = b
            .add_operator("o1", OperatorKind::filter(4.0, 1.0), &[i1])
            .unwrap();
        b.add_operator("idle", OperatorKind::filter(0.0, 1.0), &[s1])
            .unwrap();
        b.add_operator("o3", OperatorKind::filter(9.0, 0.5), &[i2])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn table2_lo_matrix() {
        // Paper Table 2: L^o = [[4,0],[6,0],[0,9],[0,2]].
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        assert_eq!(model.num_operators(), 4);
        assert_eq!(model.num_vars(), 2);
        assert_eq!(
            dense_rows(&model),
            [[4.0, 0.0], [6.0, 0.0], [0.0, 9.0], [0.0, 2.0]]
        );
        // l_1 = 10, l_2 = 11 — the ideal hyperplane of Figure 6.
        assert_eq!(model.total_coeffs().as_slice(), &[10.0, 11.0]);
        // The sparse rows hold one entry per operator here.
        assert_eq!(model.nnz(), 4);
        assert_eq!(
            model.operator_sparse_row(OperatorId(2)).terms(),
            &[(1, 9.0)]
        );
    }

    #[test]
    fn operator_norms() {
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        assert_eq!(model.operator_norm(OperatorId(2)), 9.0);
        assert_eq!(model.operator_norm(OperatorId(0)), 4.0);
    }

    #[test]
    fn dense_view_matches_sparse_rows_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for graph in [example3_graph(), graph_with_zero_cost_operator()] {
            let model = LoadModel::derive(&graph).unwrap();
            let rows = dense_rows(&model);
            let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
            let lo = Matrix::from_rows(&refs);
            for j in 0..model.num_operators() {
                assert_eq!(
                    model.operator_norm(OperatorId(j)).to_bits(),
                    lo.row_vector(j).norm().to_bits(),
                    "norm of operator {j}"
                );
            }
            // And the cached totals match a dense column sum bit-for-bit.
            assert_eq!(
                bits(model.total_coeffs().as_slice()),
                bits(lo.col_sums().as_slice())
            );
        }
        // The zero-cost operator's norm is +0.0, as the dense loop gives.
        let model = LoadModel::derive(&graph_with_zero_cost_operator()).unwrap();
        assert_eq!(model.operator_sparse_row(OperatorId(1)).nnz(), 0);
        assert_eq!(
            model.operator_norm(OperatorId(1)).to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn serde_round_trips_through_sparse_form() {
        let model = LoadModel::derive(&example3_graph()).unwrap();
        let back = LoadModel::from_value(&model.to_value()).unwrap();
        assert_eq!(back.num_operators(), model.num_operators());
        assert_eq!(back.sparse_lo(), model.sparse_lo());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(back.total_coeffs().as_slice()),
            bits(model.total_coeffs().as_slice())
        );
        assert_eq!(bits(&back.norms), bits(&model.norms));
    }

    /// Figure 4's model as a JSON object, with its `sparse` matrix
    /// swapped for `sparse`.
    fn with_sparse(sparse: SparseLoadMatrix) -> Value {
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let Value::Object(mut pairs) = model.to_value() else {
            panic!("a model serialises to an object");
        };
        for (name, value) in &mut pairs {
            if name == "sparse" {
                *value = sparse.to_value();
            }
        }
        Value::Object(pairs)
    }

    #[test]
    fn a_matrix_of_the_wrong_width_is_rejected() {
        let rows = [
            [4.0, 0.0, 0.0],
            [6.0, 0.0, 0.0],
            [0.0, 9.0, 0.0],
            [0.0, 2.0, 0.0],
        ];
        let sparse = SparseLoadMatrix::from_dense_rows(3, rows.iter().map(|r| r.as_slice()));
        let err = LoadModel::from_value(&with_sparse(sparse)).unwrap_err();
        assert!(
            err.to_string().contains("3 columns for 2 rate variables"),
            "{err}"
        );
    }

    #[test]
    fn a_negative_load_coefficient_is_rejected() {
        let rows = [[4.0, 0.0], [6.0, 0.0], [0.0, -9.0], [0.0, 2.0]];
        let sparse = SparseLoadMatrix::from_dense_rows(2, rows.iter().map(|r| r.as_slice()));
        let err = LoadModel::from_value(&with_sparse(sparse)).unwrap_err();
        assert!(
            err.to_string()
                .contains("operator o2 has load coefficient -9 in column 1"),
            "{err}"
        );
    }

    #[test]
    fn total_load_matches_sum_of_operator_loads() {
        let g = example3_graph();
        let model = LoadModel::derive(&g).unwrap();
        let rates = [3.0, 2.0];
        let x = model.variable_point(&rates);
        let direct: f64 = g.operator_loads(&rates).iter().sum();
        assert!((model.total_load(&x) - direct).abs() < 1e-9 * (1.0 + direct));
    }

    #[test]
    fn no_degenerate_vars_in_examples() {
        assert!(!LoadModel::derive(&figure4_graph())
            .unwrap()
            .has_degenerate_vars());
        assert!(!LoadModel::derive(&example3_graph())
            .unwrap()
            .has_degenerate_vars());
    }

    #[test]
    fn introduced_vars_are_discoverable() {
        let g = example3_graph();
        let model = LoadModel::derive(&g).unwrap();
        let joins: Vec<_> = g
            .operators()
            .iter()
            .filter(|o| matches!(o.kind, crate::operator::OperatorKind::WindowJoin { .. }))
            .collect();
        assert_eq!(joins.len(), 1);
        assert!(model.introduced_var_of(joins[0].id).is_some());
        assert!(model.introduced_var_of(OperatorId(0)).is_some()); // o1 variable-selectivity
    }
}
