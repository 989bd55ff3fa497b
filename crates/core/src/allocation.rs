//! Operator allocations, node load matrices, weight matrices, and plan
//! evaluation.
//!
//! An [`Allocation`] is the paper's 0/1 matrix `A = {a_ij}` (here stored as
//! one node per operator). From it and the load model follow the node
//! load-coefficient matrix `L^n = A·L^o`, the normalised [`WeightMatrix`]
//! `w_ik = (l^n_ik / l_k) / (C_i / C_T)` of §3.3, and the exact feasible
//! region. The [`PlanEvaluator`] bundles the model and cluster so that the
//! same machinery scores ROD plans and every baseline identically.

use serde::{Deserialize, Serialize};

use rod_geom::{FeasibleRegion, Hyperplane, Matrix, Vector};

use crate::cluster::Cluster;
use crate::eval::IncrementalPlanEval;
use crate::ids::{NodeId, OperatorId};
use crate::load_model::LoadModel;

/// An assignment of operators to nodes (the allocation matrix `A`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// `assignment[j]` is the node hosting operator `j` (None while the
    /// plan is under construction).
    assignment: Vec<Option<NodeId>>,
    num_nodes: usize,
}

impl Allocation {
    /// An empty allocation of `num_operators` operators over `num_nodes`
    /// nodes.
    pub fn new(num_operators: usize, num_nodes: usize) -> Self {
        Allocation {
            assignment: vec![None; num_operators],
            num_nodes,
        }
    }

    /// Number of operators.
    pub fn num_operators(&self) -> usize {
        self.assignment.len()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Assigns (or re-assigns) an operator to a node.
    pub fn assign(&mut self, op: OperatorId, node: NodeId) {
        assert!(node.index() < self.num_nodes, "node out of range");
        self.assignment[op.index()] = Some(node);
    }

    /// The node hosting an operator, if assigned.
    pub fn node_of(&self, op: OperatorId) -> Option<NodeId> {
        self.assignment[op.index()]
    }

    /// Removes an operator's assignment, returning the node it sat on
    /// (search rollback; a no-op `None` when the operator was unplaced).
    pub fn unassign(&mut self, op: OperatorId) -> Option<NodeId> {
        self.assignment[op.index()].take()
    }

    /// True when every operator is placed.
    pub fn is_complete(&self) -> bool {
        self.assignment.iter().all(Option::is_some)
    }

    /// Operators placed on a node.
    pub fn operators_on(&self, node: NodeId) -> Vec<OperatorId> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(j, &n)| (n == Some(node)).then_some(OperatorId(j)))
            .collect()
    }

    /// Number of operators per node.
    pub fn node_counts(&self) -> Vec<usize> {
        let mut counts = vec![0; self.num_nodes];
        for n in self.assignment.iter().flatten() {
            counts[n.index()] += 1;
        }
        counts
    }

    /// Operators whose host differs between `self` and `other` (both
    /// directions of placed→moved; operators unplaced in either plan are
    /// reported too, since deploying one plan over the other would touch
    /// them). Useful for measuring how disruptive a re-plan would be.
    pub fn diff(&self, other: &Allocation) -> Vec<OperatorId> {
        assert_eq!(self.num_operators(), other.num_operators());
        (0..self.assignment.len())
            .map(OperatorId)
            .filter(|&op| self.node_of(op) != other.node_of(op))
            .collect()
    }
}

/// The normalised weight matrix `W = {w_ik}` of §3.3:
/// `w_ik = (l^n_ik / l_k) / (C_i / C_T)` — the share of stream `k`'s total
/// load carried by node `i`, relative to the node's share of total
/// capacity. The ideal plan of Theorem 1 has every `w_ik = 1`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WeightMatrix {
    w: Matrix,
}

impl WeightMatrix {
    /// Builds `W` from a node load matrix, the stream totals `l_k`, and
    /// the cluster capacities. Streams with zero total coefficient (no
    /// operator loads them) get weight 0 on every node.
    pub fn new(ln: &Matrix, total_coeffs: &Vector, cluster: &Cluster) -> Self {
        assert_eq!(ln.cols(), total_coeffs.dim());
        assert_eq!(ln.rows(), cluster.num_nodes());
        let ct = cluster.total_capacity();
        let mut w = Matrix::zeros(ln.rows(), ln.cols());
        for i in 0..ln.rows() {
            let rel = cluster.capacity(NodeId(i)) / ct;
            for k in 0..ln.cols() {
                let lk = total_coeffs[k];
                w[(i, k)] = if lk > 0.0 {
                    (ln[(i, k)] / lk) / rel
                } else {
                    0.0
                };
            }
        }
        WeightMatrix { w }
    }

    /// The raw matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.w
    }

    /// The normalised node hyperplane of node `i`: `W_i · x = 1`.
    pub fn node_hyperplane(&self, i: NodeId) -> Hyperplane {
        Hyperplane::new(self.w.row_vector(i.index()), 1.0)
    }

    /// Plane distance of node `i` from the origin: `1 / ‖W_i‖₂` (§4.2).
    pub fn plane_distance(&self, i: NodeId) -> f64 {
        self.node_hyperplane(i).plane_distance()
    }

    /// The MMPD objective `r = min_i 1/‖W_i‖₂`. An empty cluster-wide
    /// minimum (all nodes empty) is `+inf`.
    pub fn min_plane_distance(&self) -> f64 {
        (0..self.w.rows())
            .map(|i| self.plane_distance(NodeId(i)))
            .fold(f64::INFINITY, f64::min)
    }

    /// The MMPD objective measured from a normalised lower-bound point
    /// `B̃` (§6.1): `r = min_i (1 - W_i·B̃)/‖W_i‖₂`.
    pub fn min_plane_distance_from(&self, b: &Vector) -> f64 {
        (0..self.w.rows())
            .map(|i| self.node_hyperplane(NodeId(i)).distance_from(b))
            .fold(f64::INFINITY, f64::min)
    }

    /// The per-axis MMAD objective: `min_i 1/w_ik` for each axis `k`
    /// (§4.1). `+inf` entries mean no node loads that stream.
    pub fn min_axis_distances(&self) -> Vector {
        Vector::new(
            (0..self.w.cols())
                .map(|k| {
                    (0..self.w.rows())
                        .map(|i| {
                            let w = self.w[(i, k)];
                            if w == 0.0 {
                                f64::INFINITY
                            } else {
                                1.0 / w
                            }
                        })
                        .fold(f64::INFINITY, f64::min)
                })
                .collect(),
        )
    }

    /// Largest single weight in the matrix.
    pub fn max_weight(&self) -> f64 {
        (0..self.w.rows())
            .flat_map(|i| (0..self.w.cols()).map(move |k| (i, k)))
            .map(|(i, k)| self.w[(i, k)])
            .fold(0.0, f64::max)
    }
}

/// Evaluates allocations of one load model on one cluster.
#[derive(Clone, Debug)]
pub struct PlanEvaluator<'a> {
    model: &'a LoadModel,
    cluster: &'a Cluster,
}

impl<'a> PlanEvaluator<'a> {
    /// Creates an evaluator. Panics on an invalid cluster — the cluster is
    /// part of the problem statement and must be checked up front.
    pub fn new(model: &'a LoadModel, cluster: &'a Cluster) -> Self {
        cluster.validate().expect("invalid cluster");
        PlanEvaluator { model, cluster }
    }

    /// The model being evaluated.
    pub fn model(&self) -> &LoadModel {
        self.model
    }

    /// The cluster being evaluated against.
    pub fn cluster(&self) -> &Cluster {
        self.cluster
    }

    /// Builds the incremental evaluation state for a plan — the layer
    /// every accessor below is a snapshot of. Callers probing many
    /// single-operator variations should hold onto this instead of
    /// re-deriving matrices per variation.
    pub fn incremental(&self, alloc: &Allocation) -> IncrementalPlanEval<'_> {
        IncrementalPlanEval::from_allocation(self.model, self.cluster, alloc)
    }

    /// Node load-coefficient matrix of a plan.
    pub fn node_load_matrix(&self, alloc: &Allocation) -> Matrix {
        self.incremental(alloc).node_load_matrix()
    }

    /// Normalised weight matrix of a plan.
    pub fn weight_matrix(&self, alloc: &Allocation) -> WeightMatrix {
        self.incremental(alloc).snapshot().weights
    }

    /// Exact feasible region `{x ≥ 0 : L^n x ≤ C}` in variable space.
    pub fn feasible_region(&self, alloc: &Allocation) -> FeasibleRegion {
        self.incremental(alloc).snapshot().region
    }

    /// The MMPD score of a plan (`min_i 1/‖W_i‖`).
    pub fn min_plane_distance(&self, alloc: &Allocation) -> f64 {
        self.weight_matrix(alloc).min_plane_distance()
    }

    /// Per-node loads at a concrete *system input* rate point, via the
    /// linearised model (exact for introduced variables too, since their
    /// values come from true rate propagation).
    pub fn node_loads_at(&self, alloc: &Allocation, input_rates: &[f64]) -> Vector {
        let x = self.model.variable_point(input_rates);
        self.node_load_matrix(alloc).matvec(&x)
    }

    /// True when no node is overloaded at a system-input rate point.
    pub fn is_feasible_at(&self, alloc: &Allocation, input_rates: &[f64]) -> bool {
        let loads = self.node_loads_at(alloc, input_rates);
        (0..self.cluster.num_nodes()).all(|i| loads[i] <= self.cluster.capacity(NodeId(i)) + 1e-12)
    }

    /// Per-node CPU utilisation (load / capacity) at a rate point.
    pub fn utilisations_at(&self, alloc: &Allocation, input_rates: &[f64]) -> Vector {
        let loads = self.node_loads_at(alloc, input_rates);
        Vector::new(
            (0..self.cluster.num_nodes())
                .map(|i| loads[i] / self.cluster.capacity(NodeId(i)))
                .collect(),
        )
    }

    /// The ideal feasible region of Theorem 1 — a single constraint
    /// `Σ l_k x_k ≤ C_T` (every plan's region is contained in it).
    pub fn ideal_region(&self) -> FeasibleRegion {
        let d = self.model.num_vars();
        let mut row = Matrix::zeros(1, d);
        row.row_mut(0)
            .copy_from_slice(self.model.total_coeffs().as_slice());
        FeasibleRegion::new(row, Vector::new(vec![self.cluster.total_capacity()]))
    }

    /// Exact volume of the ideal feasible set,
    /// `C_T^d / (d! ∏_k l_k)` (Theorem 1). `None` when some `l_k = 0`
    /// (degenerate axis → unbounded ideal set).
    pub fn ideal_volume(&self) -> Option<f64> {
        if self.model.has_degenerate_vars() {
            return None;
        }
        Some(rod_geom::simplex_volume(
            self.model.total_coeffs().as_slice(),
            self.cluster.total_capacity(),
        ))
    }

    /// Number of operator-to-operator arcs that cross between nodes under
    /// a plan — the data-communication metric that §5.2 suggests using to
    /// break Class-I ties and that §6.3 clustering minimises.
    pub fn internode_arcs(&self, alloc: &Allocation) -> usize {
        self.model
            .graph()
            .operator_arcs()
            .iter()
            .filter(|(p, c, _)| {
                match (alloc.node_of(*p), alloc.node_of(*c)) {
                    (Some(a), Some(b)) => a != b,
                    // Unplaced endpoints cannot be said to cross.
                    _ => false,
                }
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::{example2_plans, figure4_graph};

    fn setup() -> (LoadModel, Cluster) {
        (
            LoadModel::derive(&figure4_graph()).unwrap(),
            Cluster::homogeneous(2, 1.0),
        )
    }

    #[test]
    fn allocation_bookkeeping() {
        let mut a = Allocation::new(3, 2);
        assert!(!a.is_complete());
        a.assign(OperatorId(0), NodeId(0));
        a.assign(OperatorId(1), NodeId(1));
        a.assign(OperatorId(2), NodeId(1));
        assert!(a.is_complete());
        assert_eq!(a.node_of(OperatorId(2)), Some(NodeId(1)));
        assert_eq!(
            a.operators_on(NodeId(1)),
            vec![OperatorId(1), OperatorId(2)]
        );
        assert_eq!(a.node_counts(), vec![1, 2]);
    }

    #[test]
    fn diff_reports_moved_operators() {
        let mut a = Allocation::new(3, 2);
        a.assign(OperatorId(0), NodeId(0));
        a.assign(OperatorId(1), NodeId(1));
        a.assign(OperatorId(2), NodeId(0));
        let mut b = a.clone();
        assert!(a.diff(&b).is_empty());
        b.assign(OperatorId(2), NodeId(1));
        assert_eq!(a.diff(&b), vec![OperatorId(2)]);
        // Unplaced-vs-placed counts as a difference.
        let empty = Allocation::new(3, 2);
        assert_eq!(a.diff(&empty).len(), 3);
    }

    #[test]
    fn weight_matrix_of_plan_a() {
        // Plan (a): L^n = [[4,2],[6,9]], l = (10,11), C_i/C_T = 1/2.
        // W = [[0.8, 4/11], [1.2, 18/11]].
        let (model, cluster) = setup();
        let [a, _, _] = example2_plans();
        let ev = PlanEvaluator::new(&model, &cluster);
        let w = ev.weight_matrix(&a);
        let m = w.matrix();
        assert!((m[(0, 0)] - 0.8).abs() < 1e-12);
        assert!((m[(0, 1)] - 4.0 / 11.0).abs() < 1e-12);
        assert!((m[(1, 0)] - 1.2).abs() < 1e-12);
        assert!((m[(1, 1)] - 18.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn plane_and_axis_distances() {
        let (model, cluster) = setup();
        let [a, _, _] = example2_plans();
        let ev = PlanEvaluator::new(&model, &cluster);
        let w = ev.weight_matrix(&a);
        // Node 2 is the binding one: ||W_2|| = sqrt(1.44 + (18/11)^2).
        let n2 = (1.2f64 * 1.2 + (18.0 / 11.0) * (18.0 / 11.0)).sqrt();
        assert!((w.min_plane_distance() - 1.0 / n2).abs() < 1e-12);
        let ax = w.min_axis_distances();
        assert!((ax[0] - 1.0 / 1.2).abs() < 1e-12);
        assert!((ax[1] - 11.0 / 18.0).abs() < 1e-12);
    }

    #[test]
    fn feasibility_at_points() {
        let (model, cluster) = setup();
        let [a, _, _] = example2_plans();
        let ev = PlanEvaluator::new(&model, &cluster);
        // Origin is always feasible; far point is not.
        assert!(ev.is_feasible_at(&a, &[0.0, 0.0]));
        assert!(!ev.is_feasible_at(&a, &[1.0, 1.0]));
        // On plan (a): node loads at (0.1, 0.05) are (0.5, 1.05)·... :
        // N1 = 4*.1 + 2*.05 = 0.5 <= 1; N2 = 6*.1 + 9*.05 = 1.05 > 1.
        assert!(!ev.is_feasible_at(&a, &[0.1, 0.05]));
        assert!(ev.is_feasible_at(&a, &[0.05, 0.05]));
    }

    #[test]
    fn utilisations_match_loads() {
        let (model, cluster) = setup();
        let [a, _, _] = example2_plans();
        let ev = PlanEvaluator::new(&model, &cluster);
        let u = ev.utilisations_at(&a, &[0.05, 0.05]);
        assert!((u[0] - 0.3).abs() < 1e-12);
        assert!((u[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ideal_volume_formula() {
        let (model, cluster) = setup();
        let ev = PlanEvaluator::new(&model, &cluster);
        // C_T = 2, d = 2, l = (10, 11): V* = 4 / (2·110) = 1/55.
        assert!((ev.ideal_volume().unwrap() - 1.0 / 55.0).abs() < 1e-15);
    }

    #[test]
    fn internode_arcs_counted() {
        let (model, cluster) = setup();
        let ev = PlanEvaluator::new(&model, &cluster);
        let [a, _, c] = example2_plans();
        // Plan (a) splits both chains: o1|o2 and o3|o4 cross → 2 arcs.
        assert_eq!(ev.internode_arcs(&a), 2);
        // Plan (c) keeps each chain whole → 0 arcs.
        assert_eq!(ev.internode_arcs(&c), 0);
    }

    #[test]
    fn empty_allocation_has_infinite_plane_distance() {
        let (model, cluster) = setup();
        let ev = PlanEvaluator::new(&model, &cluster);
        let empty = Allocation::new(4, 2);
        assert_eq!(ev.min_plane_distance(&empty), f64::INFINITY);
    }

    #[test]
    fn lower_bound_distance_shrinks() {
        let (model, cluster) = setup();
        let [a, _, _] = example2_plans();
        let ev = PlanEvaluator::new(&model, &cluster);
        let w = ev.weight_matrix(&a);
        let from_origin = w.min_plane_distance();
        let from_b = w.min_plane_distance_from(&Vector::from([0.1, 0.1]));
        assert!(from_b < from_origin);
    }
}
