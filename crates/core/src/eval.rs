//! Incremental plan evaluation — the shared scoring layer under every
//! planner.
//!
//! The ROD inner loop (§5, Figure 10), the brute-force optimum (§7.3.1),
//! and the headroom/metrics paths all ask the same questions of a
//! *partial* allocation: what are the node load coefficients, the
//! normalised weight rows, and the plane/axis distances — and how would
//! they change if operator `j` moved to node `i`? Rebuilding `L^n` and
//! `W` from scratch for every candidate costs O(n·d) per probe and
//! O(m·n²·d) per placement run. But a single-operator move touches
//! exactly one row of every matrix, so the greedy moves the paper frames
//! placement around are naturally O(d) delta-updates:
//!
//! ```text
//! assign(j → i):   l^n_ik += l^o_jk                          (k = 1..d)
//!                  w_ik    = (l^n_ik / l_k) / (C_i / C_T)
//!                  1/‖W_i‖ recomputed from the one touched row
//! ```
//!
//! [`IncrementalPlanEval`] owns that state and keeps it consistent under
//! [`assign`](IncrementalPlanEval::assign) /
//! [`unassign`](IncrementalPlanEval::unassign), while
//! [`score_candidate`](IncrementalPlanEval::score_candidate) answers the
//! what-if question without mutating anything. A
//! [`snapshot`](IncrementalPlanEval::snapshot) materialises the exact
//! same [`WeightMatrix`] / [`FeasibleRegion`] the from-scratch path
//! produces, so downstream geometry is unchanged.
//!
//! **Sparsity.** Operator load rows come from the model's
//! [`rod_geom::SparseRow`] storage, and each node tracks the sorted
//! *support* of its load row — the columns currently holding a nonzero.
//! Assign, unassign, and candidate scoring then cost O(nnz) instead of
//! O(d'), while staying bit-identical to the dense loops: a column outside
//! the support holds exactly `0.0`, its weight is exactly `+0.0`, and a
//! `+0.0` term never changes an IEEE-754 accumulation that started at
//! `+0.0`. Membership is decided by the *value* of the load cell, not by
//! bookkeeping counts: after an unassign a cell may keep a tiny
//! floating-point residue (`(a+b)−b ≠ a` in general), and the dense
//! reference would fold that residue's weight into the norm — so the
//! support keeps exactly the cells that are nonzero, residues included.
//!
//! The sampled side of the layer is the crate-private `SampledLoads`
//! table. It holds each operator's load at every quasi-Monte-Carlo
//! point, and its one kernel adds an operator's loads to a node's
//! P-float row and clears, in a P-bit alive mask, every point now over
//! that node's capacity. A point is feasible exactly when every loaded
//! node keeps it, so an alive count is a popcount of ANDed masks. The
//! survivor scorer memoises one mask per (node, operator set); the
//! branch-and-bound optimum extends one row and one mask per search
//! depth, and since adding operators only kills points, the popcount at
//! a depth bounds every completion below it.

use rod_geom::{FeasibleRegion, Matrix, PointBatch, SparseLoadMatrix, Vector};

use crate::allocation::{Allocation, WeightMatrix};
use crate::cluster::Cluster;
use crate::ids::{NodeId, OperatorId};
use crate::load_model::LoadModel;

mod exclusion;

pub(crate) use exclusion::{ExclusionGate, NodeColumns, BLOCK};

/// What [`IncrementalPlanEval::score_candidate`] reports about a
/// hypothetical single-operator assignment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CandidateScore {
    /// Candidate plane distance of the receiving node: `1/‖W'_i‖₂`, or
    /// `(1 − W'_i·B̃)/‖W'_i‖₂` under a §6.1 lower bound. `+inf` for an
    /// all-zero candidate row.
    pub plane_distance: f64,
    /// True when every candidate weight stays at or below 1 (within the
    /// `1e-12` tolerance) — the node remains **Class I**: its hyperplane
    /// does not cross the ideal hyperplane.
    pub class_one: bool,
}

/// What [`IncrementalPlanEval::candidate_bound`] proves about a
/// hypothetical single-operator assignment in O(nnz of the operator),
/// without walking the node's support.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CandidateBound {
    /// Never below the `plane_distance` that
    /// [`IncrementalPlanEval::score_candidate`] reports for the same
    /// assignment, bit for bit.
    pub plane_distance: f64,
    /// Exactly the `class_one` that `score_candidate` reports.
    pub class_one: bool,
}

/// A from-scratch view of the current partial plan, materialised by
/// [`IncrementalPlanEval::snapshot`]. Identical to what
/// [`crate::allocation::PlanEvaluator`] builds for the same allocation.
#[derive(Clone, Debug)]
pub struct PlanSnapshot {
    /// The normalised weight matrix `W` of §3.3.
    pub weights: WeightMatrix,
    /// The exact feasible region `{x ≥ 0 : L^n x ≤ C}`.
    pub region: FeasibleRegion,
}

/// Incrementally-maintained evaluation state for one partial
/// [`Allocation`] of one load model on one cluster.
#[derive(Clone, Debug)]
pub struct IncrementalPlanEval<'a> {
    /// The placeable rows `L^o_j`, one per operator.
    lo: &'a SparseLoadMatrix,
    /// Column totals `l_k` the weights are normalised by.
    totals: &'a Vector,
    cluster: &'a Cluster,
    n: usize,
    d: usize,
    /// Per-node relative capacity `C_i / C_T`.
    rel: Vec<f64>,
    /// Per-node `1/(C_i/C_T)²`, the pre-bound's scale.
    inv_rel_sq: Vec<f64>,
    /// Node load coefficients `l^n_ik`, flat n×d.
    ln: Vec<f64>,
    /// Normalised weights `w_ik`, flat n×d, kept consistent with `ln`.
    w: Vec<f64>,
    /// Per-node plane distance `1/‖W_i‖₂` (`+inf` for an empty node).
    plane: Vec<f64>,
    /// Per-node squared weight norm `‖W_i‖₂²`, the sum `plane` is the
    /// inverse square root of.
    sumsq: Vec<f64>,
    /// Per-node largest weight `max_k w_ik` (0 for an empty node).
    max_w: Vec<f64>,
    /// Per-node count of load cells below zero (unassign residues).
    negative_cells: Vec<u32>,
    /// Per-node sorted column support: exactly the `k` with
    /// `ln[i·d + k] != 0.0`.
    support: Vec<Vec<u32>>,
    /// Relative rounding margin of the candidate bounds, `(3d' + 32)·2⁻⁵³`
    /// (DESIGN.md §10, "Pruned Phase-2 scan").
    bound_margin: f64,
    /// Normalised §6.1 lower-bound point `B̃`, if configured.
    lower_bound: Option<Vector>,
    /// False when `B̃` has a negative or NaN component: then
    /// `1 − W'·B̃` can exceed 1 and no distance bound holds.
    lower_bound_nonnegative: bool,
    alloc: Allocation,
}

/// `2⁻¹⁰⁰⁰`, added to the sum a bound's margin scales, so the margin
/// also covers the absolute error of products that underflow (DESIGN.md
/// §10).
const UNDERFLOW_FLOOR: f64 = 9.332_636_185_032_189e-302;

/// `1/√x`, the plane distance of squared norm `x`, or `+inf` when `x` is
/// not positive (an empty row, or a lower estimate the margin wiped out).
/// Non-increasing in `x`: both roundings are monotone.
pub(crate) fn distance_of_sumsq(x: f64) -> f64 {
    if x > 0.0 {
        1.0 / x.sqrt()
    } else {
        f64::INFINITY
    }
}

/// A squared norm from which on [`distance_of_sumsq`] is at most `t`:
/// `distance_of_sumsq(x) <= t` for every `x >= sumsq_floor(t)`, since
/// the distance is non-increasing. The pruned Phase-2 scan compares its
/// squared-norm bounds with this floor instead of taking a square root
/// and a division per node. NaN, which no comparison passes, when `t` is
/// not positive or is NaN; `-inf` when `t` is `+inf`.
pub(crate) fn sumsq_floor(t: f64) -> f64 {
    if t.is_nan() || t <= 0.0 {
        return f64::NAN;
    }
    if t == f64::INFINITY {
        return f64::NEG_INFINITY;
    }
    let x = 1.0 / t / t;
    if x >= f64::MIN_POSITIVE {
        // No rounding underflowed: `x ≥ (1 − u)²/t²`, and with the factor
        // the result is `≥ (1 − u)⁻²/t²`, where `fl(√·) ≥ (1 − u)·√·`
        // puts `1/fl(√·)` at or below `t` before its own rounding.
        return x * (1.0 + 8.0 * (f64::EPSILON / 2.0));
    }
    // Past the normal range the relative bounds fail: step up one float
    // at a time (`x` is non-negative and finite) until it holds.
    let mut x = x;
    while distance_of_sumsq(x) > t {
        x = f64::from_bits(x.to_bits() + 1);
    }
    x
}

impl<'a> IncrementalPlanEval<'a> {
    /// Evaluation state for an empty allocation of a model's operators.
    /// Panics on an invalid cluster (the cluster is part of the problem
    /// statement).
    pub fn new(model: &'a LoadModel, cluster: &'a Cluster) -> Self {
        IncrementalPlanEval::from_rows(model.sparse_lo(), model.total_coeffs(), cluster)
    }

    /// Evaluation state for an empty allocation of the rows of `lo`, with
    /// weights normalised by `totals`. [`new`](Self::new) passes a
    /// model's own rows and column sums; clustered placement passes
    /// super-operator rows with the model's column sums, which the
    /// super-rows' own sums would not reproduce bit for bit. Panics on an
    /// invalid cluster.
    pub(crate) fn from_rows(
        lo: &'a SparseLoadMatrix,
        totals: &'a Vector,
        cluster: &'a Cluster,
    ) -> Self {
        cluster.validate().expect("invalid cluster");
        let n = cluster.num_nodes();
        let d = lo.num_cols();
        let ct = cluster.total_capacity();
        let rel: Vec<f64> = (0..n).map(|i| cluster.capacity(NodeId(i)) / ct).collect();
        let inv_rel_sq = rel.iter().map(|r| 1.0 / (r * r)).collect();
        IncrementalPlanEval {
            lo,
            totals,
            cluster,
            n,
            d,
            rel,
            inv_rel_sq,
            ln: vec![0.0; n * d],
            w: vec![0.0; n * d],
            plane: vec![f64::INFINITY; n],
            sumsq: vec![0.0; n],
            max_w: vec![0.0; n],
            negative_cells: vec![0; n],
            support: vec![Vec::new(); n],
            bound_margin: (3 * d + 32) as f64 * (f64::EPSILON / 2.0),
            lower_bound: None,
            lower_bound_nonnegative: true,
            alloc: Allocation::new(lo.num_rows(), n),
        }
    }

    /// Evaluation state seeded from an existing (possibly partial)
    /// allocation: operators are re-applied in index order, so the load
    /// sums match the from-scratch accumulation exactly.
    pub fn from_allocation(
        model: &'a LoadModel,
        cluster: &'a Cluster,
        existing: &Allocation,
    ) -> Self {
        assert_eq!(existing.num_operators(), model.num_operators());
        assert_eq!(existing.num_nodes(), cluster.num_nodes());
        let mut eval = IncrementalPlanEval::new(model, cluster);
        for j in 0..model.num_operators() {
            let op = OperatorId(j);
            if let Some(node) = existing.node_of(op) {
                eval.assign(op, node);
            }
        }
        eval
    }

    /// Installs the §6.1 workload lower bound, given as a point in
    /// variable space (the [`LoadModel::variable_point`] of a bound on
    /// the system input rates). The point is normalised
    /// (`b̃_k = b_k l_k / C_T`); candidate plane distances are then
    /// measured from `B̃` instead of the origin.
    pub fn set_lower_bound(&mut self, var_point: &Vector) {
        let ct = self.cluster.total_capacity();
        let point: Vec<f64> = (0..self.d)
            .map(|k| var_point[k] * self.totals[k] / ct)
            .collect();
        self.lower_bound_nonnegative = point.iter().all(|&b| b >= 0.0);
        self.lower_bound = Some(Vector::new(point));
    }

    /// The cluster being evaluated against.
    pub fn cluster(&self) -> &Cluster {
        self.cluster
    }

    /// The current partial allocation.
    pub fn allocation(&self) -> &Allocation {
        &self.alloc
    }

    /// Consumes the evaluator, returning the allocation it built.
    pub fn into_allocation(self) -> Allocation {
        self.alloc
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of rate variables `d`.
    pub fn num_vars(&self) -> usize {
        self.d
    }

    /// The current load-coefficient row of one node.
    pub fn node_load_row(&self, node: NodeId) -> &[f64] {
        &self.ln[node.index() * self.d..(node.index() + 1) * self.d]
    }

    /// The current normalised weight row of one node.
    pub fn weight_row(&self, node: NodeId) -> &[f64] {
        &self.w[node.index() * self.d..(node.index() + 1) * self.d]
    }

    /// Plane distance `1/‖W_i‖₂` of one node (`+inf` when empty).
    ///
    /// On a node that passes [`Self::admits_bounds`] this is also a
    /// rigorous upper bound — in IEEE-754 round-to-nearest, not merely in
    /// exact arithmetic — on the `plane_distance` that
    /// [`Self::score_candidate`] can report for *any* operator with
    /// non-negative loads on this node, in both distance modes: candidate
    /// weights dominate current weights componentwise (loads only grow,
    /// and every float operation involved is monotone), so the candidate
    /// norm dominates the current norm, and under a non-negative §6.1
    /// bound the numerator `1 − W'·B̃ ≤ 1`. A negative load cell breaks
    /// both steps: adding to it can shrink `|w_ik|`, and a negative
    /// weight can push `1 − W'·B̃` above 1. The pruned phase-2 scan relies
    /// on this to skip nodes without scoring them.
    pub fn plane_distance(&self, node: NodeId) -> f64 {
        self.plane[node.index()]
    }

    /// True when the candidate-distance bounds hold on this node: none of
    /// its load cells is negative, and the §6.1 point, if set, has no
    /// negative component. Cells only go negative through unassign
    /// residues (assign `1.0` then `1e16` to one cell, unassign the
    /// `1e16` operator, then the `1.0` one: the cell reads `−1.0`), so a
    /// node that has only received assigns always passes.
    pub fn admits_bounds(&self, node: NodeId) -> bool {
        self.lower_bound_nonnegative && self.negative_cells[node.index()] == 0
    }

    /// `Σ_k (l^o_jk / l_k)²` over the operator's columns with `l_k > 0`:
    /// the per-operator input of [`Self::pre_bound`], computed once per
    /// Phase-2 step. `None` when no bound holds for this operator: a
    /// negative or NaN load coefficient, or a §6.1 point with a negative
    /// component.
    pub fn bound_input(&self, op: OperatorId) -> Option<f64> {
        if !self.lower_bound_nonnegative {
            return None;
        }
        let mut q = 0.0;
        for &(k, v) in self.lo.row(op.index()).terms() {
            if v.is_nan() || v < 0.0 {
                return None;
            }
            let lk = self.totals[k as usize];
            if lk > 0.0 {
                let p = v / lk;
                q += p * p;
            }
        }
        Some(q)
    }

    /// O(1) upper bound on the `plane_distance` [`Self::score_candidate`]
    /// reports for the operator whose [`Self::bound_input`] is `q` on
    /// `node`, or `None` when the node fails [`Self::admits_bounds`].
    /// With every cell and load non-negative, `(a + b)² ≥ a² + b²` puts
    /// the candidate's squared norm at or above `‖W_i‖₂² + q/(C_i/C_T)²`;
    /// that estimate less its rounding margin is at or below the sum the
    /// probe computes (DESIGN.md §10).
    pub fn pre_bound(&self, q: f64, node: NodeId) -> Option<f64> {
        let sumsq = self.node_columns().pre_bound(q, node.index());
        self.admits_bounds(node).then(|| distance_of_sumsq(sumsq))
    }

    /// The per-node arrays the pruned Phase-2 walk's O(1) exclusion
    /// checks read: max weight, plane distance, squared norm,
    /// `1/(C_i/C_T)²` and negative-cell count.
    pub(crate) fn node_columns(&self) -> NodeColumns<'_> {
        NodeColumns {
            max_w: &self.max_w,
            plane: &self.plane,
            sumsq: &self.sumsq,
            inv_rel_sq: &self.inv_rel_sq,
            negative_cells: &self.negative_cells,
            margin: self.bound_margin,
        }
    }

    /// O(nnz of the operator) upper bound on the `plane_distance`
    /// [`Self::score_candidate`] reports for `op` on `node`, and its exact
    /// Class-I verdict, or `None` when the node fails
    /// [`Self::admits_bounds`] or the operator has a negative load. The
    /// candidate's squared norm is the node's cached one, minus the
    /// squares of the operator's columns' current weights, plus the
    /// squares of their new weights — computed with `score_candidate`'s
    /// own expression — less a rounding margin (DESIGN.md §10). The node
    /// is Class I exactly when its current maximum weight and each new
    /// weight stay at or below `1 + 1e-12`: columns outside the operator
    /// keep their bits, and on its columns the new weight is never below
    /// the current one.
    pub fn candidate_bound(&self, op: OperatorId, node: NodeId) -> Option<CandidateBound> {
        self.candidate_bound_sumsq(op, node)
            .map(|(sumsq, class_one)| CandidateBound {
                plane_distance: distance_of_sumsq(sumsq),
                class_one,
            })
    }

    /// [`Self::candidate_bound`] before its `1/√`: the lower bound on the
    /// candidate's squared weight norm, which the pruned scan compares
    /// with a squared-norm floor, and the Class-I verdict.
    pub(crate) fn candidate_bound_sumsq(
        &self,
        op: OperatorId,
        node: NodeId,
    ) -> Option<(f64, bool)> {
        if !self.admits_bounds(node) {
            return None;
        }
        let i = node.index();
        let rel = self.rel[i];
        let (mut old, mut new) = (0.0, 0.0);
        let mut class_one = self.max_w[i] <= 1.0 + 1e-12;
        for &(k, v) in self.lo.row(op.index()).terms() {
            if v.is_nan() || v < 0.0 {
                return None;
            }
            let k = k as usize;
            let lk = self.totals[k];
            if lk > 0.0 {
                let w = self.w[i * self.d + k];
                let w_new = ((self.ln[i * self.d + k] + v) / lk) / rel;
                if w_new > 1.0 + 1e-12 {
                    class_one = false;
                }
                old += w * w;
                new += w_new * w_new;
            }
        }
        let s = self.sumsq[i];
        let margin = self.bound_margin * (s + new + UNDERFLOW_FLOOR);
        Some(((s - old) + new - margin, class_one))
    }

    /// The MMPD objective `min_i 1/‖W_i‖₂` over the current rows.
    pub fn min_plane_distance(&self) -> f64 {
        self.plane.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Minimum axis distance of one node, `min_k 1/w_ik = 1/max_k w_ik`
    /// (`+inf` when the node carries nothing).
    pub fn axis_distance(&self, node: NodeId) -> f64 {
        let m = self.max_w[node.index()];
        if m == 0.0 {
            f64::INFINITY
        } else {
            1.0 / m
        }
    }

    /// Largest normalised weight across all nodes.
    pub fn max_weight(&self) -> f64 {
        self.max_w.iter().copied().fold(0.0, f64::max)
    }

    /// Largest cached weight of one node (`0` when it carries nothing) —
    /// the cheap Class-I pre-filter of the pruned phase-2 scan: adding an
    /// operator never shrinks a weight, so a node whose current maximum
    /// already exceeds `1 + 1e-12` cannot yield a Class-I candidate.
    pub fn max_weight_of(&self, node: NodeId) -> f64 {
        self.max_w[node.index()]
    }

    /// True when the node's load row is entirely zero (empty support).
    /// All such nodes of equal relative capacity produce identical
    /// candidate scores for a given operator — once the pruned phase-2
    /// walk has probed one in a step, it skips the rest.
    pub fn node_is_unloaded(&self, node: NodeId) -> bool {
        self.support[node.index()].is_empty()
    }

    /// The node's relative capacity `C_i / C_T` exactly as the weight
    /// normalisation uses it. Unloaded-node candidate scores are a pure
    /// function of `(operator, C_i/C_T)`.
    pub fn relative_capacity_of(&self, node: NodeId) -> f64 {
        self.rel[node.index()]
    }

    /// Calls `f` on each unloaded node after `node` and before `end`
    /// whose relative capacity is bitwise `node`'s, ascending: once
    /// `node`, itself unloaded, has been probed for an operator, each of
    /// them would quote the same score.
    pub(crate) fn for_each_unloaded_twin(
        &self,
        node: NodeId,
        end: usize,
        mut f: impl FnMut(usize),
    ) {
        let key = self.rel[node.index()].to_bits();
        for j in node.index() + 1..end {
            if self.support[j].is_empty() && self.rel[j].to_bits() == key {
                f(j);
            }
        }
    }

    /// Assigns `op` to `node`, updating only the touched columns of that
    /// node's row (O(nnz of the operator + node support)). Panics if `op`
    /// is already placed — use [`unassign`](Self::unassign) first to model
    /// a move.
    pub fn assign(&mut self, op: OperatorId, node: NodeId) {
        assert!(
            self.alloc.node_of(op).is_none(),
            "operator {op:?} already assigned"
        );
        let i = node.index();
        let row = self.lo.row(op.index());
        for t in 0..row.nnz() {
            let (k, v) = (row.terms()[t].0 as usize, row.terms()[t].1);
            self.apply_delta(i, k, v);
        }
        self.alloc.assign(op, node);
        self.refresh_node(i);
    }

    /// Removes `op` from `node`, updating only the touched columns of
    /// that node's row (O(nnz of the operator + node support)). Panics
    /// unless `op` currently sits on `node`.
    pub fn unassign(&mut self, op: OperatorId, node: NodeId) {
        assert_eq!(
            self.alloc.node_of(op),
            Some(node),
            "operator {op:?} is not on node {node:?}"
        );
        let i = node.index();
        let row = self.lo.row(op.index());
        for t in 0..row.nnz() {
            let (k, v) = (row.terms()[t].0 as usize, row.terms()[t].1);
            self.apply_delta(i, k, -v);
        }
        self.alloc.unassign(op);
        self.refresh_node(i);
    }

    /// Adds `delta` to load cell `(i, k)`, recomputes its cached weight,
    /// keeps the support sorted by cell value (a cell is in the support
    /// iff it is nonzero — including unassign residues, which the dense
    /// reference would also fold into the norm), and counts the node's
    /// negative cells.
    fn apply_delta(&mut self, i: usize, k: usize, delta: f64) {
        let cell = &mut self.ln[i * self.d + k];
        let (was_zero, was_negative) = (*cell == 0.0, *cell < 0.0);
        *cell += delta;
        let (now_zero, now_negative) = (*cell == 0.0, *cell < 0.0);
        if was_negative != now_negative {
            if now_negative {
                self.negative_cells[i] += 1;
            } else {
                self.negative_cells[i] -= 1;
            }
        }
        let lk = self.totals[k];
        self.w[i * self.d + k] = if lk > 0.0 {
            (*cell / lk) / self.rel[i]
        } else {
            0.0
        };
        let sup = &mut self.support[i];
        if was_zero && !now_zero {
            let pos = sup.partition_point(|&c| (c as usize) < k);
            sup.insert(pos, k as u32);
        } else if !was_zero && now_zero {
            let pos = sup.partition_point(|&c| (c as usize) < k);
            debug_assert_eq!(sup.get(pos), Some(&(k as u32)));
            sup.remove(pos);
        }
    }

    /// Scores the hypothetical assignment of `op` to `node` without
    /// mutating anything: the candidate weight row
    /// `w'_ik = ((l^n_ik + l^o_jk)/l_k)/(C_i/C_T)` is folded — in one
    /// ascending walk over the node's support with a cursor into the
    /// operator's sparse row, O(nnz) — into the Class-I membership test
    /// and the candidate plane distance (measured from the §6.1 lower
    /// bound when one is set). Columns outside both sets would contribute
    /// an exact `+0.0` to every accumulator, so skipping them is
    /// bit-identical to the dense O(d') loop. On a support column outside
    /// the operator, `((l^n_ik + 0.0)/l_k)/(C_i/C_T)` is the cached
    /// weight bit for bit (a nonzero cell plus `+0.0` is itself), so the
    /// walk reads it instead of dividing twice. Every weight still meets
    /// the `1 + 1e-12` test: the cached maximum would be wrong for a row
    /// holding a negative load.
    pub fn score_candidate(&self, op: OperatorId, node: NodeId) -> CandidateScore {
        let i = node.index();
        let rel = self.rel[i];
        let row = i * self.d;
        let (ln, w) = (&self.ln[row..row + self.d], &self.w[row..row + self.d]);
        let sup = &self.support[i];
        let mut sumsq = 0.0;
        let mut wb = 0.0;
        let mut class_one = true;
        let mut fold = |k: usize, w: f64| {
            class_one &= w <= 1.0 + 1e-12 || w.is_nan();
            sumsq += w * w;
            if let Some(bnd) = &self.lower_bound {
                wb += w * bnd[k];
            }
        };
        let mut a = 0;
        for &(kt, v) in self.lo.row(op.index()).terms() {
            // The support columns before the operator's next one keep
            // their cached weights.
            while let Some(&k) = sup.get(a).filter(|&&k| k < kt) {
                fold(k as usize, w[k as usize]);
                a += 1;
            }
            a += usize::from(sup.get(a) == Some(&kt));
            let k = kt as usize;
            let lk = self.totals[k];
            fold(
                k,
                if lk > 0.0 {
                    ((ln[k] + v) / lk) / rel
                } else {
                    0.0
                },
            );
        }
        for &k in &sup[a..] {
            fold(k as usize, w[k as usize]);
        }
        let norm = sumsq.sqrt();
        let plane_distance = if norm == 0.0 {
            f64::INFINITY
        } else {
            match &self.lower_bound {
                None => 1.0 / norm,
                Some(_) => (1.0 - wb) / norm,
            }
        };
        CandidateScore {
            plane_distance,
            class_one,
        }
    }

    /// The node load-coefficient matrix `L^n` as a dense matrix.
    pub fn node_load_matrix(&self) -> Matrix {
        let mut ln = Matrix::zeros(self.n, self.d);
        for i in 0..self.n {
            ln.row_mut(i)
                .copy_from_slice(&self.ln[i * self.d..(i + 1) * self.d]);
        }
        ln
    }

    /// Materialises the from-scratch view of the current plan: the
    /// [`WeightMatrix`] and [`FeasibleRegion`] are built through the same
    /// constructors the non-incremental path uses, so every downstream
    /// consumer sees identical numbers.
    pub fn snapshot(&self) -> PlanSnapshot {
        let ln = self.node_load_matrix();
        let weights = WeightMatrix::new(&ln, self.totals, self.cluster);
        let region = FeasibleRegion::new(ln, self.cluster.capacities());
        PlanSnapshot { weights, region }
    }

    /// Rebuilds the cached squared norm, plane distance and max weight of
    /// one node from its current weight row, walking the support columns
    /// ascending (O(support)). Weights outside the support are exactly
    /// `+0.0`, so their squared terms never change the accumulation and
    /// the result is bit-identical to the dense O(d) sweep.
    fn refresh_node(&mut self, i: usize) {
        let mut sumsq = 0.0;
        let mut max_w = 0.0f64;
        for &k in &self.support[i] {
            let w = self.w[i * self.d + k as usize];
            sumsq += w * w;
            max_w = max_w.max(w);
        }
        let norm = sumsq.sqrt();
        self.plane[i] = if norm == 0.0 {
            f64::INFINITY
        } else {
            1.0 / norm
        };
        self.sumsq[i] = sumsq;
        self.max_w[i] = max_w;
    }
}

/// The per-operator loads of a quasi-Monte-Carlo point set and the node
/// capacities they are tested against, built once per (model, cluster,
/// point set): the one point-mask counter under the survivor scorer and
/// the branch-and-bound optimum.
///
/// A point is feasible under a whole assignment exactly when every
/// loaded node keeps it, so the AND of the loaded nodes' P-bit masks is
/// the alive set. [`add_and_clear`](SampledLoads::add_and_clear) is the
/// one loop that builds them: [`node_mask`](SampledLoads::node_mask)
/// runs it from a fresh row, and the branch-and-bound search from the
/// row and mask one depth up. Being `&self`, one table is shared
/// read-only by a survivor scorer and its forks, each of which memoises
/// the masks it computes.
#[derive(Clone, Debug)]
pub(crate) struct SampledLoads {
    num_points: usize,
    /// Per-operator load at each point, flat m×P: `op_loads[j·P + p] =
    /// L^o_j · x_p`. Precomputed once so a move costs O(P), not O(P·d).
    op_loads: Vec<f64>,
    caps: Vec<f64>,
}

impl SampledLoads {
    /// Builds the table for `lo` (the m×d sparse operator load
    /// coefficients), a transposed QMC point set, and per-node `caps`.
    /// The loads are accumulated column-wise via [`PointBatch::dot_into`],
    /// which keeps the exact per-point operand order of the scalar dot
    /// product, so every load — and every kill decision derived from
    /// one — is bit-identical to the row-major construction. Each sparse
    /// row is expanded into one reused dense scratch row, cleared again
    /// afterwards; the kernel skips zero coefficients, so the expansion
    /// adds no terms.
    pub(crate) fn from_batch(lo: &SparseLoadMatrix, batch: &PointBatch, caps: &[f64]) -> Self {
        let m = lo.num_rows();
        let p = batch.num_points();
        let mut op_loads = vec![0.0; m * p];
        if p > 0 {
            let mut coeffs = vec![0.0; lo.num_cols()];
            for (j, row) in lo.rows().iter().enumerate() {
                for (k, v) in row.iter() {
                    coeffs[k] = v;
                }
                batch.dot_into(&coeffs, &mut op_loads[j * p..(j + 1) * p]);
                for (k, _) in row.iter() {
                    coeffs[k] = 0.0;
                }
            }
        }
        SampledLoads {
            num_points: p,
            op_loads,
            caps: caps.to_vec(),
        }
    }

    /// Total number of points tracked.
    pub(crate) fn num_points(&self) -> usize {
        self.num_points
    }

    /// 64-bit words in one P-bit point mask.
    pub(crate) fn mask_words(&self) -> usize {
        self.num_points.div_ceil(64)
    }

    /// Marks every point alive: sets each bit of `mask` that names a
    /// point and clears the bits past P in its last word.
    pub(crate) fn fill_alive(&self, mask: &mut [u64]) {
        mask.fill(u64::MAX);
        if let Some(last) = mask.last_mut() {
            *last >>= (64 - self.num_points % 64) % 64;
        }
    }

    /// Adds operator `op`'s loads to `row`, the P-float load row of
    /// `node`, and clears in `alive` every point the row now puts above
    /// `caps[node] + 1e-12`. Bit `p % 64` of word `p / 64` is point `p`.
    /// O(P).
    ///
    /// Points only ever die, so a chain of these calls on one row kills
    /// a point when the row exceeds capacity after *any* add: a count
    /// never depends on the loads being non-negative.
    pub(crate) fn add_and_clear(&self, node: usize, op: usize, row: &mut [f64], alive: &mut [u64]) {
        let p = self.num_points;
        assert!(row.len() == p && alive.len() == self.mask_words());
        let cap = self.caps[node] + 1e-12;
        let deltas = &self.op_loads[op * p..(op + 1) * p];
        for ((word, row), deltas) in alive
            .iter_mut()
            .zip(row.chunks_mut(64))
            .zip(deltas.chunks(64))
        {
            let mut dead = 0u64;
            for (b, (load, &delta)) in row.iter_mut().zip(deltas).enumerate() {
                *load += delta;
                dead |= u64::from(*load > cap) << b;
            }
            *word &= !dead;
        }
    }

    /// Writes into `mask` the points `node` keeps within capacity while
    /// carrying exactly the operators `ops`, added in the given
    /// (ascending) order to a row that starts at `+0.0`. Bits past P are
    /// clear. `row` is P floats of scratch. O(|ops|·P).
    pub(crate) fn node_mask(&self, node: usize, ops: &[u32], row: &mut [f64], mask: &mut [u64]) {
        row.fill(0.0);
        self.fill_alive(mask);
        for &op in ops {
            self.add_and_clear(node, op as usize, row, mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::PlanEvaluator;
    use crate::examples_paper::{example2_plans, figure4_graph};
    use crate::graph::{GraphBuilder, QueryGraph};
    use crate::operator::OperatorKind;

    fn setup() -> (LoadModel, Cluster) {
        (
            LoadModel::derive(&figure4_graph()).unwrap(),
            Cluster::homogeneous(2, 1.0),
        )
    }

    #[test]
    fn snapshot_matches_plan_evaluator_exactly() {
        let (model, cluster) = setup();
        let [a, b, c] = example2_plans();
        let ev = PlanEvaluator::new(&model, &cluster);
        for alloc in [&a, &b, &c] {
            let eval = IncrementalPlanEval::from_allocation(&model, &cluster, alloc);
            let snap = eval.snapshot();
            assert_eq!(snap.weights.matrix(), ev.weight_matrix(alloc).matrix());
            assert_eq!(
                snap.region.coefficients,
                ev.feasible_region(alloc).coefficients
            );
            assert_eq!(eval.min_plane_distance(), ev.min_plane_distance(alloc));
        }
    }

    #[test]
    fn assign_updates_only_touched_row() {
        let (model, cluster) = setup();
        let mut eval = IncrementalPlanEval::new(&model, &cluster);
        eval.assign(OperatorId(0), NodeId(0));
        // o0 loads stream 1 with coefficient 4: w_00 = (4/10)/(1/2) = 0.8.
        assert!((eval.weight_row(NodeId(0))[0] - 0.8).abs() < 1e-15);
        assert_eq!(eval.weight_row(NodeId(1)), &[0.0, 0.0]);
        assert_eq!(eval.plane_distance(NodeId(1)), f64::INFINITY);
    }

    #[test]
    fn unassign_restores_exactly_on_integer_loads() {
        // Figure 4 load coefficients are small integers, so += then -=
        // is exact and the state must match the never-assigned one.
        let (model, cluster) = setup();
        let mut eval = IncrementalPlanEval::new(&model, &cluster);
        let fresh = eval.clone();
        eval.assign(OperatorId(2), NodeId(1));
        eval.assign(OperatorId(0), NodeId(1));
        eval.unassign(OperatorId(0), NodeId(1));
        eval.unassign(OperatorId(2), NodeId(1));
        assert_eq!(eval.ln, fresh.ln);
        assert_eq!(eval.w, fresh.w);
        assert_eq!(eval.plane, fresh.plane);
        assert_eq!(eval.allocation(), fresh.allocation());
    }

    #[test]
    fn score_candidate_agrees_with_commit() {
        let (model, cluster) = setup();
        let mut eval = IncrementalPlanEval::new(&model, &cluster);
        eval.assign(OperatorId(2), NodeId(0));
        for op in [OperatorId(1), OperatorId(3)] {
            for node in 0..2 {
                let score = eval.score_candidate(op, NodeId(node));
                let mut probe = eval.clone();
                probe.assign(op, NodeId(node));
                assert_eq!(
                    score.plane_distance,
                    probe.plane_distance(NodeId(node)),
                    "op {op:?} node {node}"
                );
                let committed_max: f64 = probe
                    .weight_row(NodeId(node))
                    .iter()
                    .copied()
                    .fold(0.0, f64::max);
                assert_eq!(score.class_one, committed_max <= 1.0 + 1e-12);
            }
        }
    }

    /// The dense O(d') reference loop the sparse merged walk replaced —
    /// kept verbatim so the bit-identity claim stays executable.
    fn dense_reference_score(
        eval: &IncrementalPlanEval<'_>,
        op: OperatorId,
        node: NodeId,
    ) -> CandidateScore {
        let i = node.index();
        let rel = eval.rel[i];
        let totals = eval.totals;
        let lo_row = eval.lo.row(op.index()).to_dense();
        let mut sumsq = 0.0;
        let mut wb = 0.0;
        let mut class_one = true;
        for k in 0..eval.d {
            let lk = totals[k];
            let w = if lk > 0.0 {
                ((eval.ln[i * eval.d + k] + lo_row[k]) / lk) / rel
            } else {
                0.0
            };
            if w > 1.0 + 1e-12 {
                class_one = false;
            }
            sumsq += w * w;
            if let Some(b) = &eval.lower_bound {
                wb += w * b[k];
            }
        }
        let norm = sumsq.sqrt();
        let plane_distance = if norm == 0.0 {
            f64::INFINITY
        } else {
            match &eval.lower_bound {
                None => 1.0 / norm,
                Some(_) => (1.0 - wb) / norm,
            }
        };
        CandidateScore {
            plane_distance,
            class_one,
        }
    }

    /// A graph whose loads cancel inexactly, on three nodes, and a churn
    /// `(operator, node, assign?)` of it that leaves node 0's input-2
    /// cell at −1.0 (1.0, then 1e16, out in the other order), node 1
    /// holding nothing but a residue of 0.1 + 0.3 − 0.1 − 0.3 on input 0,
    /// and node 2 loaded again after an unassign.
    fn residue_case() -> (QueryGraph, Vec<f64>, Vec<(usize, usize, bool)>) {
        let mut b = GraphBuilder::new();
        let ins: Vec<_> = (0..3).map(|_| b.add_input()).collect();
        let ops = [
            (0.1, 0, 1),
            (0.2, 1, 2),
            (0.3, 0, 2),
            (1.0, 2, 2),
            (1e16, 2, 2),
            (0.7, 1, 1),
            (0.35, 0, 0),
        ];
        for (j, (cost, a, c)) in ops.into_iter().enumerate() {
            let inputs = if a == c {
                vec![ins[a]]
            } else {
                vec![ins[a], ins[c]]
            };
            let kind = OperatorKind::Linear {
                costs: vec![cost; inputs.len()],
                selectivities: vec![1.0; inputs.len()],
            };
            b.add_operator(format!("r{j}"), kind, &inputs).unwrap();
        }
        let churn = vec![
            (3, 0, true),
            (4, 0, true),
            (0, 1, true),
            (2, 1, true),
            (5, 2, true),
            (1, 2, true),
            (4, 0, false),
            (0, 1, false),
            (3, 0, false),
            (2, 1, false),
            (1, 2, false),
            (6, 2, true),
        ];
        (b.build().unwrap(), vec![1.0, 2.0, 0.5], churn)
    }

    #[test]
    fn sparse_score_matches_dense_reference_bitwise() {
        // Drive three graphs (pure linear, join/variable-selectivity, and
        // loads that cancel inexactly) through assign/unassign churn,
        // comparing the sparse walk, which reads cached weights off the
        // support, against the dense reference at every (op, node) —
        // including after unassigns, which leave floating-point residues
        // in the load cells, one of them negative.
        let (residues, residue_caps, residue_churn) = residue_case();
        for (graph, caps, churn) in [
            (figure4_graph(), vec![1.0, 1.0, 1.0], None),
            (
                crate::examples_paper::example3_graph(),
                vec![2.0, 1.0, 0.5],
                None,
            ),
            (residues, residue_caps, Some(residue_churn)),
        ] {
            let model = LoadModel::derive(&graph).unwrap();
            let cluster = Cluster::heterogeneous(caps);
            let (m, n) = (model.num_operators(), cluster.num_nodes());
            // By default: every operator in, then every other one out.
            let churn = churn.unwrap_or_else(|| {
                let ins = (0..m).map(|j| (j, j % n, true));
                ins.chain((0..m).step_by(2).map(|j| (j, j % n, false)))
                    .collect()
            });
            for bounded in [false, true] {
                let mut eval = IncrementalPlanEval::new(&model, &cluster);
                if bounded {
                    eval.set_lower_bound(&model.variable_point(&vec![0.01; model.num_inputs()]));
                }
                let check_all = |eval: &IncrementalPlanEval<'_>, step: usize| {
                    for (j, i) in (0..m).flat_map(|j| (0..n).map(move |i| (j, i))) {
                        if eval.allocation().node_of(OperatorId(j)).is_some() {
                            continue;
                        }
                        let got = eval.score_candidate(OperatorId(j), NodeId(i));
                        let want = dense_reference_score(eval, OperatorId(j), NodeId(i));
                        let at = format!("step {step}: op {j} node {i} bounded {bounded}");
                        assert_eq!(
                            got.plane_distance.to_bits(),
                            want.plane_distance.to_bits(),
                            "{at}"
                        );
                        assert_eq!(got.class_one, want.class_one, "{at}");
                    }
                };
                check_all(&eval, 0);
                for (step, &(j, i, assign)) in churn.iter().enumerate() {
                    if assign {
                        eval.assign(OperatorId(j), NodeId(i));
                    } else {
                        eval.unassign(OperatorId(j), NodeId(i));
                    }
                    check_all(&eval, step + 1);
                }
            }
        }
        // The residue churn ends in the states it names.
        let (graph, caps, churn) = residue_case();
        let model = LoadModel::derive(&graph).unwrap();
        let cluster = Cluster::heterogeneous(caps);
        let mut eval = IncrementalPlanEval::new(&model, &cluster);
        for (j, i, assign) in churn {
            if assign {
                eval.assign(OperatorId(j), NodeId(i));
            } else {
                eval.unassign(OperatorId(j), NodeId(i));
            }
        }
        assert_eq!(eval.node_load_row(NodeId(0))[2], -1.0);
        assert!(!eval.admits_bounds(NodeId(0)));
        assert_eq!(eval.allocation().node_counts()[1], 0);
        assert!(eval.node_load_row(NodeId(1))[0] > 0.0);
        assert!(
            eval.node_load_row(NodeId(2))
                .iter()
                .filter(|&&c| c != 0.0)
                .count()
                > 1
        );
    }

    #[test]
    fn sumsq_floor_caps_every_distance_above_it() {
        assert_eq!(UNDERFLOW_FLOOR, 2f64.powi(-1000));
        let mut t = 1e-300f64;
        while t < f64::MAX {
            // Floats `k` steps from a positive `x`.
            let step = |x: f64, k: i64| f64::from_bits((x.to_bits() as i64 + k) as u64);
            for t in [t, step(t, 1), t * 1.000_000_1] {
                let floor = sumsq_floor(t);
                let up = if floor.is_finite() {
                    step(floor, 1)
                } else {
                    floor
                };
                for x in [floor, up, floor * 1.5, f64::INFINITY] {
                    assert!(distance_of_sumsq(x) <= t, "t {t:e} x {x:e}");
                }
                // Within a few ulps of the least such sum.
                let below = step(floor, -16);
                assert!(distance_of_sumsq(below) > t, "t {t:e} floor {floor:e}");
            }
            t *= 1.37;
        }
        assert!(sumsq_floor(0.0).is_nan());
        assert!(sumsq_floor(-1.0).is_nan());
        assert!(sumsq_floor(f64::NAN).is_nan());
        assert_eq!(sumsq_floor(f64::INFINITY), f64::NEG_INFINITY);
    }

    #[test]
    fn a_negative_lower_bound_point_voids_every_bound() {
        let (model, cluster) = setup();
        let mut eval = IncrementalPlanEval::new(&model, &cluster);
        eval.set_lower_bound(&model.variable_point(&[0.02, 0.02]));
        assert!(eval.bound_input(OperatorId(0)).is_some());
        eval.set_lower_bound(&model.variable_point(&[-0.02, 0.02]));
        assert_eq!(eval.bound_input(OperatorId(0)), None);
        assert!(!eval.admits_bounds(NodeId(0)));
        assert_eq!(eval.candidate_bound(OperatorId(0), NodeId(0)), None);
    }

    #[test]
    fn support_tracks_nonzero_cells_and_unload_flag() {
        let (model, cluster) = setup();
        let mut eval = IncrementalPlanEval::new(&model, &cluster);
        assert!(eval.node_is_unloaded(NodeId(0)));
        eval.assign(OperatorId(0), NodeId(0));
        assert!(!eval.node_is_unloaded(NodeId(0)));
        assert_eq!(eval.support[0], vec![0]);
        assert_eq!(eval.max_weight_of(NodeId(0)), eval.weight_row(NodeId(0))[0]);
        eval.unassign(OperatorId(0), NodeId(0));
        // Integer loads cancel exactly, so the support empties again.
        assert!(eval.node_is_unloaded(NodeId(0)));
        assert_eq!(eval.max_weight_of(NodeId(0)), 0.0);
    }

    #[test]
    fn lower_bound_shrinks_candidate_distances() {
        let (model, cluster) = setup();
        let mut plain = IncrementalPlanEval::new(&model, &cluster);
        let mut bounded = IncrementalPlanEval::new(&model, &cluster);
        bounded.set_lower_bound(&model.variable_point(&[0.02, 0.02]));
        plain.assign(OperatorId(2), NodeId(0));
        bounded.assign(OperatorId(2), NodeId(0));
        let p = plain.score_candidate(OperatorId(1), NodeId(0));
        let b = bounded.score_candidate(OperatorId(1), NodeId(0));
        assert!(b.plane_distance < p.plane_distance);
    }

    #[test]
    fn axis_and_max_weight_track_weight_matrix() {
        let (model, cluster) = setup();
        let [a, _, _] = example2_plans();
        let eval = IncrementalPlanEval::from_allocation(&model, &cluster, &a);
        let w = eval.snapshot().weights;
        assert_eq!(eval.max_weight(), w.max_weight());
        // Node 1 of plan (a) has weights (1.2, 18/11): min axis distance
        // is 11/18.
        assert!((eval.axis_distance(NodeId(1)) - 11.0 / 18.0).abs() < 1e-12);
    }
}
