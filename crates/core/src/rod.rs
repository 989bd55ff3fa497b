//! The Resilient Operator Distribution algorithm (paper §5, Figure 10).
//!
//! Phase 1 sorts operators by the L2 norm of their load-coefficient
//! vectors, descending, so high-impact operators are placed while the most
//! freedom remains (the usual greedy/bin-packing device).
//!
//! Phase 2 places each operator in turn. For every node the *candidate*
//! weight row — the node's normalised weights if it received the operator —
//! is computed:
//!
//! ```text
//! w_ik = ((l^n_ik + l^o_jk) / l_k) / (C_i / C_T)
//! ```
//!
//! Nodes whose candidate hyperplane still lies entirely above the ideal
//! hyperplane (`w_ik ≤ 1` for all `k`) form **Class I**: assigning there
//! cannot shrink the final feasible set below the ideal bound, and pushes
//! axis intercepts toward the ideal ones (the MMAD heuristic). If Class I
//! is empty the operator goes to the **Class II** node with the largest
//! candidate plane distance `1/‖W_i‖` (the MMPD heuristic) — or, under the
//! §6.1 extension, the largest distance measured from the known
//! lower-bound point. Which Class I node wins does not change the step's
//! feasible set (§5.2); ROD takes the one with the largest candidate plane
//! distance too. In both classes the first node in ascending order wins
//! unless a later one beats it by more than `1e-15`.
//!
//! # One greedy
//!
//! This module holds the only Phase-1 order and the only Phase-2 rule.
//! Every placement runs them, each over its own candidate nodes: flat ROD
//! ([`RodPlanner::place`], [`RodPlanner::extend`]), hierarchical level 2
//! ([`crate::hierarchical`]), survivor re-placement
//! ([`crate::resilience::survivor_moves`]) and clustered placement
//! ([`crate::clustering::place_clustered`]).
//!
//! # Candidate pruning
//!
//! Scoring every node for every operator costs O(n) probes per step —
//! prohibitive at n ≈ 1000 nodes and m ≈ 50 000 operators. The default
//! scan therefore skips nodes it can prove irrelevant, using three facts:
//!
//! 1. A node's **current** plane distance upper-bounds every candidate
//!    distance it can produce (weights only grow under assignment; see
//!    [`IncrementalPlanEval::plane_distance`] — the bound holds bitwise in
//!    IEEE-754, not just in exact arithmetic). A node whose bound cannot
//!    beat the incumbent under the replacement rule (`s > best + 1e-15`)
//!    is skipped without scoring.
//! 2. A node whose current maximum weight already exceeds `1 + 1e-12` can
//!    never be Class I ([`IncrementalPlanEval::max_weight_of`]), so once
//!    any Class-I node is in hand, such nodes are skipped outright.
//! 3. All **unloaded** nodes of equal relative capacity yield bitwise
//!    identical candidate scores, so one probe is memoised per capacity
//!    class per step.
//!
//! Every skip is justified by an inequality on the exact floating-point
//! values the full scan would have computed, on any ascending list of
//! candidate nodes, so the pruned scan chooses the *same node* as the
//! exhaustive reference — including the lowest-index tie-break. The
//! exhaustive scan is kept behind [`RodPlanner::with_exhaustive_scan`] as
//! the test oracle.

use serde::{Deserialize, Serialize};

use std::time::Instant;

use crate::allocation::Allocation;
use crate::baselines::Planner;
use crate::cluster::Cluster;
use crate::error::PlacementError;
use crate::eval::{CandidateScore, IncrementalPlanEval};
use crate::ids::{NodeId, OperatorId};
use crate::load_model::LoadModel;
use crate::obs::MetricsRegistry;

/// Phase-1 operator ordering (the paper uses descending norm; the other
/// orders exist for the `exp_ablations` experiment).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OperatorOrdering {
    /// Largest load-vector norm first (the paper's choice: "dealing with
    /// such operators late may cause the system to significantly deviate
    /// from the optimal results").
    NormDescending,
    /// Smallest norm first (ablation: the classic greedy mistake).
    NormAscending,
    /// Graph insertion order (ablation: no ordering at all).
    ByIndex,
}

/// Configuration of the ROD planner.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RodOptions {
    /// Optional §6.1 lower bound `B` on the *system input* rates. Lower
    /// bounds for introduced variables are derived by propagating `B`
    /// through the graph (all operators are rate-monotone, so propagated
    /// rates are valid lower bounds for the introduced variables too).
    pub input_lower_bound: Option<Vec<f64>>,
    /// Phase-1 ordering (ablation hook; default NormDescending).
    pub ordering: OperatorOrdering,
    /// When false, skip the Class I / Class II distinction and always
    /// pick the node with maximum candidate plane distance — the
    /// pure-MMPD greedy the Class-I rule is layered on (ablation hook).
    pub use_class_one: bool,
}

impl Default for RodOptions {
    fn default() -> Self {
        RodOptions {
            input_lower_bound: None,
            ordering: OperatorOrdering::NormDescending,
            use_class_one: true,
        }
    }
}

/// Which class the chosen node belonged to at one assignment step —
/// diagnostic output useful for ablations and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepClass {
    /// The node's candidate hyperplane stayed above the ideal hyperplane.
    ClassOne,
    /// Every candidate crossed the ideal hyperplane; MMPD picked.
    ClassTwo,
}

/// The result of a ROD run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RodPlan {
    /// The produced placement.
    pub allocation: Allocation,
    /// Operators in the order they were assigned (Phase 1 order).
    pub order: Vec<OperatorId>,
    /// Class used at each step, parallel to `order`.
    pub step_classes: Vec<StepClass>,
    /// Number of `score_candidate` probes Phase 2 actually issued. The
    /// exhaustive scan always issues `m·n`; the pruned scan typically far
    /// fewer.
    pub candidates_scored: u64,
}

impl RodPlan {
    /// Fraction of assignment steps that found a Class I node.
    pub fn class_one_fraction(&self) -> f64 {
        if self.step_classes.is_empty() {
            return 0.0;
        }
        self.step_classes
            .iter()
            .filter(|c| **c == StepClass::ClassOne)
            .count() as f64
            / self.step_classes.len() as f64
    }
}

/// The ROD planner.
#[derive(Clone, Debug, Default)]
pub struct RodPlanner {
    options: RodOptions,
    /// Score every node at every step instead of pruning — the reference
    /// oracle the pruned scan is tested against.
    exhaustive_scan: bool,
}

impl RodPlanner {
    /// Planner with default options.
    pub fn new() -> Self {
        RodPlanner::default()
    }

    /// Planner with explicit options.
    pub fn with_options(options: RodOptions) -> Self {
        RodPlanner {
            options,
            exhaustive_scan: false,
        }
    }

    /// Switches between the pruned Phase-2 scan (default) and the
    /// exhaustive all-nodes reference scan. Both choose identical nodes;
    /// the exhaustive scan exists as the oracle for equivalence tests and
    /// ablation timings.
    pub fn with_exhaustive_scan(mut self, exhaustive: bool) -> Self {
        self.exhaustive_scan = exhaustive;
        self
    }

    /// Runs ROD and returns the plan with diagnostics.
    pub fn place(&self, model: &LoadModel, cluster: &Cluster) -> Result<RodPlan, PlacementError> {
        self.place_impl(model, cluster, None)
    }

    /// Like [`place`](RodPlanner::place), additionally recording per-phase
    /// wall-clock timings (`rod.phase1_seconds`, `rod.phase2_seconds`) and
    /// step-class counters into `metrics`.
    pub fn place_with_metrics(
        &self,
        model: &LoadModel,
        cluster: &Cluster,
        metrics: &MetricsRegistry,
    ) -> Result<RodPlan, PlacementError> {
        self.place_impl(model, cluster, Some(metrics))
    }

    fn place_impl(
        &self,
        model: &LoadModel,
        cluster: &Cluster,
        metrics: Option<&MetricsRegistry>,
    ) -> Result<RodPlan, PlacementError> {
        cluster.validate()?;
        let m = model.num_operators();
        if m == 0 {
            return Err(PlacementError::EmptyModel);
        }
        let n = cluster.num_nodes();

        // The incremental evaluation layer owns the node-load and weight
        // state; the §6.1 lower bound (when set) is folded into every
        // candidate plane distance it reports.
        let mut eval = IncrementalPlanEval::new(model, cluster);
        if let Some(b) = &self.options.input_lower_bound {
            eval.set_lower_bound(&model.variable_point(b));
        }

        // ---- Phase 1: order the operators. ----
        let phase1_start = Instant::now();
        let mut order: Vec<OperatorId> = (0..m).map(OperatorId).collect();
        match self.options.ordering {
            OperatorOrdering::NormDescending => {
                norm_descending(&mut order, |op| model.operator_norm(op))
            }
            OperatorOrdering::NormAscending => order.sort_by(|&a, &b| {
                model
                    .operator_norm(a)
                    .total_cmp(&model.operator_norm(b))
                    .then(a.cmp(&b))
            }),
            OperatorOrdering::ByIndex => {}
        }
        if let Some(metrics) = metrics {
            metrics.observe("rod.phase1_seconds", phase1_start.elapsed().as_secs_f64());
            metrics.set_gauge("rod.operators", m as f64);
            metrics.set_gauge("rod.nodes", n as f64);
        }

        // ---- Phase 2: greedy assignment. ----
        let phase2_start = Instant::now();
        let mut selector = Phase2Selector::new(self.options.use_class_one, self.exhaustive_scan);
        let step_classes = selector.place(&mut eval, &order, 0..n);
        let candidates_scored = selector.candidates_scored;
        if let Some(metrics) = metrics {
            metrics.observe("rod.phase2_seconds", phase2_start.elapsed().as_secs_f64());
            metrics.add("rod.candidates_scored", candidates_scored);
            metrics.add(
                "rod.steps_class_one",
                step_classes
                    .iter()
                    .filter(|c| **c == StepClass::ClassOne)
                    .count() as u64,
            );
            metrics.add(
                "rod.steps_class_two",
                step_classes
                    .iter()
                    .filter(|c| **c == StepClass::ClassTwo)
                    .count() as u64,
            );
        }

        Ok(RodPlan {
            allocation: eval.into_allocation(),
            order,
            step_classes,
            candidates_scored,
        })
    }
}

/// ROD's Phase 1: sorts `ops` by descending load-vector `norm`, the lower
/// index first among equal norms.
pub(crate) fn norm_descending(ops: &mut [OperatorId], norm: impl Fn(OperatorId) -> f64) {
    ops.sort_by(|&a, &b| norm(b).total_cmp(&norm(a)).then(a.cmp(&b)));
}

/// ROD's Phase 2 (see the module docs): either the exhaustive scan over
/// every candidate node or the pruned scan. Both pick the same node at
/// every step.
pub(crate) struct Phase2Selector {
    /// False for the pure-MMPD ablation: no Class I / Class II split.
    use_class_one: bool,
    exhaustive: bool,
    /// Per-step memo of unloaded-node candidate scores keyed by the
    /// node's relative-capacity bits (cleared at each step).
    memo: Vec<(u64, CandidateScore)>,
    /// Total `score_candidate` probes issued.
    pub(crate) candidates_scored: u64,
}

impl Phase2Selector {
    pub(crate) fn new(use_class_one: bool, exhaustive: bool) -> Self {
        Phase2Selector {
            use_class_one,
            exhaustive,
            memo: Vec::new(),
            candidates_scored: 0,
        }
    }

    /// Assigns each operator of `order` in turn to the node chosen among
    /// `nodes`, which must be ascending, and returns the class of each
    /// step.
    pub(crate) fn place(
        &mut self,
        eval: &mut IncrementalPlanEval<'_>,
        order: &[OperatorId],
        nodes: impl Iterator<Item = usize> + Clone,
    ) -> Vec<StepClass> {
        order
            .iter()
            .map(|&op| {
                let (dest, class) = if self.exhaustive {
                    self.select_exhaustive(eval, op, nodes.clone())
                } else {
                    self.select_pruned(eval, op, nodes.clone())
                };
                eval.assign(op, NodeId(dest));
                class
            })
            .collect()
    }

    /// The reference oracle: scores every candidate, then applies
    /// [`best_by`] over Class I, or over every candidate when Class I is
    /// empty.
    fn select_exhaustive(
        &mut self,
        eval: &IncrementalPlanEval<'_>,
        op: OperatorId,
        nodes: impl Iterator<Item = usize>,
    ) -> (usize, StepClass) {
        let scores: Vec<(usize, CandidateScore)> = nodes
            .map(|i| (i, eval.score_candidate(op, NodeId(i))))
            .collect();
        self.candidates_scored += scores.len() as u64;
        let class_one = self.use_class_one && scores.iter().any(|(_, s)| s.class_one);
        let pool = scores
            .iter()
            .filter(|(_, s)| s.class_one || !class_one)
            .map(|&(i, s)| (i, s.plane_distance));
        if class_one {
            (best_by(pool), StepClass::ClassOne)
        } else {
            (best_by(pool), StepClass::ClassTwo)
        }
    }

    /// Scores `op` on node `i`, memoising unloaded nodes by their
    /// relative-capacity bits: an unloaded node's candidate score is a
    /// pure function of `(op, C_i/C_T)`, so the memoised value is bitwise
    /// the score a fresh probe would return.
    fn probe(
        &mut self,
        eval: &IncrementalPlanEval<'_>,
        op: OperatorId,
        i: usize,
    ) -> CandidateScore {
        if eval.node_is_unloaded(NodeId(i)) {
            let key = eval.relative_capacity_of(NodeId(i)).to_bits();
            if let Some(&(_, s)) = self.memo.iter().find(|(k, _)| *k == key) {
                return s;
            }
            let s = eval.score_candidate(op, NodeId(i));
            self.candidates_scored += 1;
            self.memo.push((key, s));
            return s;
        }
        self.candidates_scored += 1;
        eval.score_candidate(op, NodeId(i))
    }

    /// The pruned scan. It visits the candidates in ascending order and
    /// keeps two incumbents under [`offer`]'s rule, as [`best_by`] does:
    /// one over Class I and a Class-II fallback over every candidate.
    /// A node is skipped only when it provably cannot change the result:
    ///
    /// * a node with `max_weight_of > 1 + 1e-12` cannot be Class I, so it
    ///   only feeds the fallback, and not at all once Class I is
    ///   non-empty;
    /// * a node whose current plane distance is `≤ best + 1e-15` against
    ///   the incumbent it could join cannot replace it (its candidate
    ///   distance is at most that bound). While Class I is empty a node
    ///   that may be Class I is always probed, since only the probe
    ///   settles its class.
    fn select_pruned(
        &mut self,
        eval: &IncrementalPlanEval<'_>,
        op: OperatorId,
        nodes: impl Iterator<Item = usize>,
    ) -> (usize, StepClass) {
        self.memo.clear();
        let mut best_c1: Option<(usize, f64)> = None;
        let mut best_all: Option<(usize, f64)> = None;
        for i in nodes {
            let possibly_c1 = self.use_class_one && eval.max_weight_of(NodeId(i)) <= 1.0 + 1e-12;
            if best_c1.is_some() && !possibly_c1 {
                continue;
            }
            let incumbent = if possibly_c1 { best_c1 } else { best_all };
            if let Some((_, bs)) = incumbent {
                if eval.plane_distance(NodeId(i)) <= bs + 1e-15 {
                    continue;
                }
            }
            let s = self.probe(eval, op, i);
            if possibly_c1 && s.class_one {
                offer(&mut best_c1, i, s.plane_distance);
            } else if best_c1.is_none() {
                offer(&mut best_all, i, s.plane_distance);
            }
        }
        match (best_c1, best_all) {
            (Some((dest, _)), _) => (dest, StepClass::ClassOne),
            (None, Some((dest, _))) => (dest, StepClass::ClassTwo),
            (None, None) => panic!("Phase 2 needs at least one candidate node"),
        }
    }
}

impl RodPlanner {
    /// Extends an existing (possibly partial) allocation: operators
    /// already placed stay where they are — stream processing systems
    /// add continuous queries over time, and moving live operators is
    /// exactly what ROD exists to avoid — while the unplaced remainder
    /// is assigned by the usual Phase 1 + Phase 2 greedy, starting from
    /// the node load the fixed operators already impose.
    ///
    /// `model` must describe the *whole* graph (old + new operators);
    /// `existing.node_of(op)` is `None` exactly for the operators to
    /// place. With an entirely empty `existing` this is identical to
    /// [`RodPlanner::place`].
    pub fn extend(
        &self,
        model: &LoadModel,
        cluster: &Cluster,
        existing: &Allocation,
    ) -> Result<RodPlan, PlacementError> {
        cluster.validate()?;
        assert_eq!(
            existing.num_operators(),
            model.num_operators(),
            "existing allocation must cover the full model"
        );
        assert_eq!(existing.num_nodes(), cluster.num_nodes());
        let m = model.num_operators();
        if m == 0 {
            return Err(PlacementError::EmptyModel);
        }

        // Start from the load the fixed operators impose.
        let mut eval = IncrementalPlanEval::from_allocation(model, cluster, existing);
        let mut pending: Vec<OperatorId> = (0..m)
            .map(OperatorId)
            .filter(|&op| existing.node_of(op).is_none())
            .collect();
        norm_descending(&mut pending, |op| model.operator_norm(op));

        // The historical extend behaviour: the default options, whatever
        // the planner's own ones are.
        let use_class_one = RodOptions::default().use_class_one;
        let mut selector = Phase2Selector::new(use_class_one, self.exhaustive_scan);
        let step_classes = selector.place(&mut eval, &pending, 0..cluster.num_nodes());

        Ok(RodPlan {
            allocation: eval.into_allocation(),
            order: pending,
            step_classes,
            candidates_scored: selector.candidates_scored,
        })
    }
}

impl Planner for RodPlanner {
    fn name(&self) -> &'static str {
        "ROD"
    }

    fn plan(&self, model: &LoadModel, cluster: &Cluster) -> Result<Allocation, PlacementError> {
        self.place(model, cluster).map(|p| p.allocation)
    }

    fn plan_with_metrics(
        &self,
        model: &LoadModel,
        cluster: &Cluster,
        metrics: &MetricsRegistry,
    ) -> Result<Allocation, PlacementError> {
        self.place_with_metrics(model, cluster, metrics)
            .map(|p| p.allocation)
    }
}

/// ROD's tie-break, fed `(node, candidate plane distance)` pairs in
/// ascending node order: the first pair becomes the incumbent, and a later
/// one replaces it only when its distance is larger by more than `1e-15`.
fn offer(best: &mut Option<(usize, f64)>, node: usize, distance: f64) {
    let replaces = match *best {
        None => true,
        Some((_, b)) => distance > b + 1e-15,
    };
    if replaces {
        *best = Some((node, distance));
    }
}

/// The node [`offer`] keeps out of `candidates`, which must be non-empty
/// and ascending by node.
fn best_by(candidates: impl IntoIterator<Item = (usize, f64)>) -> usize {
    let mut best = None;
    for (node, distance) in candidates {
        offer(&mut best, node, distance);
    }
    best.expect("at least one candidate node").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::PlanEvaluator;
    use crate::examples_paper::figure4_graph;
    use crate::graph::GraphBuilder;
    use crate::operator::OperatorKind;

    fn model() -> LoadModel {
        LoadModel::derive(&figure4_graph()).unwrap()
    }

    #[test]
    fn phase1_orders_by_norm_descending() {
        let m = model();
        let plan = RodPlanner::new()
            .place(&m, &Cluster::homogeneous(2, 1.0))
            .unwrap();
        // Norms: o0=4, o1=6, o2=9, o3=2 → order o2, o1, o0, o3.
        assert_eq!(
            plan.order,
            vec![OperatorId(2), OperatorId(1), OperatorId(0), OperatorId(3)]
        );
    }

    #[test]
    fn rod_separates_streams_on_figure4() {
        // The best two-node plan for Example 2 must NOT put both heavy
        // operators (o2: 9r2, o1: 6r1) on the same node.
        let m = model();
        let cluster = Cluster::homogeneous(2, 1.0);
        let plan = RodPlanner::new().place(&m, &cluster).unwrap();
        let a = &plan.allocation;
        assert!(a.is_complete());
        assert_ne!(a.node_of(OperatorId(1)), a.node_of(OperatorId(2)));
    }

    #[test]
    fn rod_beats_connected_chains_plan() {
        // Against plan (c) (chains kept whole: L^n = [[10,0],[0,11]]),
        // ROD must achieve a strictly larger min plane distance.
        let m = model();
        let cluster = Cluster::homogeneous(2, 1.0);
        let ev = PlanEvaluator::new(&m, &cluster);
        let rod = RodPlanner::new().place(&m, &cluster).unwrap();
        let [_, _, plan_c] = crate::examples_paper::example2_plans();
        assert!(ev.min_plane_distance(&rod.allocation) > ev.min_plane_distance(&plan_c) + 1e-9);
    }

    #[test]
    fn single_node_cluster_gets_everything() {
        let m = model();
        let plan = RodPlanner::new()
            .place(&m, &Cluster::homogeneous(1, 1.0))
            .unwrap();
        assert_eq!(plan.allocation.node_counts(), vec![4]);
    }

    #[test]
    fn empty_model_is_an_error() {
        let mut b = GraphBuilder::new();
        b.add_input();
        let g = b.build().unwrap();
        let m = LoadModel::derive(&g).unwrap();
        assert!(matches!(
            RodPlanner::new().place(&m, &Cluster::homogeneous(2, 1.0)),
            Err(PlacementError::EmptyModel)
        ));
    }

    #[test]
    fn invalid_cluster_is_an_error() {
        let m = model();
        assert!(RodPlanner::new()
            .place(&m, &Cluster::heterogeneous(vec![]))
            .is_err());
    }

    #[test]
    fn heterogeneous_capacity_respected() {
        // One node with 10x capacity should carry (nearly) all load.
        let mut b = GraphBuilder::new();
        let i = b.add_input();
        for j in 0..8 {
            b.add_operator(format!("f{j}"), OperatorKind::filter(1.0, 1.0), &[i])
                .unwrap();
        }
        let g = b.build().unwrap();
        let m = LoadModel::derive(&g).unwrap();
        let cluster = Cluster::heterogeneous(vec![9.0, 1.0]);
        let plan = RodPlanner::new().place(&m, &cluster).unwrap();
        let ev = PlanEvaluator::new(&m, &cluster);
        let ln = ev.node_load_matrix(&plan.allocation);
        // Ideal split is (7.2, 0.8); greedy integral placement should land
        // within one operator of it.
        assert!(ln[(0, 0)] >= 6.0, "big node got {}", ln[(0, 0)]);
    }

    #[test]
    fn deterministic_across_runs() {
        let m = model();
        let cluster = Cluster::homogeneous(4, 1.0);
        let a = RodPlanner::new().place(&m, &cluster).unwrap();
        let b = RodPlanner::new().place(&m, &cluster).unwrap();
        assert_eq!(a.allocation, b.allocation);
    }

    #[test]
    fn step_classes_recorded() {
        let m = model();
        let plan = RodPlanner::new()
            .place(&m, &Cluster::homogeneous(2, 1.0))
            .unwrap();
        assert_eq!(plan.step_classes.len(), 4);
        // With only 2 nodes, o2 alone carries 9/11 of stream 2 — more
        // than the 1/2 node share — so every step here is Class II.
        assert_eq!(plan.step_classes[0], StepClass::ClassTwo);
        assert_eq!(plan.class_one_fraction(), 0.0);

        // Spread the same graph over 8 nodes and Class I steps appear:
        // each node's fair share shrinks but so does nothing about the
        // operators — wait, shares *tighten*; instead check a wide graph
        // where each operator is small relative to a node's share.
        let mut b = GraphBuilder::new();
        let i = b.add_input();
        for j in 0..12 {
            b.add_operator(format!("f{j}"), OperatorKind::filter(1.0, 1.0), &[i])
                .unwrap();
        }
        let wide = LoadModel::derive(&b.build().unwrap()).unwrap();
        let plan = RodPlanner::new()
            .place(&wide, &Cluster::homogeneous(3, 1.0))
            .unwrap();
        // 12 equal operators on 3 nodes: the first 3 per node stay under
        // the 1/3 share; most steps are Class I.
        assert!(plan.class_one_fraction() > 0.5, "{:?}", plan.step_classes);
    }

    #[test]
    fn extend_keeps_placed_operators_fixed() {
        let m = model();
        let cluster = Cluster::homogeneous(2, 1.0);
        // Pre-place o2 (the heavy one) on node 1 and let extend finish.
        let mut partial = Allocation::new(4, 2);
        partial.assign(OperatorId(2), NodeId(1));
        let plan = RodPlanner::new().extend(&m, &cluster, &partial).unwrap();
        assert!(plan.allocation.is_complete());
        assert_eq!(plan.allocation.node_of(OperatorId(2)), Some(NodeId(1)));
        assert_eq!(plan.order.len(), 3, "only the unplaced operators");
    }

    #[test]
    fn extend_of_empty_matches_place() {
        let m = model();
        let cluster = Cluster::homogeneous(3, 1.0);
        let fresh = RodPlanner::new().place(&m, &cluster).unwrap();
        let extended = RodPlanner::new()
            .extend(&m, &cluster, &Allocation::new(4, 3))
            .unwrap();
        assert_eq!(fresh.allocation, extended.allocation);
    }

    #[test]
    fn extend_accounts_for_existing_load() {
        // Pre-load node 0 with everything from stream 1; the new stream-2
        // operators must then prefer node 1.
        let mut b = GraphBuilder::new();
        let i0 = b.add_input();
        let i1 = b.add_input();
        for j in 0..3 {
            b.add_operator(format!("a{j}"), OperatorKind::filter(2.0, 1.0), &[i0])
                .unwrap();
        }
        for j in 0..3 {
            b.add_operator(format!("b{j}"), OperatorKind::filter(2.0, 1.0), &[i1])
                .unwrap();
        }
        let m = LoadModel::derive(&b.build().unwrap()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let mut partial = Allocation::new(6, 2);
        for j in 0..3 {
            partial.assign(OperatorId(j), NodeId(0));
        }
        let plan = RodPlanner::new().extend(&m, &cluster, &partial).unwrap();
        // All three stream-1 ops on node 0 → node 0 already carries the
        // whole of stream 1; the b-ops should mostly land on node 1.
        let on_node1 = (3..6)
            .filter(|&j| plan.allocation.node_of(OperatorId(j)) == Some(NodeId(1)))
            .count();
        assert!(
            on_node1 >= 2,
            "only {on_node1} new ops moved off the hot node"
        );
    }

    /// Builds a moderately irregular multi-stream graph for the
    /// pruned-vs-exhaustive comparisons: several input streams with
    /// chains of differing depth and cost, so Phase 2 sees a mix of
    /// Class I and Class II steps, loaded and unloaded nodes.
    fn irregular_model(streams: usize, depth: usize) -> LoadModel {
        let mut b = GraphBuilder::new();
        for s in 0..streams {
            let i = b.add_input();
            let mut up = i;
            for l in 0..(1 + (s + depth) % depth.max(1)) {
                let cost = 1.0 + ((s * 7 + l * 3) % 5) as f64;
                let sel = 0.5 + 0.1 * ((s + l) % 5) as f64;
                up = b
                    .add_operator(format!("s{s}l{l}"), OperatorKind::filter(cost, sel), &[up])
                    .unwrap()
                    .1;
            }
        }
        LoadModel::derive(&b.build().unwrap()).unwrap()
    }

    /// Both Phase-2 policies (the Class-I rule and pure MMPD), with and
    /// without a §6.1 lower bound.
    #[test]
    fn pruned_scan_matches_exhaustive_for_every_policy() {
        let models = [model(), irregular_model(6, 4), irregular_model(3, 2)];
        let clusters = [
            Cluster::homogeneous(2, 1.0),
            Cluster::homogeneous(5, 1.0),
            Cluster::heterogeneous(vec![3.0, 1.0, 1.0, 0.5]),
        ];
        for m in &models {
            for cluster in &clusters {
                for use_class_one in [true, false] {
                    for bound in [None, Some(vec![0.05; m.num_inputs()])] {
                        let options = RodOptions {
                            input_lower_bound: bound,
                            use_class_one,
                            ..RodOptions::default()
                        };
                        let pruned = RodPlanner::with_options(options.clone())
                            .place(m, cluster)
                            .unwrap();
                        let full = RodPlanner::with_options(options.clone())
                            .with_exhaustive_scan(true)
                            .place(m, cluster)
                            .unwrap();
                        assert_eq!(
                            pruned.allocation,
                            full.allocation,
                            "c1 {use_class_one} on {} nodes",
                            cluster.num_nodes()
                        );
                        assert_eq!(pruned.step_classes, full.step_classes);
                        assert_eq!(pruned.order, full.order);
                        assert!(pruned.candidates_scored <= full.candidates_scored);
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_extend_matches_exhaustive_extend() {
        let m = irregular_model(5, 3);
        let cluster = Cluster::homogeneous(4, 1.0);
        let mut partial = Allocation::new(m.num_operators(), 4);
        for j in (0..m.num_operators()).step_by(3) {
            partial.assign(OperatorId(j), NodeId(j % 4));
        }
        let pruned = RodPlanner::new().extend(&m, &cluster, &partial).unwrap();
        let full = RodPlanner::new()
            .with_exhaustive_scan(true)
            .extend(&m, &cluster, &partial)
            .unwrap();
        assert_eq!(pruned.allocation, full.allocation);
        assert_eq!(pruned.step_classes, full.step_classes);
    }

    #[test]
    fn pruning_and_memoisation_cut_probe_counts() {
        // Wide graph over a homogeneous cluster: unloaded nodes collapse
        // into one memo entry, loaded nodes prune by bound — the probe
        // count must land well below the m·n of the exhaustive scan.
        let m = irregular_model(8, 5);
        let cluster = Cluster::homogeneous(16, 1.0);
        let pruned = RodPlanner::new().place(&m, &cluster).unwrap();
        let full = RodPlanner::new()
            .with_exhaustive_scan(true)
            .place(&m, &cluster)
            .unwrap();
        let full_probes = (m.num_operators() * cluster.num_nodes()) as u64;
        assert_eq!(full.candidates_scored, full_probes);
        assert!(
            pruned.candidates_scored * 2 < full_probes,
            "pruned {} vs full {}",
            pruned.candidates_scored,
            full_probes
        );
        assert_eq!(pruned.allocation, full.allocation);
    }

    #[test]
    fn lower_bound_changes_class_two_choice_only() {
        // Lower bounds only alter the MMPD distance, so plans may differ
        // but must stay complete and valid.
        let m = model();
        let cluster = Cluster::homogeneous(2, 1.0);
        let plan = RodPlanner::with_options(RodOptions {
            input_lower_bound: Some(vec![0.02, 0.02]),
            ..RodOptions::default()
        })
        .place(&m, &cluster)
        .unwrap();
        assert!(plan.allocation.is_complete());
    }
}
