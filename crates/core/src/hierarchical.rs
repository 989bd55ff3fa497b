//! Hierarchical ROD: rack-level placement followed by per-rack placement.
//!
//! Flat ROD treats the cluster as one pool of `n` nodes; at `n ≈ 1000`
//! even the pruned Phase-2 scan pays for its generality, and real
//! deployments group machines into racks anyway. The hierarchical planner
//! runs the *same* ROD greedy twice:
//!
//! 1. **Level 1 — across racks.** The cluster is collapsed into one
//!    aggregate "node" per rack ([`Topology::aggregate_cluster`]), whose
//!    capacity is the sum of its members'. Plain ROD over this aggregate
//!    cluster assigns every operator to a rack, balancing load-coefficient
//!    weight across racks exactly as flat ROD balances it across nodes.
//! 2. **Level 2 — within each rack.** For each rack, ROD's Phase-1
//!    ordering and Phase-2 pruned scan run again over just that rack's
//!    operators and member nodes ([`Topology::rack_cluster`]), reusing
//!    [`IncrementalPlanEval`] with weights normalised by the rack's own
//!    total capacity.
//!
//! Both levels go through the identical selection machinery as
//! [`RodPlanner`], so a **single-rack topology reproduces plain ROD
//! exactly** (asserted in tests): level 1 degenerates to a one-node
//! cluster and level 2 *is* flat ROD. Complexity drops from
//! `O(m · n)` probes to `O(m · (#racks + rack size))` before pruning even
//! starts.

use serde::{Deserialize, Serialize};

use crate::allocation::Allocation;
use crate::baselines::Planner;
use crate::cluster::{Cluster, Topology};
use crate::error::PlacementError;
use crate::eval::IncrementalPlanEval;
use crate::ids::{NodeId, OperatorId};
use crate::load_model::LoadModel;
use crate::obs::MetricsRegistry;
use crate::rod::{norm_descending, Phase2Selector, RodOptions, RodPlanner};

use std::time::Instant;

/// The result of a hierarchical ROD run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HierPlan {
    /// The final node-level placement.
    pub allocation: Allocation,
    /// Rack chosen for each operator by level 1 (indexed by operator).
    pub rack_of: Vec<usize>,
    /// The topology the run used (explicit or auto-derived).
    pub topology: Topology,
    /// Total `score_candidate` probes across both levels.
    pub candidates_scored: u64,
    /// Total O(nnz) delta bounds evaluated across both levels.
    pub candidates_bounded: u64,
}

/// The hierarchical ROD planner.
///
/// With no explicit [`Topology`] the cluster is split into `⌈√n⌉`
/// near-equal contiguous racks, which balances the two levels' scan
/// costs.
#[derive(Clone, Debug, Default)]
pub struct HierarchicalRod {
    options: RodOptions,
    topology: Option<Topology>,
}

impl HierarchicalRod {
    /// Planner with default options and the automatic `⌈√n⌉`-rack
    /// topology.
    pub fn new() -> Self {
        HierarchicalRod::default()
    }

    /// Planner over an explicit rack topology (validated at plan time).
    pub fn with_topology(topology: Topology) -> Self {
        HierarchicalRod {
            options: RodOptions::default(),
            topology: Some(topology),
        }
    }

    /// Planner with explicit ROD options and an optional topology.
    pub fn with_options(options: RodOptions, topology: Option<Topology>) -> Self {
        HierarchicalRod { options, topology }
    }

    /// The topology a plan over `cluster` would use.
    pub fn effective_topology(&self, cluster: &Cluster) -> Topology {
        match &self.topology {
            Some(t) => t.clone(),
            None => {
                let n = cluster.num_nodes();
                let racks = ((n as f64).sqrt().ceil() as usize).clamp(1, n.max(1));
                Topology::uniform(n, racks)
            }
        }
    }

    /// Runs both levels and returns the plan with diagnostics.
    pub fn place(&self, model: &LoadModel, cluster: &Cluster) -> Result<HierPlan, PlacementError> {
        self.place_impl(model, cluster, None)
    }

    /// Like [`place`](Self::place), recording per-level wall-clock
    /// timings and probe counts into `metrics`.
    pub fn place_with_metrics(
        &self,
        model: &LoadModel,
        cluster: &Cluster,
        metrics: &MetricsRegistry,
    ) -> Result<HierPlan, PlacementError> {
        self.place_impl(model, cluster, Some(metrics))
    }

    fn place_impl(
        &self,
        model: &LoadModel,
        cluster: &Cluster,
        metrics: Option<&MetricsRegistry>,
    ) -> Result<HierPlan, PlacementError> {
        cluster.validate()?;
        let m = model.num_operators();
        if m == 0 {
            return Err(PlacementError::EmptyModel);
        }
        let topology = self.effective_topology(cluster);
        topology.validate(cluster)?;

        // ---- Level 1: ROD over the rack aggregates. ----
        let level1_start = Instant::now();
        let aggregate = topology.aggregate_cluster(cluster);
        let (level1, level1_counts) = RodPlanner::with_options(self.options.clone())
            .place_counted(model, &aggregate, None)?;
        let rack_of: Vec<usize> = (0..m)
            .map(|j| {
                level1
                    .allocation
                    .node_of(OperatorId(j))
                    .expect("level 1 places every operator")
                    .index()
            })
            .collect();
        let level1_seconds = level1_start.elapsed().as_secs_f64();

        // ---- Level 2: ROD within each rack. ----
        let level2_start = Instant::now();
        let mut allocation = Allocation::new(m, cluster.num_nodes());
        let mut selector = Phase2Selector::new(self.options.use_class_one, false);
        // Level 1 has checked the bound; its variable point is the same
        // for every rack.
        let lower_bound = self
            .options
            .input_lower_bound
            .as_ref()
            .map(|b| model.variable_point(b));
        for (r, members) in topology.racks().iter().enumerate() {
            let mut ops: Vec<OperatorId> = (0..m)
                .map(OperatorId)
                .filter(|op| rack_of[op.index()] == r)
                .collect();
            if ops.is_empty() {
                continue;
            }
            norm_descending(&mut ops, |op| model.operator_norm(op));
            let rack_cluster = topology.rack_cluster(cluster, r);
            let mut eval = IncrementalPlanEval::new(model, &rack_cluster);
            if let Some(point) = &lower_bound {
                eval.set_lower_bound(point);
            }
            selector.place(&mut eval, &ops, 0..members.len(), None);
            for &op in &ops {
                let local = eval
                    .allocation()
                    .node_of(op)
                    .expect("Phase 2 places every operator");
                allocation.assign(op, NodeId(members[local.index()]));
            }
        }
        let level2_counts = selector.counts;
        let mut counts = level1_counts;
        counts.add(level2_counts);
        if let Some(metrics) = metrics {
            metrics.observe("hier.level1_seconds", level1_seconds);
            metrics.observe("hier.level2_seconds", level2_start.elapsed().as_secs_f64());
            metrics.set_gauge("hier.racks", topology.num_racks() as f64);
            metrics.add("hier.candidates_scored", counts.scored);
            metrics.add("hier.candidates_bounded", counts.bounded);
            metrics.add("hier.nodes_visited", counts.visited);
            metrics.add("hier.blocks_skipped", counts.blocks_skipped);
            metrics.add("hier.level1_candidates_scored", level1_counts.scored);
            metrics.add("hier.level1_candidates_bounded", level1_counts.bounded);
            metrics.add("hier.level2_candidates_scored", level2_counts.scored);
            metrics.add("hier.level2_candidates_bounded", level2_counts.bounded);
        }

        Ok(HierPlan {
            allocation,
            rack_of,
            topology,
            candidates_scored: counts.scored,
            candidates_bounded: counts.bounded,
        })
    }
}

impl Planner for HierarchicalRod {
    fn name(&self) -> &'static str {
        "Hierarchical"
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::figure4_graph;
    use crate::graph::GraphBuilder;
    use crate::operator::OperatorKind;

    fn wide_model(streams: usize, per_stream: usize) -> LoadModel {
        let mut b = GraphBuilder::new();
        for s in 0..streams {
            let i = b.add_input();
            for j in 0..per_stream {
                let cost = 1.0 + ((s * 5 + j) % 4) as f64;
                b.add_operator(format!("s{s}o{j}"), OperatorKind::filter(cost, 0.8), &[i])
                    .unwrap();
            }
        }
        LoadModel::derive(&b.build().unwrap()).unwrap()
    }

    #[test]
    fn single_rack_reproduces_plain_rod_exactly() {
        for model in [
            LoadModel::derive(&figure4_graph()).unwrap(),
            wide_model(4, 6),
        ] {
            for caps in [vec![1.0; 5], vec![3.0, 1.0, 1.0, 0.5, 2.0]] {
                let cluster = Cluster::heterogeneous(caps);
                let topology = Topology::uniform(cluster.num_nodes(), 1);
                let hier = HierarchicalRod::with_topology(topology)
                    .place(&model, &cluster)
                    .unwrap();
                let flat = RodPlanner::new().place(&model, &cluster).unwrap();
                assert_eq!(hier.allocation, flat.allocation);
            }
        }
    }

    #[test]
    fn explicit_topology_confines_operators_to_their_rack() {
        let model = wide_model(6, 4);
        let cluster = Cluster::homogeneous(6, 1.0);
        let topology = Topology::new(vec![vec![0, 1, 2], vec![3, 4, 5]]);
        let plan = HierarchicalRod::with_topology(topology.clone())
            .place(&model, &cluster)
            .unwrap();
        assert!(plan.allocation.is_complete());
        for j in 0..model.num_operators() {
            let node = plan.allocation.node_of(OperatorId(j)).unwrap().index();
            let rack = plan.rack_of[j];
            assert!(
                topology.rack(rack).contains(&node),
                "op {j} on node {node} outside rack {rack}"
            );
        }
    }

    #[test]
    fn auto_topology_covers_all_nodes_and_plans() {
        let model = wide_model(5, 8);
        let cluster = Cluster::homogeneous(10, 1.0);
        let planner = HierarchicalRod::new();
        let t = planner.effective_topology(&cluster);
        assert!(t.validate(&cluster).is_ok());
        assert_eq!(t.num_racks(), 4, "⌈√10⌉ racks");
        let plan = planner.place(&model, &cluster).unwrap();
        assert!(plan.allocation.is_complete());
    }

    #[test]
    fn invalid_topology_is_rejected_at_plan_time() {
        let model = wide_model(2, 2);
        let cluster = Cluster::homogeneous(4, 1.0);
        let planner = HierarchicalRod::with_topology(Topology::new(vec![vec![0, 1]]));
        assert_eq!(
            planner.place(&model, &cluster).unwrap_err(),
            PlacementError::UncoveredNode { node: 2 }
        );
    }

    #[test]
    fn a_lower_bound_of_the_wrong_length_is_an_error() {
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let options = RodOptions {
            input_lower_bound: Some(vec![0.1]),
            ..RodOptions::default()
        };
        assert_eq!(
            HierarchicalRod::with_options(options, None)
                .place(&model, &Cluster::homogeneous(4, 1.0))
                .unwrap_err(),
            PlacementError::LowerBoundLength {
                expected: 2,
                given: 1
            }
        );
    }

    #[test]
    fn a_non_finite_lower_bound_is_an_error() {
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let options = RodOptions {
            input_lower_bound: Some(vec![f64::NAN, 0.1]),
            ..RodOptions::default()
        };
        let err = HierarchicalRod::with_options(options, None)
            .place(&model, &Cluster::homogeneous(4, 1.0))
            .unwrap_err();
        assert!(
            matches!(err, PlacementError::LowerBoundNotFinite { input: 0, value } if value.is_nan()),
            "{err:?}"
        );
    }

    #[test]
    fn deterministic_and_load_spreading() {
        let model = wide_model(6, 8);
        let cluster = Cluster::homogeneous(9, 1.0);
        let a = HierarchicalRod::new().place(&model, &cluster).unwrap();
        let b = HierarchicalRod::new().place(&model, &cluster).unwrap();
        assert_eq!(a.allocation, b.allocation);
        // 48 equal-ish operators over 9 nodes: every node gets work.
        assert!(a.allocation.node_counts().iter().all(|&c| c > 0));
    }

    #[test]
    fn metrics_record_levels_and_probes() {
        let model = wide_model(4, 4);
        let cluster = Cluster::homogeneous(6, 1.0);
        let metrics = MetricsRegistry::new();
        let plan = HierarchicalRod::new()
            .place_with_metrics(&model, &cluster, &metrics)
            .unwrap();
        assert_eq!(metrics.gauge("hier.racks"), Some(3.0));
        assert_eq!(
            metrics.counter("hier.candidates_scored"),
            plan.candidates_scored
        );
        assert_eq!(
            metrics.counter("hier.candidates_bounded"),
            plan.candidates_bounded
        );
        for (total, name) in [
            (plan.candidates_scored, "candidates_scored"),
            (plan.candidates_bounded, "candidates_bounded"),
        ] {
            let level = |l: u8| metrics.counter(&format!("hier.level{l}_{name}"));
            assert_eq!(level(1) + level(2), total, "{name}");
        }
        assert!(metrics.counter("hier.nodes_visited") >= plan.candidates_scored);
    }
}
