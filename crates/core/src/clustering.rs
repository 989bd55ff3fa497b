//! Operator clustering (paper §6.3).
//!
//! When per-tuple data-communication cost is not negligible, ROD is
//! preceded by a clustering pass that merges the endpoints of *costly
//! arcs* so they always land on the same node. Two greedy policies are
//! implemented, exactly as described:
//!
//! * [`ClusteringPolicy::LargestRatio`] — repeatedly cluster the arc with
//!   the largest *clustering ratio* (per-tuple transfer overhead of the
//!   arc divided by the minimum per-tuple processing overhead of its two
//!   end-operators) until every ratio is below a threshold;
//! * [`ClusteringPolicy::MinWeight`] — like the above, but among arcs over
//!   the threshold, merge the two connected clusters with the minimum
//!   total weight (avoiding the heavy-cluster problem of the first
//!   policy).
//!
//! Both respect an upper bound on the resulting cluster *weight* — a
//! cluster's largest share of any one stream's total load — since a heavy
//! cluster forces some node's weight above the cap no matter where it is
//! placed. The paper found "no clear winner", so [`ClusteringSearch`]
//! implements its practical recipe: sweep a few thresholds under each
//! policy, run ROD on each clustering, and keep the plan with the maximum
//! min plane distance.

use serde::{Deserialize, Serialize};

use rod_geom::{SparseLoadMatrix, SparseRow};

use crate::allocation::{Allocation, PlanEvaluator};
use crate::cluster::Cluster;
use crate::error::PlacementError;
use crate::eval::IncrementalPlanEval;
use crate::ids::{OperatorId, StreamId};
use crate::load_model::LoadModel;
use crate::operator::OperatorKind;
use crate::rod::{norm_descending, Phase2Selector};

/// Per-arc data-transfer cost model: CPU cycles per tuple shipped across
/// the network (the "CPU overhead for data communication" that §2.1
/// initially assumes negligible and §6.3 reinstates).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ArcCosts {
    /// Cycles per tuple for every inter-operator stream.
    pub per_tuple: f64,
}

impl ArcCosts {
    /// Uniform transfer cost per tuple.
    pub fn uniform(per_tuple: f64) -> Self {
        ArcCosts { per_tuple }
    }

    /// Transfer cost of one arc (uniform today; a map keyed by stream
    /// would slot in here without touching the algorithms).
    pub fn cost_of(&self, _stream: StreamId) -> f64 {
        self.per_tuple
    }
}

/// Which greedy merge rule to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusteringPolicy {
    /// Merge the arc with the largest clustering ratio first.
    LargestRatio,
    /// Among arcs above the threshold, merge the pair of clusters with the
    /// smallest combined weight first.
    MinWeight,
}

/// A partition of the operators into co-location clusters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OperatorClustering {
    /// `cluster_of[j]` is the cluster index of operator `j`.
    cluster_of: Vec<usize>,
    /// Members of each cluster.
    members: Vec<Vec<OperatorId>>,
}

impl OperatorClustering {
    /// The trivial clustering (every operator alone).
    pub fn singletons(num_operators: usize) -> Self {
        OperatorClustering {
            cluster_of: (0..num_operators).collect(),
            members: (0..num_operators).map(|j| vec![OperatorId(j)]).collect(),
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.members.len()
    }

    /// Cluster index of an operator.
    pub fn cluster_of(&self, op: OperatorId) -> usize {
        self.cluster_of[op.index()]
    }

    /// Members of a cluster.
    pub fn members(&self, cluster: usize) -> &[OperatorId] {
        &self.members[cluster]
    }

    /// Merges the clusters containing `a` and `b`; no-op if already
    /// together. Renumbers clusters compactly.
    fn merge(&mut self, a: OperatorId, b: OperatorId) {
        let (ca, cb) = (self.cluster_of(a), self.cluster_of(b));
        if ca == cb {
            return;
        }
        let (keep, drop) = (ca.min(cb), ca.max(cb));
        let moved = std::mem::take(&mut self.members[drop]);
        for &op in &moved {
            self.cluster_of[op.index()] = keep;
        }
        self.members[keep].extend(moved);
        self.members.remove(drop);
        for c in self.cluster_of.iter_mut() {
            if *c > drop {
                *c -= 1;
            }
        }
    }
}

/// Per-tuple processing overhead of an operator: the cheapest per-tuple
/// work it does on any port (the denominator of the clustering ratio).
/// For joins the per-pair cost is the closest analogue of per-tuple work.
fn unit_processing_cost(kind: &OperatorKind) -> f64 {
    match kind {
        OperatorKind::Linear { costs, .. } | OperatorKind::VariableSelectivity { costs, .. } => {
            costs
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
                .max(f64::MIN_POSITIVE)
        }
        OperatorKind::WindowJoin { cost_per_pair, .. } => cost_per_pair.max(f64::MIN_POSITIVE),
    }
}

/// Weight of a cluster: its largest share of any one stream's total load,
/// `max_k (Σ_{j ∈ cluster} l^o_{jk}) / l_k`. A cluster of weight `w`
/// forces some node's weight ≥ `w·n` on a homogeneous `n`-node cluster,
/// so caps are expressed in this per-stream-share unit.
fn cluster_weight(model: &LoadModel, members: &[OperatorId]) -> f64 {
    let d = model.num_vars();
    let totals = model.total_coeffs();
    let mut acc = vec![0.0; d];
    for &op in members {
        for (k, v) in model.operator_sparse_row(op).iter() {
            acc[k] += v;
        }
    }
    (0..d)
        .map(|k| {
            if totals[k] > 0.0 {
                acc[k] / totals[k]
            } else {
                0.0
            }
        })
        .fold(0.0, f64::max)
}

/// Runs one greedy clustering pass.
///
/// `threshold` — stop when no remaining arc's clustering ratio exceeds it.
/// `weight_cap` — never create a cluster whose weight exceeds this.
pub fn cluster_operators(
    model: &LoadModel,
    arc_costs: &ArcCosts,
    policy: ClusteringPolicy,
    threshold: f64,
    weight_cap: f64,
) -> OperatorClustering {
    let graph = model.graph();
    let mut clustering = OperatorClustering::singletons(model.num_operators());

    // Arc list with clustering ratios (static: costs don't change as
    // clusters merge; only eligibility does).
    let arcs: Vec<(OperatorId, OperatorId, f64)> = graph
        .operator_arcs()
        .into_iter()
        .map(|(p, c, s)| {
            let transfer = arc_costs.cost_of(s);
            let min_proc = unit_processing_cost(&graph.operator(p).kind)
                .min(unit_processing_cost(&graph.operator(c).kind));
            (p, c, transfer / min_proc)
        })
        .collect();

    loop {
        // Candidate arcs: above threshold, endpoints in different
        // clusters, merged weight under the cap.
        let mut candidates: Vec<&(OperatorId, OperatorId, f64)> = arcs
            .iter()
            .filter(|(p, c, ratio)| {
                *ratio > threshold && clustering.cluster_of(*p) != clustering.cluster_of(*c)
            })
            .filter(|(p, c, _)| {
                let mut merged: Vec<OperatorId> =
                    clustering.members(clustering.cluster_of(*p)).to_vec();
                merged.extend_from_slice(clustering.members(clustering.cluster_of(*c)));
                cluster_weight(model, &merged) <= weight_cap
            })
            .collect();
        if candidates.is_empty() {
            break;
        }
        let pick = match policy {
            ClusteringPolicy::LargestRatio => {
                candidates.sort_by(|a, b| b.2.total_cmp(&a.2));
                candidates[0]
            }
            ClusteringPolicy::MinWeight => {
                candidates.sort_by(|a, b| {
                    let wa = cluster_weight(model, clustering.members(clustering.cluster_of(a.0)))
                        + cluster_weight(model, clustering.members(clustering.cluster_of(a.1)));
                    let wb = cluster_weight(model, clustering.members(clustering.cluster_of(b.0)))
                        + cluster_weight(model, clustering.members(clustering.cluster_of(b.1)));
                    wa.total_cmp(&wb)
                });
                candidates[0]
            }
        };
        clustering.merge(pick.0, pick.1);
    }
    clustering
}

/// Places a clustered model: runs ROD over the clusters (treating each as
/// one super-operator whose load row is the sum of its members') and
/// expands back to an operator-level allocation. The super-operators go
/// through ROD's own Phase 1 and Phase 2 ([`crate::rod`]), so the
/// Class-I rule and tie-break are flat ROD's.
pub fn place_clustered(
    model: &LoadModel,
    cluster: &Cluster,
    clustering: &OperatorClustering,
) -> Result<Allocation, PlacementError> {
    cluster.validate()?;
    let d = model.num_vars();
    let nc = clustering.num_clusters();
    if nc == 0 {
        return Err(PlacementError::EmptyModel);
    }

    // Super-operator load rows: member rows summed in member order.
    let rows = (0..nc)
        .map(|c| {
            let mut row = vec![0.0; d];
            for &op in clustering.members(c) {
                for (k, v) in model.operator_sparse_row(op).iter() {
                    row[k] += v;
                }
            }
            SparseRow::from_dense(&row)
        })
        .collect();
    let supers = SparseLoadMatrix::from_rows(d, rows);

    // Weights stay normalised by the model's column totals: the
    // super-rows' own column sums round differently.
    let mut eval = IncrementalPlanEval::from_rows(&supers, model.total_coeffs(), cluster);
    let mut order: Vec<OperatorId> = (0..nc).map(OperatorId).collect();
    norm_descending(&mut order, |c| supers.row(c.index()).norm());
    Phase2Selector::new(true, false).place(&mut eval, &order, 0..cluster.num_nodes(), None);

    let placed = eval.into_allocation();
    let mut alloc = Allocation::new(model.num_operators(), cluster.num_nodes());
    for c in 0..nc {
        let dest = placed
            .node_of(OperatorId(c))
            .expect("Phase 2 places every cluster");
        for &op in clustering.members(c) {
            alloc.assign(op, dest);
        }
    }
    Ok(alloc)
}

/// One candidate plan produced by the clustering search.
#[derive(Clone, Debug)]
pub struct ClusteringCandidate {
    /// The policy that produced it.
    pub policy: ClusteringPolicy,
    /// The clustering-ratio threshold used.
    pub threshold: f64,
    /// The clustering itself.
    pub clustering: OperatorClustering,
    /// The expanded allocation.
    pub allocation: Allocation,
    /// Its min plane distance (the selection criterion).
    pub min_plane_distance: f64,
    /// Inter-node arcs under the plan (the communication payoff).
    pub internode_arcs: usize,
}

/// The paper's practical recipe: "generate a small number of clustering
/// plans for each of these approaches by systematically varying the
/// threshold values, obtain the resulting operator distribution plans
/// using ROD, and pick the one with the maximum plane distance."
#[derive(Clone, Debug)]
pub struct ClusteringSearch {
    /// Thresholds to sweep (for each policy).
    pub thresholds: Vec<f64>,
    /// Weight cap applied to every clustering.
    pub weight_cap: f64,
}

impl Default for ClusteringSearch {
    fn default() -> Self {
        ClusteringSearch {
            thresholds: vec![0.25, 0.5, 1.0, 2.0, 4.0],
            weight_cap: 0.5,
        }
    }
}

impl ClusteringSearch {
    /// Sweeps both policies over the thresholds and returns every
    /// candidate, best (max min-plane-distance) first.
    pub fn run(
        &self,
        model: &LoadModel,
        cluster: &Cluster,
        arc_costs: &ArcCosts,
    ) -> Result<Vec<ClusteringCandidate>, PlacementError> {
        let ev = PlanEvaluator::new(model, cluster);
        let mut out = Vec::new();
        for policy in [ClusteringPolicy::LargestRatio, ClusteringPolicy::MinWeight] {
            for &threshold in &self.thresholds {
                let clustering =
                    cluster_operators(model, arc_costs, policy, threshold, self.weight_cap);
                let allocation = place_clustered(model, cluster, &clustering)?;
                let min_plane_distance = ev.min_plane_distance(&allocation);
                let internode_arcs = ev.internode_arcs(&allocation);
                out.push(ClusteringCandidate {
                    policy,
                    threshold,
                    clustering,
                    allocation,
                    min_plane_distance,
                    internode_arcs,
                });
            }
        }
        out.sort_by(|a, b| b.min_plane_distance.total_cmp(&a.min_plane_distance));
        Ok(out)
    }

    /// Convenience: the single best candidate.
    pub fn best(
        &self,
        model: &LoadModel,
        cluster: &Cluster,
        arc_costs: &ArcCosts,
    ) -> Result<ClusteringCandidate, PlacementError> {
        Ok(self
            .run(model, cluster, arc_costs)?
            .into_iter()
            .next()
            .expect("at least one candidate per sweep"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::figure4_graph;
    use crate::graph::GraphBuilder;
    use crate::rod::RodPlanner;

    fn model() -> LoadModel {
        LoadModel::derive(&figure4_graph()).unwrap()
    }

    #[test]
    fn singleton_clustering() {
        let c = OperatorClustering::singletons(3);
        assert_eq!(c.num_clusters(), 3);
        assert_eq!(c.cluster_of(OperatorId(2)), 2);
    }

    #[test]
    fn merge_compacts_indices() {
        let mut c = OperatorClustering::singletons(4);
        c.merge(OperatorId(0), OperatorId(2));
        assert_eq!(c.num_clusters(), 3);
        assert_eq!(c.cluster_of(OperatorId(0)), c.cluster_of(OperatorId(2)));
        // Merging again is a no-op.
        c.merge(OperatorId(2), OperatorId(0));
        assert_eq!(c.num_clusters(), 3);
    }

    #[test]
    fn high_transfer_cost_clusters_chains() {
        let m = model();
        // Transfer cost 100 vs processing costs 4..9: every arc's ratio
        // is >> 1, so each chain collapses into one cluster.
        let clustering = cluster_operators(
            &m,
            &ArcCosts::uniform(100.0),
            ClusteringPolicy::LargestRatio,
            1.0,
            1.0,
        );
        assert_eq!(clustering.num_clusters(), 2);
    }

    #[test]
    fn zero_transfer_cost_keeps_singletons() {
        let m = model();
        let clustering = cluster_operators(
            &m,
            &ArcCosts::uniform(0.0),
            ClusteringPolicy::LargestRatio,
            0.5,
            1.0,
        );
        assert_eq!(clustering.num_clusters(), 4);
    }

    #[test]
    fn weight_cap_blocks_heavy_clusters() {
        let m = model();
        // Chain 1 (o1+o2) has full share of stream 1 (weight 1.0); cap at
        // 0.9 forbids that merge but allows nothing heavier.
        let clustering = cluster_operators(
            &m,
            &ArcCosts::uniform(100.0),
            ClusteringPolicy::LargestRatio,
            1.0,
            0.9,
        );
        assert_eq!(clustering.num_clusters(), 4, "cap must block both merges");
    }

    #[test]
    fn clustered_placement_keeps_clusters_whole() {
        let m = model();
        let clustering = cluster_operators(
            &m,
            &ArcCosts::uniform(100.0),
            ClusteringPolicy::MinWeight,
            1.0,
            1.0,
        );
        let cluster = Cluster::homogeneous(2, 1.0);
        let alloc = place_clustered(&m, &cluster, &clustering).unwrap();
        assert!(alloc.is_complete());
        for c in 0..clustering.num_clusters() {
            let nodes: std::collections::HashSet<_> = clustering
                .members(c)
                .iter()
                .map(|&op| alloc.node_of(op).unwrap())
                .collect();
            assert_eq!(nodes.len(), 1, "cluster {c} split across nodes");
        }
    }

    #[test]
    fn search_orders_by_plane_distance_and_reduces_arcs() {
        // A deeper graph so clustering has something to chew on.
        let mut b = GraphBuilder::new();
        let i0 = b.add_input();
        let i1 = b.add_input();
        for (label, input) in [("a", i0), ("b", i1)] {
            let mut up = input;
            for j in 0..4 {
                let (_, s) = b
                    .add_operator(
                        format!("{label}{j}"),
                        crate::operator::OperatorKind::filter(2.0, 0.9),
                        &[up],
                    )
                    .unwrap();
                up = s;
            }
        }
        let m = LoadModel::derive(&b.build().unwrap()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let search = ClusteringSearch::default();
        let candidates = search.run(&m, &cluster, &ArcCosts::uniform(3.0)).unwrap();
        assert!(!candidates.is_empty());
        for w in candidates.windows(2) {
            assert!(w[0].min_plane_distance >= w[1].min_plane_distance);
        }
        // Aggressive clustering (low thresholds excluded by sweep order)
        // must cut inter-node arcs versus unclustered ROD.
        let ev = PlanEvaluator::new(&m, &cluster);
        let unclustered = RodPlanner::new().place(&m, &cluster).unwrap().allocation;
        let best = &candidates[0];
        assert!(best.internode_arcs <= ev.internode_arcs(&unclustered));
    }
}
