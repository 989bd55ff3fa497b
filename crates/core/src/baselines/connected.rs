//! Connected-Load-Balancing.
//!
//! §7.2: "(1) Assign the most loaded candidate operator to the currently
//! least loaded node (denoted by N_s). (2) Assign operators that are
//! connected to operators already on N_s to N_s as long as the load of N_s
//! (after assignment) is less than the average load of all operators.
//! (3) Repeat step (1) and (2) until all operators are assigned."
//!
//! The evaluation shows this algorithm "fares the worst because it tries
//! to keep all connected operators on the same node … a spike in an input
//! rate cannot be shared among multiple processors" — exactly the failure
//! mode ROD avoids, so it is the important lower anchor of Figure 14.

use rod_geom::Vector;

use crate::allocation::Allocation;
use crate::baselines::{check_inputs, Planner};
use crate::cluster::Cluster;
use crate::error::PlacementError;
use crate::ids::{NodeId, OperatorId};
use crate::load_model::LoadModel;

/// Connected load balancing at a fixed average rate point.
#[derive(Clone, Debug)]
pub struct ConnectedPlanner {
    avg_input_rates: Vec<f64>,
}

impl ConnectedPlanner {
    /// A planner optimising for the given average input rates.
    pub fn new(avg_input_rates: Vec<f64>) -> Self {
        ConnectedPlanner { avg_input_rates }
    }
}

impl Planner for ConnectedPlanner {
    fn name(&self) -> &'static str {
        "Connected"
    }

    fn plan(&self, model: &LoadModel, cluster: &Cluster) -> Result<Allocation, PlacementError> {
        check_inputs(model, cluster)?;
        let x: Vector = model.variable_point(&self.avg_input_rates);
        let m = model.num_operators();
        let n = cluster.num_nodes();
        // Precomputed adjacency: the growth loop below tests
        // connectivity O(m²) times.
        let adjacency = model.graph().adjacency();
        let mut on_ns = vec![false; m];

        let loads: Vec<f64> = model
            .sparse_lo()
            .rows()
            .iter()
            .map(|row| row.dot_dense(x.as_slice()))
            .collect();
        let total: f64 = loads.iter().sum();
        // "the average load of all operators" spread over the nodes: the
        // per-node fair share. Keeping a node's load under it leaves room
        // for the remaining seeds.
        let fair_share = total / n as f64;

        let mut alloc = Allocation::new(m, n);
        let mut node_load = vec![0.0; n];
        let mut unassigned: Vec<OperatorId> = (0..m).map(OperatorId).collect();

        while !unassigned.is_empty() {
            // Step (1): most loaded candidate to least loaded node.
            let (pos, _) = unassigned
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    loads[a.index()].total_cmp(&loads[b.index()]).then(b.cmp(a))
                    // lowest id wins ties
                })
                .expect("non-empty");
            let seed = unassigned.swap_remove(pos);
            let ns = (0..n)
                .min_by(|&a, &b| {
                    let ra = node_load[a] / cluster.capacity(NodeId(a));
                    let rb = node_load[b] / cluster.capacity(NodeId(b));
                    ra.total_cmp(&rb).then(a.cmp(&b))
                })
                .expect("non-empty cluster");
            alloc.assign(seed, NodeId(ns));
            node_load[ns] += loads[seed.index()];
            on_ns.fill(false);
            for &op in &alloc.operators_on(NodeId(ns)) {
                on_ns[op.index()] = true;
            }

            // Step (2): grow the connected component on N_s while under
            // the fair share.
            loop {
                let next = unassigned.iter().position(|&op| {
                    adjacency[op.index()].iter().any(|nb| on_ns[nb.index()])
                        && node_load[ns] + loads[op.index()] < fair_share
                });
                match next {
                    Some(pos) => {
                        let op = unassigned.swap_remove(pos);
                        alloc.assign(op, NodeId(ns));
                        on_ns[op.index()] = true;
                        node_load[ns] += loads[op.index()];
                    }
                    None => break,
                }
            }
        }
        Ok(alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::PlanEvaluator;
    use crate::baselines::test_support::chain_pair_model;
    use crate::graph::GraphBuilder;
    use crate::operator::OperatorKind;

    #[test]
    fn keeps_chains_mostly_together() {
        let model = chain_pair_model();
        let cluster = Cluster::homogeneous(2, 1.0);
        let alloc = ConnectedPlanner::new(vec![1.0, 1.0])
            .plan(&model, &cluster)
            .unwrap();
        assert!(alloc.is_complete());
        let ev = PlanEvaluator::new(&model, &cluster);
        // The whole point of Connected: few arcs cross the network. With
        // two 3-op chains on two nodes we expect at most 2 crossings out
        // of 4 arcs (and usually 0).
        assert!(ev.internode_arcs(&alloc) <= 2);
    }

    #[test]
    fn produces_smaller_feasible_sets_than_separation() {
        // One input, a chain of 4 equal operators, 2 nodes: Connected puts
        // most of the chain on one node, so its min plane distance is
        // worse than the even split's.
        let mut b = GraphBuilder::new();
        let i = b.add_input();
        let mut up = i;
        for j in 0..4 {
            let (_, s) = b
                .add_operator(format!("f{j}"), OperatorKind::filter(1.0, 1.0), &[up])
                .unwrap();
            up = s;
        }
        let model = LoadModel::derive(&b.build().unwrap()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let connected = ConnectedPlanner::new(vec![1.0])
            .plan(&model, &cluster)
            .unwrap();
        let rod = crate::rod::RodPlanner::new()
            .place(&model, &cluster)
            .unwrap()
            .allocation;
        let ev = PlanEvaluator::new(&model, &cluster);
        assert!(
            ev.min_plane_distance(&rod) >= ev.min_plane_distance(&connected),
            "ROD {} vs Connected {}",
            ev.min_plane_distance(&rod),
            ev.min_plane_distance(&connected)
        );
    }

    #[test]
    fn all_operators_assigned_even_with_huge_loads() {
        // Loads far above the fair share must still be placed (step 2's
        // guard must not strand operators).
        let mut b = GraphBuilder::new();
        let i = b.add_input();
        let mut up = i;
        for j in 0..3 {
            let (_, s) = b
                .add_operator(format!("g{j}"), OperatorKind::filter(100.0, 1.0), &[up])
                .unwrap();
            up = s;
        }
        let model = LoadModel::derive(&b.build().unwrap()).unwrap();
        let alloc = ConnectedPlanner::new(vec![5.0])
            .plan(&model, &Cluster::homogeneous(2, 1.0))
            .unwrap();
        assert!(alloc.is_complete());
    }
}
