//! Largest-Load-First (LLF) load balancing.
//!
//! §7.2: "orders the operators by their average load-level and assigns
//! operators in descending order to the currently least loaded node."
//! Load levels are taken at a single observed rate point — the classic
//! single-point optimisation that ROD argues is brittle. Node load is
//! normalised by capacity so the planner behaves sensibly on
//! heterogeneous clusters.

use rod_geom::Vector;

use crate::allocation::Allocation;
use crate::baselines::{check_inputs, Planner};
use crate::cluster::Cluster;
use crate::error::PlacementError;
use crate::ids::{NodeId, OperatorId};
use crate::load_model::LoadModel;

/// Greedy least-loaded-node balancing at a fixed average rate point.
#[derive(Clone, Debug)]
pub struct LlfPlanner {
    /// The observed average system-input rates the plan optimises for.
    avg_input_rates: Vec<f64>,
}

impl LlfPlanner {
    /// A planner optimising for the given average input rates.
    pub fn new(avg_input_rates: Vec<f64>) -> Self {
        LlfPlanner { avg_input_rates }
    }
}

impl Planner for LlfPlanner {
    fn name(&self) -> &'static str {
        "LLF"
    }

    fn plan(&self, model: &LoadModel, cluster: &Cluster) -> Result<Allocation, PlacementError> {
        check_inputs(model, cluster)?;
        assert_eq!(
            self.avg_input_rates.len(),
            model.num_inputs(),
            "one average rate per system input"
        );
        let x: Vector = model.variable_point(&self.avg_input_rates);
        let m = model.num_operators();
        let n = cluster.num_nodes();

        // Average load of each operator at the observed point.
        let loads: Vec<f64> = model
            .sparse_lo()
            .rows()
            .iter()
            .map(|row| row.dot_dense(x.as_slice()))
            .collect();

        let mut order: Vec<OperatorId> = (0..m).map(OperatorId).collect();
        order.sort_by(|&a, &b| {
            loads[b.index()]
                .total_cmp(&loads[a.index()])
                .then(a.cmp(&b))
        });

        let mut node_load = vec![0.0; n];
        let mut alloc = Allocation::new(m, n);
        for op in order {
            // Least relative load; ties to the lowest index.
            let dest = (0..n)
                .min_by(|&a, &b| {
                    let ra = node_load[a] / cluster.capacity(NodeId(a));
                    let rb = node_load[b] / cluster.capacity(NodeId(b));
                    ra.total_cmp(&rb).then(a.cmp(&b))
                })
                .expect("non-empty cluster");
            alloc.assign(op, NodeId(dest));
            node_load[dest] += loads[op.index()];
        }
        Ok(alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::PlanEvaluator;
    use crate::baselines::test_support::chain_pair_model;

    #[test]
    fn balances_load_at_observed_point() {
        let model = chain_pair_model();
        let cluster = Cluster::homogeneous(2, 1.0);
        let rates = vec![1.0, 1.0];
        let alloc = LlfPlanner::new(rates.clone())
            .plan(&model, &cluster)
            .unwrap();
        assert!(alloc.is_complete());
        let ev = PlanEvaluator::new(&model, &cluster);
        let loads = ev.node_loads_at(&alloc, &rates);
        let total: f64 = loads.as_slice().iter().sum();
        let imbalance = (loads[0] - loads[1]).abs() / total;
        // LPT-style greedy gets within the largest item of perfect balance;
        // for this workload that is well under 30% of total.
        assert!(imbalance < 0.3, "imbalance {imbalance}");
    }

    #[test]
    fn heavy_operators_placed_first() {
        // With one huge operator and several small ones on 2 nodes, the
        // huge one must sit alone-ish: node loads stay within 2x.
        use crate::graph::GraphBuilder;
        use crate::operator::OperatorKind;
        let mut b = GraphBuilder::new();
        let i = b.add_input();
        b.add_operator("big", OperatorKind::filter(10.0, 1.0), &[i])
            .unwrap();
        for j in 0..5 {
            b.add_operator(format!("small{j}"), OperatorKind::filter(2.0, 1.0), &[i])
                .unwrap();
        }
        let model = LoadModel::derive(&b.build().unwrap()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let alloc = LlfPlanner::new(vec![1.0]).plan(&model, &cluster).unwrap();
        let ev = PlanEvaluator::new(&model, &cluster);
        let loads = ev.node_loads_at(&alloc, &[1.0]);
        assert!((loads[0] - loads[1]).abs() <= 2.0 + 1e-9, "{loads:?}");
    }

    #[test]
    fn respects_capacity_ratios() {
        let model = chain_pair_model();
        let cluster = Cluster::heterogeneous(vec![3.0, 1.0]);
        let alloc = LlfPlanner::new(vec![1.0, 1.0])
            .plan(&model, &cluster)
            .unwrap();
        let ev = PlanEvaluator::new(&model, &cluster);
        let u = ev.utilisations_at(&alloc, &[1.0, 1.0]);
        // The big node should be at least as utilised-balanced: no node
        // should have more than ~2.5x the utilisation of the other.
        assert!(u[0] / u[1] < 2.5 && u[1] / u[0] < 2.5, "{u:?}");
    }
}
