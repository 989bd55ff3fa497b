//! Correlation-based load balancing.
//!
//! §7.2: "assigns operators to nodes such that operators with high load
//! correlation are separated onto different nodes. This algorithm was
//! designed in our previous work \[23\] for dynamic operator distribution."
//!
//! Given a window of observed input-rate samples, each operator has a load
//! *time series*; co-locating operators whose series move together means
//! the node's peaks stack up. The greedy below places operators in
//! descending mean-load order, choosing for each the node whose current
//! load series is least correlated with the operator's (ties and empty
//! nodes resolved toward the least-loaded node). §7.3.1 observes this is
//! the strongest baseline because "operators that are downstream from a
//! given input have high load correlation and thus tend to be separated" —
//! accidentally approximating ROD's stream-balancing behaviour.

use rod_geom::Vector;

use crate::allocation::Allocation;
use crate::baselines::{check_inputs, Planner};
use crate::cluster::Cluster;
use crate::error::PlacementError;
use crate::ids::{NodeId, OperatorId};
use crate::load_model::LoadModel;

/// Correlation-based placement over an observed rate history.
#[derive(Clone, Debug)]
pub struct CorrelationPlanner {
    /// Observed system-input rate points, one inner `Vec` per time step.
    rate_history: Vec<Vec<f64>>,
}

impl CorrelationPlanner {
    /// A planner observing the given rate history (at least two samples
    /// are needed for correlations to exist).
    pub fn new(rate_history: Vec<Vec<f64>>) -> Self {
        assert!(
            rate_history.len() >= 2,
            "correlation needs at least two rate samples"
        );
        CorrelationPlanner { rate_history }
    }
}

/// Pearson correlation of two equal-length series; 0 when either is
/// constant (covariance carries no signal there).
fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va <= 0.0 || vb <= 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

impl Planner for CorrelationPlanner {
    fn name(&self) -> &'static str {
        "Correlation"
    }

    fn plan(&self, model: &LoadModel, cluster: &Cluster) -> Result<Allocation, PlacementError> {
        check_inputs(model, cluster)?;
        let m = model.num_operators();
        let n = cluster.num_nodes();
        let t = self.rate_history.len();

        // Load series per operator: row · x(t) over the history.
        let var_points: Vec<Vector> = self
            .rate_history
            .iter()
            .map(|r| model.variable_point(r))
            .collect();
        let series: Vec<Vec<f64>> = model
            .sparse_lo()
            .rows()
            .iter()
            .map(|row| {
                var_points
                    .iter()
                    .map(|x| row.dot_dense(x.as_slice()))
                    .collect()
            })
            .collect();
        let mean_loads: Vec<f64> = series
            .iter()
            .map(|s| s.iter().sum::<f64>() / t as f64)
            .collect();

        let mut order: Vec<OperatorId> = (0..m).map(OperatorId).collect();
        order.sort_by(|&a, &b| {
            mean_loads[b.index()]
                .total_cmp(&mean_loads[a.index()])
                .then(a.cmp(&b))
        });

        let mut node_series = vec![vec![0.0; t]; n];
        let mut node_mean = vec![0.0; n];
        let mut alloc = Allocation::new(m, n);

        for op in order {
            let op_series = &series[op.index()];
            // Choose the node minimising (correlation, relative load).
            let dest = (0..n)
                .min_by(|&a, &b| {
                    let ca = correlation(op_series, &node_series[a]);
                    let cb = correlation(op_series, &node_series[b]);
                    let la = node_mean[a] / cluster.capacity(NodeId(a));
                    let lb = node_mean[b] / cluster.capacity(NodeId(b));
                    ca.total_cmp(&cb).then(la.total_cmp(&lb)).then(a.cmp(&b))
                })
                .expect("non-empty cluster");
            alloc.assign(op, NodeId(dest));
            for (acc, &x) in node_series[dest].iter_mut().zip(op_series) {
                *acc += x;
            }
            node_mean[dest] += mean_loads[op.index()];
        }
        Ok(alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::test_support::chain_pair_model;

    #[test]
    fn correlation_helper() {
        let up = [1.0, 2.0, 3.0, 4.0];
        let down = [4.0, 3.0, 2.0, 1.0];
        assert!((correlation(&up, &up) - 1.0).abs() < 1e-12);
        assert!((correlation(&up, &down) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&up, &[5.0; 4]), 0.0);
    }

    #[test]
    fn separates_same_stream_operators() {
        // Two independent inputs with anti-correlated rates: operators on
        // the same chain correlate perfectly, so they should spread across
        // nodes rather than stack on one.
        let model = chain_pair_model();
        let cluster = Cluster::homogeneous(2, 1.0);
        let history = vec![
            vec![1.0, 3.0],
            vec![2.0, 2.0],
            vec![3.0, 1.0],
            vec![1.5, 2.5],
            vec![2.5, 1.5],
        ];
        let alloc = CorrelationPlanner::new(history)
            .plan(&model, &cluster)
            .unwrap();
        assert!(alloc.is_complete());
        // Chain A is operators 0..3, chain B is 3..6. Neither chain should
        // sit entirely on one node.
        for chain in [[0usize, 1, 2], [3, 4, 5]] {
            let nodes: std::collections::HashSet<_> = chain
                .iter()
                .map(|&j| alloc.node_of(OperatorId(j)).unwrap())
                .collect();
            assert!(nodes.len() > 1, "chain {chain:?} all on one node");
        }
    }

    #[test]
    #[should_panic(expected = "at least two rate samples")]
    fn rejects_single_sample_history() {
        let _ = CorrelationPlanner::new(vec![vec![1.0, 1.0]]);
    }

    #[test]
    fn deterministic() {
        let model = chain_pair_model();
        let cluster = Cluster::homogeneous(3, 1.0);
        let history = vec![vec![1.0, 2.0], vec![2.0, 1.0], vec![3.0, 3.0]];
        let a = CorrelationPlanner::new(history.clone())
            .plan(&model, &cluster)
            .unwrap();
        let b = CorrelationPlanner::new(history)
            .plan(&model, &cluster)
            .unwrap();
        assert_eq!(a, b);
    }
}
