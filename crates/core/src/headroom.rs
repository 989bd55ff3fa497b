//! Burst-headroom analysis.
//!
//! The feasible-set volume is the paper's *global* resilience metric; an
//! operator of a running system asks the *local* question: "we are at
//! rate point `R` right now — how big a burst can this placement absorb
//! before some node saturates?" Exact answers fall out of the hyperplane
//! geometry by ray casting (no sampling):
//!
//! * **per-stream headroom** — the largest multiplier `m_k` such that
//!   scaling stream `k` alone to `m_k·r_k` stays feasible;
//! * **uniform headroom** — the largest `m` such that `m·R` stays
//!   feasible (the distance to the boundary along the current mix);
//! * the **binding node** for each direction — which machine saturates
//!   first, i.e. where capacity should be added.
//!
//! Used by `rodctl explain`, the `burst_resilience` example, and the
//! plan-comparison tests.

use serde::{Deserialize, Serialize};

use rod_geom::Vector;

use crate::allocation::{Allocation, PlanEvaluator};
use crate::error::PlacementError;
use crate::ids::NodeId;

/// Exact headroom of one plan at one operating point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HeadroomReport {
    /// The operating point analysed (system-input rates).
    pub base_rates: Vec<f64>,
    /// Largest feasible multiplier of each input stream alone
    /// (∞ when the stream loads nothing).
    pub per_stream: Vec<f64>,
    /// Largest feasible multiplier of the whole rate vector.
    pub uniform: f64,
    /// The node that saturates first under uniform scaling.
    pub binding_node: NodeId,
}

impl HeadroomReport {
    /// The most fragile stream: the one with the smallest solo-burst
    /// multiplier. `None` for a zero-dimensional report.
    pub fn tightest_stream(&self) -> Option<(usize, f64)> {
        self.per_stream
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Computes the exact headroom of `alloc` at `base_rates`.
///
/// Introduced (linearised) variables scale with their upstream inputs:
/// directions are built by perturbing one input and re-propagating, so a
/// join's output rate responds super-linearly exactly as in the true
/// system. Directions are the *limits* of finite perturbations, computed
/// with a small finite difference — exact for linear graphs, first-order
/// for join outputs (conservative within a few percent for realistic
/// windows).
///
/// A rate point that does not give one rate per system input is
/// [`PlacementError::RateCount`].
pub fn headroom(
    ev: &PlanEvaluator<'_>,
    alloc: &Allocation,
    base_rates: &[f64],
) -> Result<HeadroomReport, PlacementError> {
    let model = ev.model();
    if base_rates.len() != model.num_inputs() {
        return Err(PlacementError::RateCount {
            expected: model.num_inputs(),
            given: base_rates.len(),
        });
    }
    // One pass through the evaluation layer supplies both the exact
    // region (for ray casting) and the node load rows (for the binding
    // node) without rebuilding matrices twice.
    let eval = ev.incremental(alloc);
    let region = eval.snapshot().region;
    let base_point = model.variable_point(base_rates);

    // Per-stream: direction = d(variable point)/d(rate_k), finite diff.
    let eps = 1e-6;
    let mut per_stream = Vec::with_capacity(base_rates.len());
    for k in 0..base_rates.len() {
        let mut bumped = base_rates.to_vec();
        let step = (base_rates[k].abs() + 1.0) * eps;
        bumped[k] += step;
        let bumped_point = model.variable_point(&bumped);
        let direction = Vector::new(
            bumped_point
                .as_slice()
                .iter()
                .zip(base_point.as_slice())
                .map(|(b, a)| (b - a) / step)
                .collect(),
        );
        let alpha = region.max_scale_along(&base_point, &direction);
        // alpha is extra *rate* on stream k; convert to a multiplier.
        let multiplier = if base_rates[k] > 0.0 {
            1.0 + alpha / base_rates[k]
        } else {
            f64::INFINITY
        };
        per_stream.push(multiplier);
    }

    // Uniform: direction = the base variable point itself (for linear
    // graphs scaling all inputs by m scales every variable by m; for
    // joins the true response is steeper, making this slightly
    // optimistic — callers probing joins should verify with
    // `is_feasible_at`, as the tests do).
    let alpha = region.max_scale_along(&base_point, &base_point);
    let uniform = 1.0 + alpha;

    // Binding node under uniform scaling: the argmin of slack/load.
    let caps = ev.cluster().capacities();
    let binding_node = (0..eval.num_nodes())
        .filter_map(|i| {
            let load: f64 = eval
                .node_load_row(NodeId(i))
                .iter()
                .zip(base_point.as_slice())
                .map(|(l, x)| l * x)
                .sum();
            (load > 0.0).then_some((i, caps[i] / load))
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| NodeId(i))
        .unwrap_or(NodeId(0));

    Ok(HeadroomReport {
        base_rates: base_rates.to_vec(),
        per_stream,
        uniform,
        binding_node,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::examples_paper::{example2_plans, figure4_graph};
    use crate::load_model::LoadModel;
    use crate::rod::RodPlanner;

    #[test]
    fn headroom_matches_hand_computation_on_example2() {
        // Plan (a): L^n = [[4,2],[6,9]], C = (1,1). Base R = (0.05, 0.05):
        // loads N1 = 0.3, N2 = 0.75.
        // Solo stream 1: N1 slack 0.7 / 4 = 0.175 extra, N2 slack 0.25/6
        // = 0.04166 → binding. Multiplier = 1 + 0.04166/0.05 = 1.8333.
        // Uniform: N2 ratio C/load = 1/0.75 → m = 1.3333.
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let ev = PlanEvaluator::new(&model, &cluster);
        let [a, _, _] = example2_plans();
        let report = headroom(&ev, &a, &[0.05, 0.05]).unwrap();
        assert!((report.per_stream[0] - 1.8333).abs() < 1e-3, "{report:?}");
        assert!((report.uniform - 4.0 / 3.0).abs() < 1e-3, "{report:?}");
        assert_eq!(report.binding_node, NodeId(1));
    }

    #[test]
    fn headroom_boundary_is_actually_the_boundary() {
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let ev = PlanEvaluator::new(&model, &cluster);
        let plan = RodPlanner::new()
            .place(&model, &cluster)
            .unwrap()
            .allocation;
        let base = [0.03, 0.04];
        let report = headroom(&ev, &plan, &base).unwrap();
        // Just inside is feasible; just outside is not — per stream and
        // uniformly.
        for k in 0..2 {
            let m = report.per_stream[k];
            let mut inside = base.to_vec();
            inside[k] *= m * 0.999;
            let mut outside = base.to_vec();
            outside[k] *= m * 1.001;
            assert!(ev.is_feasible_at(&plan, &inside), "stream {k} inside");
            assert!(!ev.is_feasible_at(&plan, &outside), "stream {k} outside");
        }
        let inside: Vec<f64> = base.iter().map(|r| r * report.uniform * 0.999).collect();
        let outside: Vec<f64> = base.iter().map(|r| r * report.uniform * 1.001).collect();
        assert!(ev.is_feasible_at(&plan, &inside));
        assert!(!ev.is_feasible_at(&plan, &outside));
    }

    #[test]
    fn rod_has_more_solo_burst_headroom_than_concentrated_plans() {
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let ev = PlanEvaluator::new(&model, &cluster);
        let rod = RodPlanner::new()
            .place(&model, &cluster)
            .unwrap()
            .allocation;
        let [_, _, plan_c] = example2_plans(); // whole chains per node
        let base = [0.04, 0.04];
        let rod_report = headroom(&ev, &rod, &base).unwrap();
        let conc_report = headroom(&ev, &plan_c, &base).unwrap();
        let rod_min = rod_report.tightest_stream().unwrap().1;
        let conc_min = conc_report.tightest_stream().unwrap().1;
        assert!(
            rod_min > conc_min,
            "ROD solo headroom {rod_min} vs concentrated {conc_min}"
        );
    }

    #[test]
    fn a_rate_point_of_the_wrong_length_is_an_error() {
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let ev = PlanEvaluator::new(&model, &cluster);
        let [a, _, _] = example2_plans();
        for rates in [&[0.05][..], &[0.05, 0.05, 0.05], &[]] {
            let err = headroom(&ev, &a, rates).unwrap_err();
            assert_eq!(
                err,
                PlacementError::RateCount {
                    expected: 2,
                    given: rates.len(),
                }
            );
            let message = err.to_string();
            assert!(
                message.contains(&format!("gives {} rates", rates.len())),
                "{message}"
            );
            assert!(message.contains("has 2 inputs"), "{message}");
        }
    }

    #[test]
    fn infeasible_base_reports_no_headroom() {
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let ev = PlanEvaluator::new(&model, &cluster);
        let [a, _, _] = example2_plans();
        let report = headroom(&ev, &a, &[1.0, 1.0]).unwrap(); // way overloaded
        assert!(report.uniform <= 1.0);
        assert!(report.per_stream.iter().all(|&m| m <= 1.0));
    }
}
