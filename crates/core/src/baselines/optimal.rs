//! Brute-force optimal placement (the §7.3.1 yardstick).
//!
//! "In the simulator, we compared the feasible set size of ROD with the
//! optimal solution on small query graphs (no more than 12 operators and 2
//! to 5 input streams) on two nodes. The average feasible set size ratio
//! of ROD to the optimal is 0.95 and the minimum ratio is 0.82."
//!
//! For homogeneous clusters, node labels are interchangeable, so we
//! enumerate *set partitions with at most `n` blocks* via restricted-growth
//! strings — an `n!` saving that makes the paper's instance sizes quick.
//! Heterogeneous clusters fall back to full `n^m` enumeration. Every plan
//! is scored against one shared quasi-Monte-Carlo point set, so
//! plan-to-plan comparisons carry no sampling noise.

use rod_geom::VolumeEstimator;

use crate::allocation::Allocation;
use crate::baselines::{check_inputs, Planner};
use crate::cluster::Cluster;
use crate::error::PlacementError;
use crate::eval::SampledLoads;
use crate::ids::{NodeId, OperatorId};
use crate::load_model::LoadModel;

/// Exhaustive-search planner maximising estimated feasible-set volume.
#[derive(Clone, Debug)]
pub struct OptimalPlanner {
    /// QMC sample points used to score each candidate plan (at least 1).
    pub samples: usize,
    /// Seed for the scrambled point set.
    pub seed: u64,
    /// Refuse instances whose plan count exceeds this bound.
    pub max_plans: u64,
}

impl Default for OptimalPlanner {
    fn default() -> Self {
        OptimalPlanner {
            samples: 20_000,
            seed: 1,
            max_plans: 5_000_000,
        }
    }
}

impl OptimalPlanner {
    /// Planner with default budget.
    pub fn new() -> Self {
        OptimalPlanner::default()
    }

    /// Number of candidate plans for an instance, honouring symmetry.
    fn plan_count(m: usize, n: usize, homogeneous: bool) -> u64 {
        if homogeneous {
            // Restricted growth strings: product over operators of
            // (used blocks + 1 capped at n). Upper bound: Bell-ish; we
            // just multiply the per-step branching worst case.
            let mut count: u64 = 1;
            for max_block in 1..m as u64 {
                count = count
                    .saturating_mul(max_block.min(n as u64) + 1)
                    .min(u64::MAX / 2);
            }
            count
        } else {
            (n as u64).checked_pow(m as u32).unwrap_or(u64::MAX)
        }
    }

    /// Runs the search, returning the best allocation and its estimated
    /// ratio to the ideal feasible set. Zero `samples` is an error: no
    /// plan can be scored on an empty point set.
    pub fn search(
        &self,
        model: &LoadModel,
        cluster: &Cluster,
    ) -> Result<(Allocation, f64), PlacementError> {
        if self.samples == 0 {
            return Err(PlacementError::NoSamplePoints { planner: "Optimal" });
        }
        check_inputs(model, cluster)?;
        let m = model.num_operators();
        let n = cluster.num_nodes();
        let caps = cluster.capacities();
        let homogeneous = caps.as_slice().iter().all(|&c| (c - caps[0]).abs() < 1e-12);
        if Self::plan_count(m, n, homogeneous) > self.max_plans {
            return Err(PlacementError::TooLargeForExhaustive {
                operators: m,
                nodes: n,
            });
        }

        let estimator = VolumeEstimator::new(
            model.total_coeffs().as_slice(),
            cluster.total_capacity(),
            self.samples,
            self.seed,
        );
        let loads = SampledLoads::from_batch(model.sparse_lo(), estimator.batch(), caps.as_slice());
        let (p, words) = (loads.num_points(), loads.mask_words());
        let mut search = Search {
            loads: &loads,
            n,
            homogeneous,
            rows: vec![0.0; (m + 1) * p],
            alive: vec![0; (m + 1) * words],
            assignment: vec![0; m],
            best: None,
        };
        loads.fill_alive(&mut search.alive[..words]);
        search.recurse(0, 0);
        let (assignment, hits) = search.best.expect("at least one plan enumerated");
        let ratio = hits as f64 / estimator.samples() as f64;
        let mut alloc = Allocation::new(m, n);
        for (j, node) in assignment.into_iter().enumerate() {
            alloc.assign(OperatorId(j), NodeId(node));
        }
        Ok((alloc, ratio))
    }
}

/// Depth-first branch-and-bound over one [`SampledLoads`] table. Depth
/// `j` has placed operators `0..j` and owns two slots: the P-float load
/// row of the node operator `j − 1` went to (depth 0's is all `+0.0`)
/// and the P-bit mask of the points every node keeps. A child copies
/// the row of the depth that last loaded its node and its parent's
/// mask, then adds one operator through [`SampledLoads::add_and_clear`]:
/// the recursion is the undo stack, and nothing is ever subtracted back
/// out, so every row holds the same sums a fresh node mask would.
///
/// Adding operators only kills points, so the popcount of a depth's
/// mask bounds the count of every completion below it; a subtree is
/// pruned once that bound is no better than the incumbent. Children are
/// visited in node order and only a strict improvement replaces the
/// incumbent, so the winner is the first strict maximum in enumeration
/// order, ties included.
struct Search<'a> {
    loads: &'a SampledLoads,
    n: usize,
    homogeneous: bool,
    /// Load rows of depths `0..=m`, P floats each.
    rows: Vec<f64>,
    /// Alive masks of depths `0..=m`, `mask_words` words each.
    alive: Vec<u64>,
    assignment: Vec<usize>,
    best: Option<(Vec<usize>, usize)>,
}

impl Search<'_> {
    fn recurse(&mut self, j: usize, used: usize) {
        let (p, words) = (self.loads.num_points(), self.loads.mask_words());
        let upper: usize = self.alive[j * words..(j + 1) * words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        if let Some((_, best_hits)) = &self.best {
            if upper <= *best_hits {
                return;
            }
        }
        if j == self.assignment.len() {
            // `upper` is the exact count of the complete plan.
            self.best = Some((self.assignment.clone(), upper));
            return;
        }
        // Symmetry breaking: on homogeneous clusters operator j may open
        // at most one new node (the lowest unused index).
        let limit = if self.homogeneous {
            (used + 1).min(self.n)
        } else {
            self.n
        };
        for node in 0..limit {
            // The depth whose row holds this node's loads: one past the
            // last operator placed on it, or 0 for an empty node.
            let from = (0..j)
                .rev()
                .find(|&d| self.assignment[d] == node)
                .map_or(0, |d| d + 1);
            let (done, next) = self.rows.split_at_mut((j + 1) * p);
            let row = &mut next[..p];
            row.copy_from_slice(&done[from * p..(from + 1) * p]);
            let (done, next) = self.alive.split_at_mut((j + 1) * words);
            let alive = &mut next[..words];
            alive.copy_from_slice(&done[j * words..]);
            self.loads.add_and_clear(node, j, row, alive);
            self.assignment[j] = node;
            self.recurse(j + 1, used.max(node + 1));
        }
    }
}

impl Planner for OptimalPlanner {
    fn name(&self) -> &'static str {
        "Optimal"
    }

    fn plan(&self, model: &LoadModel, cluster: &Cluster) -> Result<Allocation, PlacementError> {
        self.search(model, cluster).map(|(a, _)| a)
    }

    fn plan_with_metrics(
        &self,
        model: &LoadModel,
        cluster: &Cluster,
        metrics: &crate::obs::MetricsRegistry,
    ) -> Result<Allocation, PlacementError> {
        let pool_before = rod_pool::global().stats();
        let kernel_before = rod_geom::simd::path_counts();
        let start = std::time::Instant::now();
        let result = self.plan(model, cluster);
        metrics.observe("Optimal.plan_seconds", start.elapsed().as_secs_f64());
        crate::obs::record_pool_delta(metrics, &pool_before, &rod_pool::global().stats());
        crate::obs::record_kernel_path(metrics, &kernel_before, &rod_geom::simd::path_counts());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::PlanEvaluator;
    use crate::examples_paper::figure4_graph;
    use crate::rod::RodPlanner;

    /// Enumerates all placements in the search's visit order, invoking
    /// `visit` on each complete assignment (`assignment[j]` = node of
    /// operator `j`): the unpruned walk the branch-and-bound prunes.
    fn enumerate(m: usize, n: usize, homogeneous: bool, visit: &mut impl FnMut(&[usize])) {
        fn recurse(
            assignment: &mut [usize],
            j: usize,
            used: usize,
            n: usize,
            homogeneous: bool,
            visit: &mut impl FnMut(&[usize]),
        ) {
            if j == assignment.len() {
                visit(assignment);
                return;
            }
            // Symmetry breaking: on homogeneous clusters operator j may
            // open at most one new node (the lowest unused index).
            let limit = if homogeneous { (used + 1).min(n) } else { n };
            for node in 0..limit {
                assignment[j] = node;
                recurse(assignment, j + 1, used.max(node + 1), n, homogeneous, visit);
            }
        }
        recurse(&mut vec![0; m], 0, 0, n, homogeneous, visit);
    }

    #[test]
    fn finds_a_plan_at_least_as_good_as_rod() {
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let (opt, opt_ratio) = OptimalPlanner::new().search(&model, &cluster).unwrap();
        assert!(opt.is_complete());

        let rod = RodPlanner::new()
            .place(&model, &cluster)
            .unwrap()
            .allocation;
        let estimator = VolumeEstimator::new(
            model.total_coeffs().as_slice(),
            cluster.total_capacity(),
            20_000,
            1,
        );
        let ev = PlanEvaluator::new(&model, &cluster);
        let rod_ratio = estimator.estimate(&ev.feasible_region(&rod)).ratio_to_ideal;
        assert!(
            opt_ratio >= rod_ratio - 1e-12,
            "optimal {opt_ratio} < ROD {rod_ratio}"
        );
        // On Example 2, ROD should in fact be near-optimal.
        assert!(
            rod_ratio / opt_ratio > 0.8,
            "ROD/OPT = {}",
            rod_ratio / opt_ratio
        );
    }

    /// Zero QMC points is an error, directly and through the registry,
    /// not a plan with a NaN ratio.
    #[test]
    fn zero_samples_is_an_error() {
        use crate::baselines::{build_planner, PlannerSpec};

        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let want = PlacementError::NoSamplePoints { planner: "Optimal" };
        let planner = OptimalPlanner {
            samples: 0,
            ..OptimalPlanner::new()
        };
        assert_eq!(planner.search(&model, &cluster).unwrap_err(), want);
        let spec = PlannerSpec::Optimal {
            samples: 0,
            seed: 1,
            max_plans: 5_000_000,
        };
        assert_eq!(
            build_planner(&spec).plan(&model, &cluster).unwrap_err(),
            want
        );
    }

    #[test]
    fn symmetry_breaking_counts() {
        // 3 operators, 2 homogeneous nodes: partitions into <=2 blocks of
        // a 3-set = 4 (vs 8 labelled assignments).
        let mut seen = 0;
        enumerate(3, 2, true, &mut |_| seen += 1);
        assert_eq!(seen, 4);
        let mut labelled = 0;
        enumerate(3, 2, false, &mut |_| labelled += 1);
        assert_eq!(labelled, 8);
    }

    /// Scores every complete plan from scratch (the pre-branch-and-bound
    /// search shape) with the same tie rule: first strict maximum in
    /// enumeration order.
    fn reference_best(
        model: &LoadModel,
        cluster: &Cluster,
        samples: usize,
        seed: u64,
    ) -> (Vec<usize>, usize) {
        let estimator = VolumeEstimator::new(
            model.total_coeffs().as_slice(),
            cluster.total_capacity(),
            samples,
            seed,
        );
        let caps = cluster.capacities();
        let homogeneous = caps.as_slice().iter().all(|&c| (c - caps[0]).abs() < 1e-12);
        let m = model.num_operators();
        let n = cluster.num_nodes();
        let d = model.num_vars();
        let lo = model.sparse_lo();
        let mut best: Option<(Vec<usize>, usize)> = None;
        enumerate(m, n, homogeneous, &mut |assignment| {
            let mut ln = vec![0.0; n * d];
            for (j, &node) in assignment.iter().enumerate() {
                for (k, &v) in lo.row(j).to_dense().iter().enumerate() {
                    ln[node * d + k] += v;
                }
            }
            let batch = estimator.batch();
            let hits = (0..batch.num_points())
                .map(|p| batch.point(p))
                .filter(|p| {
                    (0..n).all(|i| {
                        let load: f64 = ln[i * d..(i + 1) * d]
                            .iter()
                            .zip(p.as_slice())
                            .map(|(l, x)| l * x)
                            .sum();
                        load <= caps[i] + 1e-12
                    })
                })
                .count();
            if best.as_ref().map_or(true, |(_, b)| hits > *b) {
                best = Some((assignment.to_vec(), hits));
            }
        });
        best.expect("at least one plan")
    }

    #[test]
    fn branch_and_bound_matches_exhaustive_rescoring() {
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        for cluster in [
            Cluster::homogeneous(2, 1.0),
            Cluster::homogeneous(3, 1.0),
            Cluster::heterogeneous(vec![1.5, 0.5]),
        ] {
            let planner = OptimalPlanner {
                samples: 4_000,
                seed: 9,
                ..OptimalPlanner::new()
            };
            let (alloc, ratio) = planner.search(&model, &cluster).unwrap();
            let (reference, ref_hits) = reference_best(&model, &cluster, 4_000, 9);
            let expected_ratio = ref_hits as f64 / 4_000.0;
            for (j, &node) in reference.iter().enumerate() {
                assert_eq!(
                    alloc.node_of(OperatorId(j)),
                    Some(NodeId(node)),
                    "operator {j} on {:?} nodes",
                    cluster.capacities()
                );
            }
            assert_eq!(ratio, expected_ratio);
        }
    }

    #[test]
    fn refuses_oversized_instances() {
        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let tiny = OptimalPlanner {
            max_plans: 1,
            ..OptimalPlanner::new()
        };
        assert!(matches!(
            tiny.search(&model, &cluster),
            Err(PlacementError::TooLargeForExhaustive { .. })
        ));
    }
}
