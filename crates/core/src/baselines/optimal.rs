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
use crate::eval::SampledFeasibility;
use crate::ids::{NodeId, OperatorId};
use crate::load_model::LoadModel;

/// Exhaustive-search planner maximising estimated feasible-set volume.
#[derive(Clone, Debug)]
pub struct OptimalPlanner {
    /// QMC sample points used to score each candidate plan.
    pub samples: usize,
    /// Seed for the scrambled point set.
    pub seed: u64,
    /// Refuse instances whose plan count exceeds this bound.
    pub max_plans: u64,
    /// Worker chunks for the parallel branch-and-bound frontier; `0`
    /// means the [`rod_pool::global`] pool size. The winner is
    /// bit-identical for every value (deterministic incumbent update;
    /// see [`Self::search`]).
    pub threads: usize,
}

impl Default for OptimalPlanner {
    fn default() -> Self {
        OptimalPlanner {
            samples: 20_000,
            seed: 1,
            max_plans: 5_000_000,
            threads: 0,
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

    /// Enumerates all placements, invoking `visit` on each complete
    /// assignment (`assignment[j]` = node of operator `j`). The search
    /// itself uses the pruned recursion in [`Self::search`]; this
    /// unpruned walk exists to test the symmetry-breaking counts.
    #[cfg(test)]
    fn enumerate(m: usize, n: usize, homogeneous: bool, visit: &mut impl FnMut(&[usize])) {
        let mut assignment = vec![0usize; m];
        fn recurse(
            assignment: &mut [usize],
            j: usize,
            used: usize,
            n: usize,
            homogeneous: bool,
            visit: &mut impl FnMut(&[usize]),
        ) {
            let m = assignment.len();
            if j == m {
                visit(assignment);
                return;
            }
            // Symmetry breaking: on homogeneous clusters operator j may
            // open at most one new node (the lowest unused index).
            let limit = if homogeneous { (used + 1).min(n) } else { n };
            for node in 0..limit {
                assignment[j] = node;
                let new_used = used.max(node + 1);
                recurse(assignment, j + 1, new_used, n, homogeneous, visit);
            }
        }
        recurse(&mut assignment, 0, 0, n, homogeneous, visit);
    }

    /// Runs the search, returning the best allocation and its estimated
    /// ratio to the ideal feasible set.
    pub fn search(
        &self,
        model: &LoadModel,
        cluster: &Cluster,
    ) -> Result<(Allocation, f64), PlacementError> {
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

        // Branch-and-bound over the incremental evaluation state:
        // assigning more operators only adds load, so the count of QMC
        // points still feasible under a partial plan — maintained
        // incrementally by `SampledFeasibility` and read in O(1) — is an
        // upper bound on every completion. Prune whole subtrees once it
        // drops to (or below) the incumbent. Children are visited in
        // natural node order and the incumbent is replaced only on a
        // strict improvement, so ties resolve exactly as the
        // enumerate-then-rescore search did.
        struct Search {
            feas: SampledFeasibility,
            n: usize,
            homogeneous: bool,
            best: Option<(Vec<usize>, usize)>,
            assignment: Vec<usize>,
        }
        impl Search {
            fn recurse(&mut self, j: usize, used: usize) {
                let m = self.assignment.len();
                // Bound: the partial plan already excludes everything a
                // completion could add back.
                let upper = self.feas.alive_count();
                if let Some((_, best_hits)) = &self.best {
                    if upper <= *best_hits {
                        return;
                    }
                }
                if j == m {
                    // `upper` is the exact count of the complete plan.
                    self.best = Some((self.assignment.clone(), upper));
                    return;
                }
                let limit = if self.homogeneous {
                    (used + 1).min(self.n)
                } else {
                    self.n
                };
                for node in 0..limit {
                    self.assignment[j] = node;
                    self.feas.push_assign(j, node);
                    self.recurse(j + 1, used.max(node + 1));
                    self.feas.pop_assign(j, node);
                }
            }
        }
        let base_feas =
            SampledFeasibility::from_batch(model.sparse_lo(), estimator.batch(), caps.as_slice());
        let threads = match self.threads {
            0 => rod_pool::global().size(),
            t => t,
        };

        // Parallel plan: expand the DFS prefix frontier (lexicographic =
        // DFS visit order) until there are enough independent subtrees
        // to deal out, then give each worker chunk its own tracker clone
        // and a chunk-local incumbent. A local incumbent can only prune
        // subtrees whose bound says "no leaf here strictly beats an
        // *earlier* leaf" — exactly the serial rule — so each chunk
        // reports the first strict maximum of its range, and the ordered
        // strict-`>` merge below reproduces the serial winner (first
        // strict maximum in full DFS order) for every chunk count.
        let frontier: Vec<(Vec<usize>, usize)> = if threads > 1 && m > 1 {
            let target = threads.saturating_mul(3);
            let mut frontier = vec![(Vec::new(), 0usize)];
            let mut depth = 0;
            while depth < m - 1 && frontier.len() < target {
                let mut next = Vec::with_capacity(frontier.len() * n);
                for (prefix, used) in &frontier {
                    let limit = if homogeneous { (used + 1).min(n) } else { n };
                    for node in 0..limit {
                        let mut longer = prefix.clone();
                        longer.push(node);
                        next.push((longer, (*used).max(node + 1)));
                    }
                }
                frontier = next;
                depth += 1;
            }
            frontier
        } else {
            Vec::new()
        };

        let best = if frontier.len() > 1 {
            // More chunks than subtrees would idle (`chunks` clamps).
            let ranges = rod_pool::chunks(frontier.len(), threads);
            rod_pool::global().map_reduce(
                ranges.len(),
                |c| {
                    let mut search = Search {
                        feas: base_feas.clone(),
                        n,
                        homogeneous,
                        best: None,
                        assignment: vec![0; m],
                    };
                    for idx in ranges[c].clone() {
                        let (prefix, used) = &frontier[idx];
                        for (j, &node) in prefix.iter().enumerate() {
                            search.assignment[j] = node;
                            search.feas.push_assign(j, node);
                        }
                        search.recurse(prefix.len(), *used);
                        for (j, &node) in prefix.iter().enumerate().rev() {
                            search.feas.pop_assign(j, node);
                        }
                    }
                    search.best
                },
                None::<(Vec<usize>, usize)>,
                // Ordered reduction: chunk winners arrive in range order;
                // strict `>` keeps the earliest on ties.
                |best, chunk_best| match (best, chunk_best) {
                    (best, None) => best,
                    (None, chunk_best) => chunk_best,
                    (Some(b), Some(c)) => Some(if c.1 > b.1 { c } else { b }),
                },
            )
        } else {
            let mut search = Search {
                feas: base_feas,
                n,
                homogeneous,
                best: None,
                assignment: vec![0; m],
            };
            search.recurse(0, 0);
            search.best
        };
        let (assignment, hits) = best.expect("at least one plan enumerated");
        let ratio = hits as f64 / estimator.samples() as f64;
        let mut alloc = Allocation::new(m, n);
        for (j, node) in assignment.into_iter().enumerate() {
            alloc.assign(OperatorId(j), NodeId(node));
        }
        Ok((alloc, ratio))
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
        let wall = start.elapsed().as_secs_f64();
        metrics.observe("Optimal.plan_seconds", wall);
        let pool_after = rod_pool::global().stats();
        crate::obs::record_pool_delta(metrics, &pool_before, &pool_after);
        crate::obs::record_kernel_path(metrics, &kernel_before, &rod_geom::simd::path_counts());
        let busy_delta = pool_after.busy_seconds - pool_before.busy_seconds;
        let speedup = if wall > 0.0 && busy_delta > 0.0 {
            busy_delta / wall
        } else {
            1.0
        };
        metrics.set_gauge("Optimal.parallel_speedup_estimate", speedup);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::PlanEvaluator;
    use crate::examples_paper::figure4_graph;
    use crate::rod::RodPlanner;

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

    /// The parallel frontier search must return the serial winner bit
    /// for bit — same assignment, same hit count — at every chunk
    /// count, and that count must be the one a survivor scorer over the
    /// same point set reads for the winner.
    #[test]
    fn incumbents_are_bit_identical_across_thread_counts() {
        use crate::resilience::ScenarioScorer;

        let model = LoadModel::derive(&figure4_graph()).unwrap();
        for cluster in [
            Cluster::homogeneous(3, 1.0),
            Cluster::heterogeneous(vec![1.5, 0.5]),
        ] {
            let serial = OptimalPlanner {
                samples: 4_000,
                seed: 9,
                threads: 1,
                ..OptimalPlanner::new()
            };
            let (base_alloc, base_ratio) = serial.search(&model, &cluster).unwrap();
            let estimator = VolumeEstimator::new(
                model.total_coeffs().as_slice(),
                cluster.total_capacity(),
                serial.samples,
                serial.seed,
            );
            let mut scorer = ScenarioScorer::from_batch(&model, &cluster, estimator.batch());
            let healthy = scorer.healthy_alive(&base_alloc);
            assert_eq!(healthy as f64 / serial.samples as f64, base_ratio);
            for threads in [2usize, 4, 7] {
                let planner = OptimalPlanner {
                    threads,
                    ..serial.clone()
                };
                let (alloc, ratio) = planner.search(&model, &cluster).unwrap();
                assert_eq!(
                    alloc, base_alloc,
                    "threads={threads}: winner diverged from serial"
                );
                assert_eq!(ratio.to_bits(), base_ratio.to_bits());
            }
        }
    }

    #[test]
    fn symmetry_breaking_counts() {
        // 3 operators, 2 homogeneous nodes: partitions into <=2 blocks of
        // a 3-set = 4 (vs 8 labelled assignments).
        let mut seen = 0;
        OptimalPlanner::enumerate(3, 2, true, &mut |_| seen += 1);
        assert_eq!(seen, 4);
        let mut labelled = 0;
        OptimalPlanner::enumerate(3, 2, false, &mut |_| labelled += 1);
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
        OptimalPlanner::enumerate(m, n, homogeneous, &mut |assignment| {
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
