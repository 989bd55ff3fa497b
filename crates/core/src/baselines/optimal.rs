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
        self.search_impl(model, cluster, None)
    }

    /// [`search`](Self::search) that additionally memoises every
    /// improving incumbent's exact alive count into `cache`, so callers
    /// re-rating the winner (or near-winners) through a
    /// [`ScenarioScorer`](crate::resilience::ScenarioScorer) over the
    /// **same point set** get those scores for free. The scope rule of
    /// [`crate::score_cache`] applies: the shared point set must be built
    /// with this planner's `samples`/`seed`.
    pub fn search_with_cache(
        &self,
        model: &LoadModel,
        cluster: &Cluster,
        cache: &mut crate::score_cache::ScoreCache,
    ) -> Result<(Allocation, f64), PlacementError> {
        self.search_impl(model, cluster, Some(cache))
    }

    fn search_impl(
        &self,
        model: &LoadModel,
        cluster: &Cluster,
        mut cache: Option<&mut crate::score_cache::ScoreCache>,
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
        struct Search<'c> {
            feas: SampledFeasibility,
            n: usize,
            homogeneous: bool,
            best: Option<(Vec<usize>, usize)>,
            assignment: Vec<usize>,
            /// Improving incumbents' exact counts are memoised here —
            /// only incumbents, so the per-leaf overhead stays zero on
            /// the pruned bulk of the tree.
            cache: Option<&'c mut crate::score_cache::ScoreCache>,
        }
        impl Search<'_> {
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
                    if let Some(cache) = self.cache.as_deref_mut() {
                        cache.insert(self.assignment.iter().map(|&i| i as u32).collect(), upper);
                    }
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

        let (best, chunk_caches) = if frontier.len() > 1 {
            let want_cache = cache.is_some();
            // More chunks than subtrees would idle (`chunks` clamps).
            let ranges = rod_pool::chunks(frontier.len(), threads);
            rod_pool::global().map_reduce(
                ranges.len(),
                |c| {
                    let mut local_cache = want_cache.then(crate::score_cache::ScoreCache::new);
                    let mut search = Search {
                        feas: base_feas.clone(),
                        n,
                        homogeneous,
                        best: None,
                        assignment: vec![0; m],
                        cache: local_cache.as_mut(),
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
                    let best = search.best.take();
                    drop(search);
                    (best, local_cache)
                },
                (None::<(Vec<usize>, usize)>, Vec::new()),
                // Ordered reduction: chunk winners arrive in range order;
                // strict `>` keeps the earliest on ties.
                |(mut best, mut caches), (chunk_best, chunk_cache)| {
                    if let Some((assignment, hits)) = chunk_best {
                        if best.as_ref().map_or(true, |&(_, b)| hits > b) {
                            best = Some((assignment, hits));
                        }
                    }
                    caches.extend(chunk_cache);
                    (best, caches)
                },
            )
        } else {
            let mut search = Search {
                feas: base_feas,
                n,
                homogeneous,
                best: None,
                assignment: vec![0; m],
                cache: cache.as_deref_mut(),
            };
            search.recurse(0, 0);
            (search.best, Vec::new())
        };
        if let Some(cache) = cache {
            for chunk in chunk_caches {
                cache.absorb(chunk);
            }
        }
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

    #[test]
    fn search_with_cache_seeds_scorer_rescoring() {
        use crate::resilience::ScenarioScorer;
        use crate::score_cache::ScoreCache;

        let model = LoadModel::derive(&figure4_graph()).unwrap();
        let cluster = Cluster::homogeneous(2, 1.0);
        let planner = OptimalPlanner::new();
        let mut cache = ScoreCache::new();
        let (opt, ratio) = planner
            .search_with_cache(&model, &cluster, &mut cache)
            .unwrap();
        assert!(!cache.is_empty(), "no incumbent was memoised");

        // A scorer over the same point set answers the winner's healthy
        // score straight from the shared cache.
        let estimator = VolumeEstimator::new(
            model.total_coeffs().as_slice(),
            cluster.total_capacity(),
            planner.samples,
            planner.seed,
        );
        let mut scorer = ScenarioScorer::from_batch(&model, &cluster, estimator.batch());
        scorer.swap_cache(cache);
        let healthy = scorer.healthy_alive(&opt);
        assert_eq!(healthy as f64 / planner.samples as f64, ratio);
        assert_eq!(scorer.cache_hits(), 1);
        assert_eq!(scorer.cache_misses(), 0);
    }

    /// The parallel frontier search must return the serial winner bit
    /// for bit — same assignment, same hit count — at every chunk
    /// count, and the winner must be memoised whichever path ran.
    #[test]
    fn incumbents_are_bit_identical_across_thread_counts() {
        use crate::score_cache::ScoreCache;

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
            for threads in [2usize, 4, 7] {
                let planner = OptimalPlanner {
                    threads,
                    ..serial.clone()
                };
                let mut cache = ScoreCache::new();
                let (alloc, ratio) = planner
                    .search_with_cache(&model, &cluster, &mut cache)
                    .unwrap();
                assert_eq!(
                    alloc, base_alloc,
                    "threads={threads}: winner diverged from serial"
                );
                assert_eq!(ratio.to_bits(), base_ratio.to_bits());
                let key: Vec<u32> = (0..model.num_operators())
                    .map(|j| alloc.node_of(OperatorId(j)).unwrap().0 as u32)
                    .collect();
                assert_eq!(
                    cache.get(&key),
                    Some((ratio * planner.samples as f64).round() as usize),
                    "threads={threads}: winner missing from the merged cache"
                );
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
            let hits = estimator
                .points()
                .iter()
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
