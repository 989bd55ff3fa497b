//! ResilientRod: maximise the worst-case survivor feasible set.

use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::allocation::Allocation;
use crate::baselines::Planner;
use crate::cluster::Cluster;
use crate::error::PlacementError;
use crate::ids::{NodeId, OperatorId};
use crate::load_model::LoadModel;
use crate::obs::MetricsRegistry;
use crate::resilience::failover::{FailoverTable, ScenarioScorer};
use crate::resilience::scenario::FailureScenario;
use crate::rod::RodPlanner;
use rod_geom::VolumeEstimator;

/// Tuning knobs for [`ResilientRodPlanner`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResilientRodOptions {
    /// QMC sample points used to score survivor feasible sets (at
    /// least 1).
    pub samples: usize,
    /// Seed for the scrambled point set.
    pub seed: u64,
    /// Plan against every loss of up to this many nodes (clamped to
    /// `n - 1`; 1 = all single-node failures, the common case).
    pub max_failures: usize,
    /// Hill-climb budget: stop after this many accepted moves.
    pub max_moves: usize,
    /// Worker chunks for the parallel neighborhood scan; `0` means the
    /// [`rod_pool::global`] pool size (`ROD_THREADS` or hardware
    /// parallelism). Clamped to the candidate-move count; placements
    /// are bit-identical for every value (see the ordered-reduction
    /// contract in `rod_pool`).
    pub threads: usize,
}

impl Default for ResilientRodOptions {
    fn default() -> Self {
        ResilientRodOptions {
            samples: 4_000,
            seed: 2006,
            max_failures: 1,
            max_moves: 64,
            threads: 0,
        }
    }
}

/// The plan a [`ResilientRodPlanner`] produced, with diagnostics.
#[derive(Clone, Debug)]
pub struct ResilientPlan {
    /// The chosen placement.
    pub allocation: Allocation,
    /// Precomputed per-node failover assignments for the placement.
    pub failover: FailoverTable,
    /// Scenarios the plan was optimised against.
    pub scenarios: Vec<FailureScenario>,
    /// Worst-case surviving feasible-point count of the chosen plan.
    pub worst_alive: usize,
    /// The same score for the plain-ROD starting point.
    pub baseline_worst_alive: usize,
    /// Healthy (no-failure) feasible-point count of the chosen plan.
    pub healthy_alive: usize,
    /// Total QMC points scored (denominator of the alive counts).
    pub num_points: usize,
    /// Accepted hill-climb moves that got here from plain ROD.
    pub moves: usize,
}

impl ResilientPlan {
    /// Worst-case survivor volume as a fraction of the sampled simplex.
    pub fn worst_survivor_ratio(&self) -> f64 {
        self.worst_alive as f64 / self.num_points.max(1) as f64
    }
}

/// ROD hardened against node loss: start from the plain-ROD placement,
/// then hill-climb single-operator moves on the lexicographic objective
/// (worst-case survivor alive count, healthy alive count). Only strictly
/// improving moves are accepted, so the result is **never worse than
/// plain ROD** on the worst-case survivor objective — by construction,
/// on every instance.
///
/// Each candidate move costs one scenario sweep on the shared point set:
/// per scenario, a survivor re-placement and an AND of n memoised P-bit
/// node masks ([`ScenarioScorer`]); only a node content the scorer has
/// not seen before costs O(k·P) adds. So the climb is polynomial and
/// deterministic for a fixed seed. The neighborhood scan — the
/// planner's hot loop — is dealt out in contiguous candidate chunks to
/// the persistent [`rod_pool::global`] workers
/// ([`ResilientRodOptions::threads`]; one chunk runs inline): the first
/// chunk scores through the planner's own scorer, each other one through
/// a [`fork`](ScenarioScorer::fork) with its own mask memo, and the
/// ordered reduction keeps the chosen move, and therefore the whole
/// placement, bit-identical at any thread count.
#[derive(Clone, Debug, Default)]
pub struct ResilientRodPlanner {
    options: ResilientRodOptions,
}

impl ResilientRodPlanner {
    /// Planner with default options.
    pub fn new() -> Self {
        ResilientRodPlanner::default()
    }

    /// Planner with explicit options.
    pub fn with_options(options: ResilientRodOptions) -> Self {
        ResilientRodPlanner { options }
    }

    /// Runs the planner and returns the plan with diagnostics.
    pub fn place(
        &self,
        model: &LoadModel,
        cluster: &Cluster,
    ) -> Result<ResilientPlan, PlacementError> {
        self.place_impl(model, cluster, None)
    }

    /// Like [`place`](ResilientRodPlanner::place), additionally recording
    /// phase timings (`resilient_rod.qmc_seconds`,
    /// `resilient_rod.hill_climb_seconds`) and hill-climb work counters
    /// (`resilient_rod.iterations`, `resilient_rod.accepted_moves`,
    /// `resilient_rod.candidate_moves`, and the `node_mask_*` memo
    /// counters summed over every scan chunk's scorer) into `metrics`.
    pub fn place_with_metrics(
        &self,
        model: &LoadModel,
        cluster: &Cluster,
        metrics: &MetricsRegistry,
    ) -> Result<ResilientPlan, PlacementError> {
        self.place_impl(model, cluster, Some(metrics))
    }

    fn place_impl(
        &self,
        model: &LoadModel,
        cluster: &Cluster,
        metrics: Option<&MetricsRegistry>,
    ) -> Result<ResilientPlan, PlacementError> {
        if self.options.samples == 0 {
            return Err(PlacementError::NoSamplePoints {
                planner: "ResilientRod",
            });
        }
        let seed_plan = match metrics {
            Some(m) => RodPlanner::new().place_with_metrics(model, cluster, m)?,
            None => RodPlanner::new().place(model, cluster)?,
        };
        let mut alloc = seed_plan.allocation;
        let n = cluster.num_nodes();
        let m = model.num_operators();

        let scenarios = FailureScenario::all_up_to_k(n, self.options.max_failures);
        // QMC point-set construction is the volume-estimation batch cost;
        // timed here because rod-geom cannot depend on the core registry.
        // The kernel-path snapshot also starts here: the geometry work
        // (the per-operator `dot_into` load table) happens during scorer
        // construction, not in the hill-climb, which only sums the
        // precomputed loads into node masks.
        let kernel_before = rod_geom::simd::path_counts();
        let qmc_start = Instant::now();
        let estimator = VolumeEstimator::new(
            model.total_coeffs().as_slice(),
            cluster.total_capacity(),
            self.options.samples,
            self.options.seed,
        );
        let mut scorer = ScenarioScorer::from_batch(model, cluster, estimator.batch());
        if let Some(metrics) = metrics {
            metrics.observe(
                "resilient_rod.qmc_seconds",
                qmc_start.elapsed().as_secs_f64(),
            );
            metrics.set_gauge("resilient_rod.qmc_points", scorer.num_points() as f64);
        }

        // A single-node cluster has no survivable failure; ResilientRod
        // degenerates to plain ROD (scenarios is empty, worst = healthy).
        let baseline_worst = scorer.worst_case_alive(&alloc, &scenarios);
        let mut best = (baseline_worst, scorer.healthy_alive(&alloc));
        let mut moves = 0;
        let mut iterations = 0u64;
        let mut candidate_moves = 0u64;

        // Parallelism degree for the neighborhood scan, clamped to the
        // largest neighborhood this instance can ever have — extra
        // workers would only hold idle forks.
        let threads = match self.options.threads {
            0 => rod_pool::global().size(),
            t => t,
        }
        .clamp(1, (m * n.saturating_sub(1)).max(1));
        // One scorer per chunk, reused across iterations, so each keeps
        // its node-mask memo for the whole climb: chunk 0 scores through
        // the climb's own scorer, the others through forks. A count is a
        // pure function of the effective assignment, so which scorer
        // makes it changes nothing about the chosen moves.
        let num_points = scorer.num_points();
        let forks: Vec<_> = (1..threads).map(|_| Mutex::new(scorer.fork())).collect();
        let scorers: Vec<_> = std::iter::once(Mutex::new(scorer)).chain(forks).collect();
        let pool_before = rod_pool::global().stats();
        let climb_start = Instant::now();

        // Steepest-ascent over all (operator, destination) single moves;
        // ties broken by scan order (lowest operator, then lowest node),
        // so runs are deterministic at every chunk count: each chunk
        // scans a contiguous candidate slice and reports its first strict
        // maximum, and the ordered strict-`>` merge across slices keeps
        // the first one in scan order. One chunk (`threads == 1`) runs
        // inline on the calling thread.
        let mut candidates: Vec<(OperatorId, NodeId)> = Vec::new();
        while moves < self.options.max_moves {
            iterations += 1;
            let iter_start = Instant::now();
            candidates.clear();
            for j in 0..m {
                let op = OperatorId(j);
                let home = alloc.node_of(op).expect("ROD plans are complete");
                for i in 0..n {
                    let dest = NodeId(i);
                    if dest != home {
                        candidates.push((op, dest));
                    }
                }
            }
            candidate_moves += candidates.len() as u64;

            let ranges = rod_pool::chunks(candidates.len(), threads);
            let improved = rod_pool::global().map_reduce(
                ranges.len(),
                |c| {
                    let mut scorer = scorers[c].lock().unwrap_or_else(|e| e.into_inner());
                    let mut probe = alloc.clone();
                    let mut local: Option<(usize, (usize, usize))> = None;
                    for idx in ranges[c].clone() {
                        let (op, dest) = candidates[idx];
                        let home = probe.node_of(op).expect("ROD plans are complete");
                        probe.assign(op, dest);
                        let score = (
                            scorer.worst_case_alive(&probe, &scenarios),
                            scorer.healthy_alive(&probe),
                        );
                        probe.assign(op, home);
                        let target = local.as_ref().map_or(best, |&(_, s)| s);
                        if score > target {
                            local = Some((idx, score));
                        }
                    }
                    local
                },
                None::<(usize, (usize, usize))>,
                // Ordered merge, strict `>`: equal scores keep the earlier
                // chunk's (lower-index) winner.
                |acc, win| match (acc, win) {
                    (acc, None) => acc,
                    (None, some) => some,
                    (Some(a), Some(w)) => Some(if w.1 > a.1 { w } else { a }),
                },
            );
            if let Some(metrics) = metrics {
                metrics.observe(
                    "resilient_rod.iteration_seconds",
                    iter_start.elapsed().as_secs_f64(),
                );
            }
            match improved {
                Some((idx, score)) => {
                    let (op, dest) = candidates[idx];
                    alloc.assign(op, dest);
                    best = score;
                    moves += 1;
                }
                None => break,
            }
        }
        if let Some(metrics) = metrics {
            let climb_wall = climb_start.elapsed().as_secs_f64();
            // The node-mask memos stay per chunk; their counters sum.
            let (mut mask_hits, mut mask_misses) = (0, 0);
            for scorer in &scorers {
                let scorer = scorer.lock().unwrap_or_else(|e| e.into_inner());
                mask_hits += scorer.node_mask_hits();
                mask_misses += scorer.node_mask_misses();
            }
            metrics.observe("resilient_rod.hill_climb_seconds", climb_wall);
            metrics.add("resilient_rod.iterations", iterations);
            metrics.add("resilient_rod.accepted_moves", moves as u64);
            metrics.add("resilient_rod.candidate_moves", candidate_moves);
            metrics.add("resilient_rod.node_mask_hits", mask_hits);
            metrics.add("resilient_rod.node_mask_misses", mask_misses);
            metrics.set_gauge("resilient_rod.threads", threads as f64);
            let pool_after = rod_pool::global().stats();
            crate::obs::record_pool_delta(metrics, &pool_before, &pool_after);
            crate::obs::record_kernel_path(metrics, &kernel_before, &rod_geom::simd::path_counts());
            // Worker busy-time over wall-time ≈ how many cores the scan
            // actually kept busy — 1.0 when serial or on one core.
            let busy_delta = pool_after.busy_seconds - pool_before.busy_seconds;
            let speedup = if threads > 1 && climb_wall > 0.0 && busy_delta > 0.0 {
                busy_delta / climb_wall
            } else {
                1.0
            };
            metrics.set_gauge("resilient_rod.parallel_speedup_estimate", speedup);
        }

        let failover = if n >= 2 {
            FailoverTable::precompute(model, cluster, &alloc)
        } else {
            FailoverTable::empty(n)
        };
        Ok(ResilientPlan {
            allocation: alloc,
            failover,
            scenarios,
            worst_alive: best.0,
            baseline_worst_alive: baseline_worst,
            healthy_alive: best.1,
            num_points,
            moves,
        })
    }
}

impl Planner for ResilientRodPlanner {
    fn name(&self) -> &'static str {
        "ResilientRod"
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

    fn setup(n: usize) -> (LoadModel, Cluster) {
        (
            LoadModel::derive(&figure4_graph()).unwrap(),
            Cluster::homogeneous(n, 1.0),
        )
    }

    fn small_options() -> ResilientRodOptions {
        ResilientRodOptions {
            samples: 1_500,
            seed: 11,
            max_failures: 1,
            max_moves: 16,
            threads: 1,
        }
    }

    /// Zero QMC points is an error, directly and through the registry,
    /// not a plain-ROD plan scored 0 of 0.
    #[test]
    fn zero_samples_is_an_error() {
        use crate::baselines::{build_planner, PlannerSpec};

        let (model, cluster) = setup(2);
        let want = PlacementError::NoSamplePoints {
            planner: "ResilientRod",
        };
        let planner = ResilientRodPlanner::with_options(ResilientRodOptions {
            samples: 0,
            ..small_options()
        });
        assert_eq!(planner.place(&model, &cluster).unwrap_err(), want);
        let spec = PlannerSpec::ResilientRod {
            samples: 0,
            seed: 11,
            max_failures: 1,
            threads: 1,
        };
        assert_eq!(
            build_planner(&spec).plan(&model, &cluster).unwrap_err(),
            want
        );
        assert!(want.to_string().contains("must be at least 1"), "{want}");
    }

    #[test]
    fn never_worse_than_rod_on_worst_case_survivor_volume() {
        for n in [2, 3, 4] {
            let (model, cluster) = setup(n);
            let plan = ResilientRodPlanner::with_options(small_options())
                .place(&model, &cluster)
                .unwrap();
            assert!(
                plan.worst_alive >= plan.baseline_worst_alive,
                "n={n}: {} < {}",
                plan.worst_alive,
                plan.baseline_worst_alive
            );
            assert!(plan.allocation.is_complete());
            assert_eq!(plan.failover.num_nodes(), n);
            assert_eq!(plan.scenarios.len(), n);
        }
    }

    #[test]
    fn single_node_cluster_degenerates_to_rod() {
        let (model, cluster) = setup(1);
        let plan = ResilientRodPlanner::with_options(small_options())
            .place(&model, &cluster)
            .unwrap();
        assert!(plan.scenarios.is_empty());
        assert_eq!(plan.worst_alive, plan.healthy_alive);
        let rod = RodPlanner::new().place(&model, &cluster).unwrap();
        assert_eq!(plan.allocation, rod.allocation);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (model, cluster) = setup(3);
        let planner = ResilientRodPlanner::with_options(small_options());
        let a = planner.place(&model, &cluster).unwrap();
        let b = planner.place(&model, &cluster).unwrap();
        assert_eq!(a.allocation, b.allocation);
        assert_eq!(a.worst_alive, b.worst_alive);
        assert_eq!(a.failover, b.failover);
    }

    /// The parallel neighborhood scan must reproduce the serial
    /// placement bit for bit, including for oversized thread requests
    /// (clamped to the candidate count, never an error). Every count
    /// looks up one mask per loaded node, whichever worker makes it, so
    /// the total of mask lookups is the same at every thread count too
    /// (the hit/miss split is not: each fork starts with a cold memo).
    #[test]
    fn placements_are_bit_identical_across_thread_counts() {
        let lookups = |metrics: &MetricsRegistry| {
            metrics.counter("resilient_rod.node_mask_hits")
                + metrics.counter("resilient_rod.node_mask_misses")
        };
        for n in [2, 3] {
            let (model, cluster) = setup(n);
            let serial_metrics = MetricsRegistry::new();
            let serial = ResilientRodPlanner::with_options(small_options())
                .place_with_metrics(&model, &cluster, &serial_metrics)
                .unwrap();
            assert!(lookups(&serial_metrics) > 0);
            for threads in [2usize, 4, 7, 1000] {
                let opts = ResilientRodOptions {
                    threads,
                    ..small_options()
                };
                let metrics = MetricsRegistry::new();
                let parallel = ResilientRodPlanner::with_options(opts)
                    .place_with_metrics(&model, &cluster, &metrics)
                    .unwrap();
                assert_eq!(
                    parallel.allocation, serial.allocation,
                    "n={n} threads={threads}: placement diverged from serial"
                );
                assert_eq!(parallel.worst_alive, serial.worst_alive);
                assert_eq!(parallel.healthy_alive, serial.healthy_alive);
                assert_eq!(parallel.moves, serial.moves);
                assert_eq!(
                    lookups(&metrics),
                    lookups(&serial_metrics),
                    "n={n} threads={threads}: mask lookups differ from serial"
                );
            }
        }
    }

    #[test]
    fn planner_trait_produces_complete_plans() {
        let (model, cluster) = setup(2);
        let planner = ResilientRodPlanner::new();
        assert_eq!(planner.name(), "ResilientRod");
        let alloc = planner.plan(&model, &cluster).unwrap();
        assert!(alloc.is_complete());
    }
}
