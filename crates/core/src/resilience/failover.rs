//! Precomputed failover assignments and survivor feasible-set scoring.
//!
//! Survivor re-placement is ROD itself: [`survivor_moves`] runs the same
//! Phase-1 order and Phase-2 selector as every other placement, over the
//! surviving nodes only.

use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use rod_geom::{PointBatch, Vector};

use crate::allocation::Allocation;
use crate::cluster::Cluster;
use crate::eval::{IncrementalPlanEval, SampledFeasibility};
use crate::ids::{NodeId, OperatorId};
use crate::load_model::LoadModel;
use crate::resilience::FailureScenario;
use crate::rod::{norm_descending, Phase2Selector};
use crate::score_cache::ScoreCache;

/// Computes where a scenario's orphaned operators should go: unassign
/// every failed node's operators from the incremental state, then place
/// the orphans back on the survivors with ROD's own Phase 1 and Phase 2
/// ([`crate::rod`]), weights still normalised by the whole cluster's
/// capacity. Each probe is O(nnz) on the incremental state, and the
/// pruned scan skips survivors that provably cannot win.
///
/// Returns `(operator, destination)` pairs, heaviest orphan first;
/// destinations are always surviving nodes. The caller's allocation is
/// untouched.
pub fn survivor_moves(
    model: &LoadModel,
    cluster: &Cluster,
    alloc: &Allocation,
    scenario: &FailureScenario,
) -> Vec<(OperatorId, NodeId)> {
    let mut eval = IncrementalPlanEval::from_allocation(model, cluster, alloc);
    let mut orphans: Vec<OperatorId> = Vec::new();
    for j in 0..model.num_operators() {
        let op = OperatorId(j);
        if let Some(host) = alloc.node_of(op) {
            if scenario.kills(host) {
                eval.unassign(op, host);
                orphans.push(op);
            }
        }
    }
    norm_descending(&mut orphans, |op| model.operator_norm(op));
    // Dead nodes host nothing now: they are left out of the candidates,
    // not scored.
    let survivors = scenario.survivors(cluster.num_nodes());
    Phase2Selector::new(true, false).place(
        &mut eval,
        &orphans,
        survivors.iter().map(|node| node.index()),
    );
    orphans
        .into_iter()
        .map(|op| {
            (
                op,
                eval.allocation()
                    .node_of(op)
                    .expect("Phase 2 places every orphan"),
            )
        })
        .collect()
}

/// For each node: where its operators go when it (alone) dies. The
/// backup assignment is chosen by [`survivor_moves`], i.e. by ROD's
/// greedy over the survivors.
///
/// The table is a value: serialisable, diffable, and cheap to ship to a
/// runtime that must fail over without re-planning.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FailoverTable {
    /// `entries[i]` lists `(operator, backup node)` for every operator
    /// hosted on node `i`, in the order they should be re-placed.
    entries: Vec<Vec<(OperatorId, NodeId)>>,
}

impl FailoverTable {
    /// Precomputes the table for a complete allocation: one
    /// [`survivor_moves`] pass per single-node scenario.
    ///
    /// Panics on an incomplete allocation or a single-node cluster (no
    /// survivors to fail over to — callers should treat that cluster as
    /// unprotectable).
    pub fn precompute(model: &LoadModel, cluster: &Cluster, alloc: &Allocation) -> FailoverTable {
        assert!(alloc.is_complete(), "failover table needs a complete plan");
        assert!(
            cluster.num_nodes() >= 2,
            "single-node clusters have no failover target"
        );
        let entries = (0..cluster.num_nodes())
            .map(|i| survivor_moves(model, cluster, alloc, &FailureScenario::single(NodeId(i))))
            .collect();
        FailoverTable { entries }
    }

    /// An empty table for `n` nodes (no planned backups; the simulator
    /// falls back to nothing and orphans stay stranded).
    pub fn empty(n: usize) -> FailoverTable {
        FailoverTable {
            entries: vec![Vec::new(); n],
        }
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.entries.len()
    }

    /// The planned `(operator, backup)` moves for the loss of one node.
    pub fn moves_for(&self, node: NodeId) -> &[(OperatorId, NodeId)] {
        &self.entries[node.index()]
    }

    /// The designated backup of one operator for the loss of `node`, if
    /// the table planned one.
    pub fn backup_of(&self, node: NodeId, op: OperatorId) -> Option<NodeId> {
        self.entries[node.index()]
            .iter()
            .find(|(o, _)| *o == op)
            .map(|(_, dest)| *dest)
    }
}

/// Scores scenarios for one model + cluster against a shared
/// quasi-Monte-Carlo point set: the number of points whose load stays
/// within every *survivor's* capacity after the scenario's orphans have
/// been re-placed by [`survivor_moves`].
///
/// Built on [`SampledFeasibility`], so one scenario evaluation costs
/// O(m·P) pushes/pops instead of an O(P·n·d) from-scratch region test,
/// and every plan is judged on the same points (noise-free comparisons).
///
/// A scorer can be [`fork`](ScenarioScorer::fork)ed for parallel
/// neighborhood scans: forks carry their own feasibility tracker (the
/// mutable part) but share one memoisation cache behind a mutex, so
/// `score_cache_*` metrics stay exact totals across workers.
pub struct ScenarioScorer<'a> {
    model: &'a LoadModel,
    cluster: &'a Cluster,
    feas: SampledFeasibility,
    /// Memoised alive counts per effective assignment — scoped to this
    /// scorer's (model, cluster, point set), so sharing is always
    /// sound. Shared across forks; entries are pure (the key fully
    /// determines the count), so concurrent interleavings can change
    /// only *when* a value is cached, never the value — results stay
    /// deterministic, and the lock is uncontended in the serial case.
    cache: Arc<Mutex<ScoreCache>>,
}

impl<'a> ScenarioScorer<'a> {
    /// A scorer over an explicit point set (typically
    /// `VolumeEstimator::points()`).
    pub fn new(model: &'a LoadModel, cluster: &'a Cluster, points: &[Vector]) -> Self {
        ScenarioScorer::from_batch(model, cluster, &PointBatch::from_points(points))
    }

    /// [`new`](Self::new) over an already-transposed column store
    /// (typically `VolumeEstimator::batch()`), skipping the O(P·d)
    /// re-transpose.
    pub fn from_batch(model: &'a LoadModel, cluster: &'a Cluster, batch: &PointBatch) -> Self {
        ScenarioScorer {
            model,
            cluster,
            feas: SampledFeasibility::from_batch(
                model.sparse_lo(),
                batch,
                cluster.capacities().as_slice(),
            ),
            cache: Arc::new(Mutex::new(ScoreCache::new())),
        }
    }

    /// A worker-side copy for parallel neighborhood scans: its own
    /// feasibility tracker (cloned pristine — `SampledFeasibility`
    /// unwinds to exact bits between scores), the *same* shared score
    /// cache. Scoring through a fork is bit-identical to scoring
    /// through the original.
    pub fn fork(&self) -> ScenarioScorer<'a> {
        ScenarioScorer {
            model: self.model,
            cluster: self.cluster,
            feas: self.feas.clone(),
            cache: Arc::clone(&self.cache),
        }
    }

    /// Like [`fork`](Self::fork), but with a **private, initially empty**
    /// score cache instead of the shared one — a cache *shard*. Long
    /// parallel scans hammer the shared mutex on every candidate score;
    /// a detached fork never contends, at the cost of re-computing keys
    /// another worker already saw. Entries are pure (the key fully
    /// determines the count), so detached scoring is still bit-identical
    /// to shared scoring. After the scan, drain each shard with
    /// [`swap_cache`](Self::swap_cache) and fold it into the parent via
    /// [`absorb_cache`](Self::absorb_cache) so the parent's
    /// `score_cache_*` counters are exact totals of all lookups anywhere.
    pub fn fork_detached(&self) -> ScenarioScorer<'a> {
        ScenarioScorer {
            model: self.model,
            cluster: self.cluster,
            feas: self.feas.clone(),
            cache: Arc::new(Mutex::new(ScoreCache::new())),
        }
    }

    /// Folds another cache (typically a detached fork's shard) into this
    /// scorer's cache: entries union (pure values, so collisions agree)
    /// and hit/miss counters add, keeping the totals exact.
    pub fn absorb_cache(&self, other: ScoreCache) {
        self.cache_lock().absorb(other);
    }

    fn cache_lock(&self) -> std::sync::MutexGuard<'_, ScoreCache> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Cache lookups that were served from memory (exact total across
    /// all forks sharing this cache).
    pub fn cache_hits(&self) -> u64 {
        self.cache_lock().hits()
    }

    /// Cache lookups that had to recompute (exact total across forks).
    pub fn cache_misses(&self) -> u64 {
        self.cache_lock().misses()
    }

    /// Number of memoised assignments.
    pub fn cache_len(&self) -> usize {
        self.cache_lock().len()
    }

    /// Replaces the score cache — e.g. with one pre-seeded by an
    /// [`OptimalPlanner`](crate::baselines::optimal::OptimalPlanner) search over
    /// the **same model, cluster and point set** (see the scope rule in
    /// [`crate::score_cache`]). Returns the cache previously installed.
    /// Forks share the cache, so the swap is visible to all of them.
    pub fn swap_cache(&mut self, cache: ScoreCache) -> ScoreCache {
        std::mem::replace(&mut *self.cache_lock(), cache)
    }

    /// Total points tracked.
    pub fn num_points(&self) -> usize {
        self.feas.num_points()
    }

    /// Feasible-point count of the healthy plan (no failure).
    pub fn healthy_alive(&mut self, alloc: &Allocation) -> usize {
        self.alive_under(alloc, &[])
    }

    /// Feasible-point count surviving `scenario`: orphans re-placed per
    /// [`survivor_moves`], dead nodes carry nothing (their capacity
    /// constraint is vacuous).
    pub fn scenario_alive(&mut self, alloc: &Allocation, scenario: &FailureScenario) -> usize {
        let moves = survivor_moves(self.model, self.cluster, alloc, scenario);
        self.alive_under(alloc, &moves)
    }

    /// Worst-case (minimum) surviving feasible-point count over a set of
    /// scenarios. An empty scenario list scores as the healthy count.
    pub fn worst_case_alive(&mut self, alloc: &Allocation, scenarios: &[FailureScenario]) -> usize {
        scenarios
            .iter()
            .map(|s| self.scenario_alive(alloc, s))
            .min()
            .unwrap_or_else(|| self.healthy_alive(alloc))
    }

    /// Alive count with every operator at its allocation host except the
    /// redirected ones. The effective assignment fully determines the
    /// count (dead nodes carry nothing, so they never kill a point), so
    /// it doubles as the [`ScoreCache`] key; on a miss, pushes all
    /// assignments, reads the count, then pops them in LIFO order,
    /// leaving the tracker pristine.
    fn alive_under(&mut self, alloc: &Allocation, redirects: &[(OperatorId, NodeId)]) -> usize {
        let m = self.model.num_operators();
        let mut key: Vec<u32> = Vec::with_capacity(m);
        for j in 0..m {
            let op = OperatorId(j);
            let dest = redirects
                .iter()
                .find(|(o, _)| *o == op)
                .map(|(_, d)| *d)
                .or_else(|| alloc.node_of(op));
            key.push(dest.map_or(crate::score_cache::UNPLACED, |n| n.index() as u32));
        }
        if let Some(alive) = self.cache_lock().get(&key) {
            return alive;
        }
        let mut pushed: Vec<(usize, usize)> = Vec::with_capacity(m);
        for (j, &dest) in key.iter().enumerate() {
            if dest != crate::score_cache::UNPLACED {
                self.feas.push_assign(j, dest as usize);
                pushed.push((j, dest as usize));
            }
        }
        let alive = self.feas.alive_count();
        for &(j, i) in pushed.iter().rev() {
            self.feas.pop_assign(j, i);
        }
        self.cache_lock().insert(key, alive);
        alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::PlanEvaluator;
    use crate::examples_paper::figure4_graph;
    use crate::rod::RodPlanner;
    use rod_geom::VolumeEstimator;

    fn setup() -> (LoadModel, Cluster) {
        (
            LoadModel::derive(&figure4_graph()).unwrap(),
            Cluster::homogeneous(3, 1.0),
        )
    }

    fn rod_plan(model: &LoadModel, cluster: &Cluster) -> Allocation {
        RodPlanner::new().place(model, cluster).unwrap().allocation
    }

    #[test]
    fn survivor_moves_avoid_dead_nodes() {
        let (model, cluster) = setup();
        let alloc = rod_plan(&model, &cluster);
        for scenario in FailureScenario::all_up_to_k(3, 2) {
            let moves = survivor_moves(&model, &cluster, &alloc, &scenario);
            // Every orphan is exactly an operator of a failed node, and
            // every destination survives.
            for (op, dest) in &moves {
                assert!(scenario.kills(alloc.node_of(*op).unwrap()));
                assert!(!scenario.kills(*dest), "{scenario:?} -> {dest:?}");
            }
            let orphan_count: usize = scenario
                .failed()
                .iter()
                .map(|n| alloc.operators_on(*n).len())
                .sum();
            assert_eq!(moves.len(), orphan_count);
        }
    }

    #[test]
    fn table_covers_every_node_and_operator() {
        let (model, cluster) = setup();
        let alloc = rod_plan(&model, &cluster);
        let table = FailoverTable::precompute(&model, &cluster, &alloc);
        assert_eq!(table.num_nodes(), 3);
        for i in 0..3 {
            let node = NodeId(i);
            let hosted = alloc.operators_on(node);
            assert_eq!(table.moves_for(node).len(), hosted.len());
            for op in hosted {
                let backup = table.backup_of(node, op).expect("backup planned");
                assert_ne!(backup, node, "backup on the dead node");
            }
        }
        // Operators not hosted on a node have no backup entry for it.
        for j in 0..4 {
            let op = OperatorId(j);
            if alloc.node_of(op) != Some(NodeId(0)) {
                assert_eq!(table.backup_of(NodeId(0), op), None);
            }
        }
    }

    #[test]
    fn table_round_trips_through_json() {
        let (model, cluster) = setup();
        let alloc = rod_plan(&model, &cluster);
        let table = FailoverTable::precompute(&model, &cluster, &alloc);
        let json = serde_json::to_string(&table).unwrap();
        let back: FailoverTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, table);
    }

    #[test]
    fn scorer_matches_from_scratch_region_counts() {
        let (model, cluster) = setup();
        let alloc = rod_plan(&model, &cluster);
        let estimator = VolumeEstimator::new(
            model.total_coeffs().as_slice(),
            cluster.total_capacity(),
            2_000,
            7,
        );
        let mut scorer = ScenarioScorer::new(&model, &cluster, estimator.points());

        // Healthy count agrees with a from-scratch region test.
        let ev = PlanEvaluator::new(&model, &cluster);
        let region = ev.feasible_region(&alloc);
        let fresh = estimator
            .points()
            .iter()
            .filter(|p| region.contains(p))
            .count();
        assert_eq!(scorer.healthy_alive(&alloc), fresh);

        // Scenario count agrees with manually applying the moves and
        // re-testing (dead node hosts nothing, so drop its constraint by
        // moving everything off it).
        let scenario = FailureScenario::single(NodeId(0));
        let moves = survivor_moves(&model, &cluster, &alloc, &scenario);
        let mut post = alloc.clone();
        for (op, dest) in &moves {
            post.assign(*op, *dest);
        }
        let post_region = ev.feasible_region(&post);
        let fresh_post = estimator
            .points()
            .iter()
            .filter(|p| post_region.contains(p))
            .count();
        assert_eq!(scorer.scenario_alive(&alloc, &scenario), fresh_post);

        // The scorer is reusable: a second healthy query is unchanged —
        // and answered from the score cache without re-pushing.
        let misses = scorer.cache_misses();
        assert_eq!(scorer.healthy_alive(&alloc), fresh);
        assert_eq!(scorer.cache_misses(), misses);
        assert!(scorer.cache_hits() > 0);
    }

    /// Forks score identically to the original and share one cache: a
    /// query answered by the original is a pure hit through any fork.
    #[test]
    fn forked_scorers_share_the_cache_and_agree_bit_for_bit() {
        let (model, cluster) = setup();
        let alloc = rod_plan(&model, &cluster);
        let estimator = VolumeEstimator::new(
            model.total_coeffs().as_slice(),
            cluster.total_capacity(),
            2_000,
            3,
        );
        let mut scorer = ScenarioScorer::new(&model, &cluster, estimator.points());
        let healthy = scorer.healthy_alive(&alloc);
        let mut fork = scorer.fork();
        let misses = fork.cache_misses();
        assert_eq!(fork.healthy_alive(&alloc), healthy);
        assert_eq!(fork.cache_misses(), misses, "fork re-computed a cached key");
        // A fresh query through the fork lands in the shared cache and
        // is then a hit for the original.
        let scenario = FailureScenario::single(NodeId(1));
        let via_fork = fork.scenario_alive(&alloc, &scenario);
        let hits = scorer.cache_hits();
        assert_eq!(scorer.scenario_alive(&alloc, &scenario), via_fork);
        assert!(scorer.cache_hits() > hits);
    }

    /// Detached forks score bit-identically from a cold private shard,
    /// and absorbing the shard makes the parent's counters the exact sum
    /// of all lookups while turning the shard's keys into parent hits.
    #[test]
    fn detached_forks_score_identically_and_merge_exactly() {
        let (model, cluster) = setup();
        let alloc = rod_plan(&model, &cluster);
        let estimator = VolumeEstimator::new(
            model.total_coeffs().as_slice(),
            cluster.total_capacity(),
            2_000,
            3,
        );
        let mut scorer = ScenarioScorer::new(&model, &cluster, estimator.points());
        let healthy = scorer.healthy_alive(&alloc);
        let parent_hits = scorer.cache_hits();
        let parent_misses = scorer.cache_misses();

        let mut shard_scorer = scorer.fork_detached();
        // Cold shard: the healthy key is recomputed (a miss), and the
        // parent's counters don't move.
        assert_eq!(shard_scorer.healthy_alive(&alloc), healthy);
        assert_eq!(shard_scorer.cache_misses(), 1);
        assert_eq!(scorer.cache_misses(), parent_misses);

        let scenario = FailureScenario::single(NodeId(1));
        let via_shard = shard_scorer.scenario_alive(&alloc, &scenario);
        let shard_hits = shard_scorer.cache_hits();
        let shard_misses = shard_scorer.cache_misses();

        let shard = shard_scorer.swap_cache(ScoreCache::new());
        scorer.absorb_cache(shard);
        assert_eq!(scorer.cache_hits(), parent_hits + shard_hits);
        assert_eq!(scorer.cache_misses(), parent_misses + shard_misses);
        // The shard's scenario key is now a pure hit through the parent.
        let hits = scorer.cache_hits();
        assert_eq!(scorer.scenario_alive(&alloc, &scenario), via_shard);
        assert!(scorer.cache_hits() > hits);
    }

    #[test]
    fn losing_a_node_never_grows_the_feasible_set() {
        let (model, cluster) = setup();
        let alloc = rod_plan(&model, &cluster);
        let estimator = VolumeEstimator::new(
            model.total_coeffs().as_slice(),
            cluster.total_capacity(),
            2_000,
            3,
        );
        let mut scorer = ScenarioScorer::new(&model, &cluster, estimator.points());
        let healthy = scorer.healthy_alive(&alloc);
        for scenario in FailureScenario::all_single(3) {
            assert!(scorer.scenario_alive(&alloc, &scenario) <= healthy);
        }
    }
}
