//! Precomputed failover assignments and survivor feasible-set scoring.
//!
//! Survivor re-placement is ROD itself: [`survivor_moves`] runs the same
//! Phase-1 order and Phase-2 selector as every other placement, over the
//! surviving nodes only. Survivor scoring ([`ScenarioScorer`]) counts
//! feasible points from one memo of per-node masks.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use rod_geom::PointBatch;

use crate::allocation::Allocation;
use crate::cluster::Cluster;
use crate::eval::{IncrementalPlanEval, SampledLoads};
use crate::ids::{NodeId, OperatorId};
use crate::load_model::LoadModel;
use crate::resilience::FailureScenario;
use crate::rod::{norm_descending, Phase2Selector};

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
    let n = cluster.num_nodes();
    let mut survivors = vec![u64::MAX; n.div_ceil(64)];
    for node in scenario.failed().iter().filter(|node| node.index() < n) {
        survivors[node.index() / 64] &= !(1 << (node.index() % 64));
    }
    Phase2Selector::new(true, false).place(&mut eval, &orphans, 0..n, Some(&survivors));
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
/// A point is alive exactly when every loaded node keeps it, so a count
/// is the popcount of the AND of one P-bit mask per loaded node
/// (`SampledLoads::node_mask`). A node's mask depends only on which
/// operators it carries, and a climb keeps revisiting the same node
/// contents, so each mask is memoised by (node, ascending operator list)
/// for the scorer's lifetime: a scenario evaluation costs O(n·P/64) word
/// ANDs plus O(k·P) for each node content not seen before, instead of
/// an O(P·n·d) from-scratch region test, and every plan is judged on
/// the same points (noise-free comparisons). A mask is built by the one
/// add-and-clear loop the branch-and-bound optimum
/// ([`crate::baselines::optimal`]) also counts with: a row from `+0.0`,
/// ascending adds, and a kill test after every add.
///
/// A scorer can be [`fork`](ScenarioScorer::fork)ed for parallel
/// neighborhood scans: forks share the load table read-only and carry
/// their own mask memo (the mutable part, so no lock).
pub struct ScenarioScorer<'a> {
    model: &'a LoadModel,
    cluster: &'a Cluster,
    loads: Arc<SampledLoads>,
    masks: NodeMasks,
}

/// One scorer's memo of per-node feasibility masks, with the scratch a
/// count needs, so that a count whose masks are all memoised allocates
/// nothing. Scoped to one (model, cluster, point set).
struct NodeMasks {
    /// `[node, op, op, …]` (operators ascending) → offset of the node's
    /// mask in `words`.
    index: HashMap<Vec<u32>, usize>,
    /// Every memoised mask, `SampledLoads::mask_words` words each.
    words: Vec<u64>,
    hits: u64,
    misses: u64,
    /// Scratch: per node, the node index followed by its operators, so
    /// each list is its own memo key.
    node_ops: Vec<Vec<u32>>,
    /// Scratch: the running AND of the loaded nodes' masks.
    acc: Vec<u64>,
    /// Scratch: one node's P-float load row.
    row: Vec<f64>,
}

impl NodeMasks {
    fn new(loads: &SampledLoads, num_nodes: usize) -> Self {
        NodeMasks {
            index: HashMap::new(),
            words: Vec::new(),
            hits: 0,
            misses: 0,
            node_ops: (0..num_nodes as u32).map(|i| vec![i]).collect(),
            acc: vec![0; loads.mask_words()],
            row: vec![0.0; loads.num_points()],
        }
    }

    /// Alive count of the assignment in `self.node_ops`: the popcount of
    /// the AND over every node that carries an operator.
    fn count(&mut self, loads: &SampledLoads) -> usize {
        let width = loads.mask_words();
        loads.fill_alive(&mut self.acc);
        for list in self.node_ops.iter().filter(|list| list.len() > 1) {
            let at = match self.index.get(list.as_slice()) {
                Some(&at) => {
                    self.hits += 1;
                    at
                }
                None => {
                    self.misses += 1;
                    let at = self.words.len();
                    self.words.resize(at + width, 0);
                    let mask = &mut self.words[at..];
                    loads.node_mask(list[0] as usize, &list[1..], &mut self.row, mask);
                    self.index.insert(list.clone(), at);
                    at
                }
            };
            for (acc, mask) in self.acc.iter_mut().zip(&self.words[at..at + width]) {
                *acc &= mask;
            }
        }
        self.acc.iter().map(|w| w.count_ones() as usize).sum()
    }
}

impl<'a> ScenarioScorer<'a> {
    /// A scorer over a column-major point set (typically
    /// `VolumeEstimator::batch()`).
    pub fn from_batch(model: &'a LoadModel, cluster: &'a Cluster, batch: &PointBatch) -> Self {
        let loads =
            SampledLoads::from_batch(model.sparse_lo(), batch, cluster.capacities().as_slice());
        ScenarioScorer::with_loads(model, cluster, Arc::new(loads))
    }

    fn with_loads(model: &'a LoadModel, cluster: &'a Cluster, loads: Arc<SampledLoads>) -> Self {
        ScenarioScorer {
            model,
            cluster,
            masks: NodeMasks::new(&loads, cluster.num_nodes()),
            loads,
        }
    }

    /// A worker-side copy for parallel neighborhood scans: the shared
    /// load table and an empty mask memo of its own. Scoring through a
    /// fork is bit-identical to scoring through the original.
    pub fn fork(&self) -> ScenarioScorer<'a> {
        ScenarioScorer::with_loads(self.model, self.cluster, Arc::clone(&self.loads))
    }

    /// Node masks this scorer found in its own memo (forks count their
    /// own).
    pub fn node_mask_hits(&self) -> u64 {
        self.masks.hits
    }

    /// Node masks this scorer had to compute (forks count their own).
    pub fn node_mask_misses(&self) -> u64 {
        self.masks.misses
    }

    /// Total points tracked.
    pub fn num_points(&self) -> usize {
        self.loads.num_points()
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
    /// redirected ones: each node's operator list is built straight from
    /// the allocation and the redirects, and counted from the node
    /// masks. Dead nodes carry nothing, so they never kill a point.
    fn alive_under(&mut self, alloc: &Allocation, redirects: &[(OperatorId, NodeId)]) -> usize {
        let node_ops = &mut self.masks.node_ops;
        for list in node_ops.iter_mut() {
            list.truncate(1);
        }
        for j in 0..self.model.num_operators() {
            let op = OperatorId(j);
            let dest = redirects
                .iter()
                .find(|(o, _)| *o == op)
                .map(|(_, d)| *d)
                .or_else(|| alloc.node_of(op));
            if let Some(node) = dest {
                node_ops[node.index()].push(j as u32);
            }
        }
        self.masks.count(&self.loads)
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
        let batch = estimator.batch();
        let mut scorer = ScenarioScorer::from_batch(&model, &cluster, batch);
        let fresh_count = |region: &rod_geom::FeasibleRegion| {
            (0..batch.num_points())
                .filter(|&p| region.contains(&batch.point(p)))
                .count()
        };

        // Healthy count agrees with a from-scratch region test.
        let ev = PlanEvaluator::new(&model, &cluster);
        let fresh = fresh_count(&ev.feasible_region(&alloc));
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
        let fresh_post = fresh_count(&ev.feasible_region(&post));
        assert_eq!(scorer.scenario_alive(&alloc, &scenario), fresh_post);

        // The scorer is reusable: a second healthy query is unchanged,
        // and every node mask it needs comes from the memo.
        let misses = scorer.node_mask_misses();
        assert_eq!(scorer.healthy_alive(&alloc), fresh);
        assert_eq!(scorer.node_mask_misses(), misses);
        assert!(scorer.node_mask_hits() > 0);
    }

    /// A fork scores identically to the original from a cold mask memo
    /// of its own, and its memo then serves the same query again.
    #[test]
    fn forked_scorers_agree_bit_for_bit() {
        let (model, cluster) = setup();
        let alloc = rod_plan(&model, &cluster);
        let estimator = VolumeEstimator::new(
            model.total_coeffs().as_slice(),
            cluster.total_capacity(),
            2_000,
            3,
        );
        let mut scorer = ScenarioScorer::from_batch(&model, &cluster, estimator.batch());
        let healthy = scorer.healthy_alive(&alloc);
        let scenario = FailureScenario::single(NodeId(1));
        let survived = scorer.scenario_alive(&alloc, &scenario);

        let mut fork = scorer.fork();
        assert_eq!((fork.node_mask_hits(), fork.node_mask_misses()), (0, 0));
        assert_eq!(fork.healthy_alive(&alloc), healthy);
        assert_eq!(fork.scenario_alive(&alloc, &scenario), survived);
        assert!(fork.node_mask_misses() > 0, "a fork starts cold");
        let misses = fork.node_mask_misses();
        assert_eq!(fork.scenario_alive(&alloc, &scenario), survived);
        assert_eq!(fork.node_mask_misses(), misses);
    }

    /// A plan that loads no node keeps every point, including those in
    /// a partial last mask word; an empty point set counts 0.
    #[test]
    fn an_unloaded_plan_keeps_every_point() {
        let (model, cluster) = setup();
        let alloc = rod_plan(&model, &cluster);
        let unloaded = Allocation::new(model.num_operators(), cluster.num_nodes());
        for samples in [0usize, 1, 65, 1_500] {
            let estimator = VolumeEstimator::new(
                model.total_coeffs().as_slice(),
                cluster.total_capacity(),
                samples,
                3,
            );
            let mut scorer = ScenarioScorer::from_batch(&model, &cluster, estimator.batch());
            assert_eq!(scorer.healthy_alive(&unloaded), samples);
            if samples == 0 {
                assert_eq!(scorer.healthy_alive(&alloc), 0);
            }
        }
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
        let mut scorer = ScenarioScorer::from_batch(&model, &cluster, estimator.batch());
        let healthy = scorer.healthy_alive(&alloc);
        for scenario in FailureScenario::all_single(3) {
            assert!(scorer.scenario_alive(&alloc, &scenario) <= healthy);
        }
    }
}
