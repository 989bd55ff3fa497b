//! The simulation model: run configuration and the [`Simulation`] entry
//! point. The event loop itself lives in [`crate::batched`].
//!
//! Each node is a single-server queue: tuples queued at its hosted
//! operators are served FIFO, each occupying the CPU for
//! `per-tuple cost / node capacity` seconds. Emission (selectivity) is
//! decided when service starts; windowed joins maintain real tuple
//! windows and pay per pair examined, so join load is bilinear in the
//! input rates by construction, matching §6.2's analytical model.
//!
//! With [`SimulationConfig::migration`] set, a dynamic load manager runs
//! alongside: every control period it samples window utilisations and
//! migrates one operator from the hottest to the coolest node, paying
//! the paper's "few hundred milliseconds" downtime (plus a state-size
//! term) during which the operator's input is buffered. This is the
//! reactive regime the paper's introduction argues cannot keep up with
//! short-term bursts — now demonstrable against static ROD placements.
//!
//! A run is *exact* by default ([`SimulationConfig::batch`] `= None`):
//! every tuple travels the dataflow as its own event. Opting into
//! [`BatchConfig`] coalesces source arrivals into larger batches for
//! production-volume traces.

use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::graph::QueryGraph;
use rod_core::ids::{NodeId, OperatorId};
use rod_core::resilience::FailoverTable;
use serde::{Deserialize, Serialize};

use crate::report::SimReport;
use crate::source::SourceSpec;
use crate::trace::{NullSink, TraceSink};

/// Network cost model (the §6.3 relaxation of "communication is free").
#[derive(Clone, Copy, Debug)]
pub struct NetworkConfig {
    /// One-way latency added to tuples crossing nodes (seconds).
    pub latency: f64,
    /// CPU seconds charged to the *sending* node per remote tuple.
    pub send_cpu_cost: f64,
    /// CPU seconds charged to the *receiving* node per remote tuple.
    pub recv_cpu_cost: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        // §2.1's initial assumption: high-bandwidth LAN, negligible CPU
        // overhead — a small latency only.
        NetworkConfig {
            latency: 1e-3,
            send_cpu_cost: 0.0,
            recv_cpu_cost: 0.0,
        }
    }
}

/// Configuration of the optional *dynamic* load manager — the
/// operator-migration machinery the paper's introduction argues is too
/// slow for short-term bursts ("the base overhead of run-time operator
/// migration is on the order of a few hundred milliseconds. Operators
/// with large states will have longer migration times"). Enabling it
/// turns the simulator into the reactive system ROD is compared against.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MigrationConfig {
    /// Control period: utilisation is sampled and a migration considered
    /// every this many seconds.
    pub check_interval: f64,
    /// Act only when some node's window utilisation exceeds this.
    pub utilisation_trigger: f64,
    /// ... and the hottest−coolest utilisation gap exceeds this.
    pub imbalance_trigger: f64,
    /// Fixed migration downtime (seconds) — the paper's "few hundred
    /// milliseconds" base overhead.
    pub base_downtime: f64,
    /// Additional downtime per buffered work item, modelling state size.
    pub per_item_downtime: f64,
    /// Operators the manager must never move — the paper's hybrid regime
    /// (§1: "the techniques presented here can be used to place operators
    /// with large state size. Lighter-weight operators can be moved more
    /// frequently using a dynamic algorithm").
    pub pinned: Vec<OperatorId>,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            check_interval: 1.0,
            utilisation_trigger: 0.85,
            imbalance_trigger: 0.2,
            base_downtime: 0.25,
            per_item_downtime: 1e-4,
            pinned: Vec::new(),
        }
    }
}

/// Chaos injection for migration execution: each load-manager migration
/// step fails with `failure_prob` when its transfer completes, is
/// retried after a deterministic exponential backoff, and is rolled back
/// to its origin node once `max_retries` extra attempts are exhausted.
///
/// Failure draws come from a dedicated RNG stream (`seed`), so enabling
/// chaos never perturbs source arrivals or selectivity draws, and a
/// fixed-seed chaos run replays bit-identically. Table-driven failover
/// moves are exempt: their origin node is dead, so there is nothing to
/// roll back onto.
#[derive(Clone, Debug)]
pub struct MigrationChaos {
    /// Probability that a completing migration step fails, in `[0, 1)`.
    pub failure_prob: f64,
    /// Retries allowed per migration after the first failed attempt.
    pub max_retries: u32,
    /// Backoff before the first retry (seconds); doubles per attempt.
    pub base_backoff: f64,
    /// Seed of the dedicated failure-draw RNG stream.
    pub seed: u64,
}

impl Default for MigrationChaos {
    fn default() -> Self {
        MigrationChaos {
            failure_prob: 0.2,
            max_retries: 3,
            base_backoff: 0.2,
            seed: 0,
        }
    }
}

impl MigrationChaos {
    /// Validates the chaos parameters: `failure_prob` in `[0, 1)` (a
    /// certain failure would retry forever under any budget) and a
    /// finite, positive backoff.
    pub fn validate(&self) -> Result<(), String> {
        if !self.failure_prob.is_finite() || !(0.0..1.0).contains(&self.failure_prob) {
            return Err(format!(
                "migration chaos failure probability must be in [0, 1) (got {})",
                self.failure_prob
            ));
        }
        if !self.base_backoff.is_finite() || self.base_backoff <= 0.0 {
            return Err(format!(
                "migration chaos backoff must be finite and positive (got {})",
                self.base_backoff
            ));
        }
        Ok(())
    }

    /// Backoff before retry `attempt` (1-based): `base · 2^(attempt−1)`.
    pub fn backoff(&self, attempt: u32) -> f64 {
        self.base_backoff * 2f64.powi(attempt.saturating_sub(1).min(30) as i32)
    }
}

/// How a node picks the next queued work item.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedulingPolicy {
    /// Strict arrival order across all hosted operators (the default and
    /// the discipline the load model's FIFO latency assumptions match).
    #[default]
    Fifo,
    /// Rotate among hosted operators that have queued work — fair CPU
    /// sharing regardless of input rates.
    RoundRobin,
    /// Serve the operator with the most queued items first — drains the
    /// deepest backlog, at the cost of starving light operators during
    /// overload.
    LongestQueueFirst,
}

/// A scheduled node outage: the node performs no work in `[start, end)`
/// while its queues keep growing — fail-stop failure injection for
/// testing how placements degrade when capacity disappears.
#[derive(Clone, Copy, Debug)]
pub struct Outage {
    /// The failed node.
    pub node: NodeId,
    /// Outage start time.
    pub start: f64,
    /// Outage end (recovery) time.
    pub end: f64,
}

impl Outage {
    /// Validates the outage against a cluster size: the node must exist,
    /// the times must be finite and non-negative, and `start < end`.
    pub fn validate(&self, num_nodes: usize) -> Result<(), String> {
        if self.node.index() >= num_nodes {
            return Err(format!(
                "outage node {} is out of range for a {num_nodes}-node cluster",
                self.node.index()
            ));
        }
        if !self.start.is_finite() || !self.end.is_finite() || self.start < 0.0 {
            return Err(format!(
                "outage times must be finite and non-negative (got {}:{})",
                self.start, self.end
            ));
        }
        if self.start >= self.end {
            return Err(format!(
                "outage must have positive length (start {} >= end {})",
                self.start, self.end
            ));
        }
        Ok(())
    }
}

/// Failure detection and recovery: when set, a node outage is *noticed*
/// after `detection_delay` and the dead node's operators then migrate to
/// their [`FailoverTable`]-designated backups, paying the same downtime
/// cost model as dynamic migration. Without it, outages merely starve
/// queues until the node returns (the pre-recovery behaviour).
#[derive(Clone, Debug)]
pub struct FailoverConfig {
    /// Precomputed per-node backup assignments (typically from
    /// `ResilientPlan::failover` or `FailoverTable::precompute`).
    pub table: FailoverTable,
    /// Seconds between an outage starting and the monitor noticing it.
    pub detection_delay: f64,
    /// Cost model for the failover migrations (downtime per operator).
    pub migration: MigrationConfig,
}

impl FailoverConfig {
    /// A failover config with the default migration cost model.
    pub fn new(table: FailoverTable, detection_delay: f64) -> Self {
        FailoverConfig {
            table,
            detection_delay,
            migration: MigrationConfig::default(),
        }
    }
}

/// Batching for the event engine (see [`crate::batched`]): source
/// arrivals are coalesced into per-(stream, time-bucket) tuple batches
/// and every batch travels the dataflow as a single event, with batch
/// storage recycled through a free list. Batch size 1 is exact mode,
/// the same run as `SimulationConfig::batch = None` whatever the bucket;
/// larger batches trade at most `bucket` seconds of arrival-time
/// fidelity for an order of magnitude in event-engine throughput.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Largest number of tuples carried by one batch (≥ 1).
    pub max_batch: usize,
    /// Time-bucket width in seconds: a batch never spans two buckets, so
    /// batching defers a tuple's processing by at most this much.
    pub bucket: f64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        // 4096 tuples or 2 ms, whichever fills first: at the
        // production-volume rates the engine targets (≥ 1M tuples/s) the
        // size cap binds; at paper-scale rates the bucket keeps arrival
        // times honest to well under typical service times.
        BatchConfig {
            max_batch: 4096,
            bucket: 2e-3,
        }
    }
}

impl BatchConfig {
    /// Validates the batch parameters: a zero batch size can carry no
    /// tuples, and a non-finite or non-positive bucket makes the batch
    /// framing degenerate.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_batch == 0 {
            return Err("batch size must be at least 1 (got 0)".to_string());
        }
        if !self.bucket.is_finite() || self.bucket <= 0.0 {
            return Err(format!(
                "batch bucket must be finite and positive (got {})",
                self.bucket
            ));
        }
        Ok(())
    }
}

/// Run parameters.
#[derive(Clone, Debug)]
pub struct SimulationConfig {
    /// Total simulated time (finite and positive).
    pub horizon: f64,
    /// Prefix excluded from utilisation / latency measurement, in
    /// `[0, horizon)`.
    pub warmup: f64,
    /// RNG seed (sources and selectivity draws).
    pub seed: u64,
    /// Network cost model.
    pub network: NetworkConfig,
    /// Optional dynamic operator migration (None = static placement, the
    /// ROD regime).
    pub migration: Option<MigrationConfig>,
    /// Optional chaos injection on migration execution (None = transfers
    /// always succeed, the pre-chaos behaviour).
    pub migration_chaos: Option<MigrationChaos>,
    /// Take a runtime snapshot ([`crate::report::TimelineSample`]) every
    /// this many seconds (None = no timeline).
    pub sample_interval: Option<f64>,
    /// Node scheduling discipline.
    pub scheduling: SchedulingPolicy,
    /// Fail-stop outages to inject.
    pub outages: Vec<Outage>,
    /// Failure detection + table-driven failover (None = outages starve
    /// queues until the node returns).
    pub failover: Option<FailoverConfig>,
    /// Bounded per-operator queues: arrivals for an operator that already
    /// has this many items queued (or buffered mid-migration) are shed
    /// and counted. None = unbounded (up to `shed_above`/`max_queue`).
    pub op_queue_bound: Option<usize>,
    /// Borealis-style load shedding: when a node's queue already holds
    /// this many items, further arrivals for that node are dropped (and
    /// counted) instead of queued. None = never shed (queues grow until
    /// `max_queue` aborts the run).
    pub shed_above: Option<usize>,
    /// Abort the run (marking it saturated) when this many work items are
    /// queued — the memory-safe signature of an overloaded point.
    pub max_queue: usize,
    /// Keep at most this many latency samples (seeded reservoir sampling
    /// beyond, on a dedicated RNG stream). Must be at least 1.
    pub max_latency_samples: usize,
    /// Coalesce tuples into batches (None = exact mode, one tuple per
    /// batch). See [`BatchConfig`].
    pub batch: Option<BatchConfig>,
}

impl SimulationConfig {
    /// Validates the config against a cluster size: the horizon and
    /// warm-up, every outage (node in range, `start < end`), the failover
    /// table's node count, and the sampling, chaos and batch parameters.
    /// CLI front-ends call this to reject bad input with a message;
    /// [`Simulation::new`] enforces it.
    pub fn validate(&self, num_nodes: usize) -> Result<(), String> {
        if !self.horizon.is_finite() || self.horizon <= 0.0 {
            return Err(format!(
                "horizon must be finite and positive (got {})",
                self.horizon
            ));
        }
        if !(0.0..self.horizon).contains(&self.warmup) {
            return Err(format!(
                "warm-up must be in [0, horizon) (got {} for horizon {})",
                self.warmup, self.horizon
            ));
        }
        for outage in &self.outages {
            outage.validate(num_nodes)?;
        }
        // Overlapping (or duplicate) outages on one node would
        // double-count the engine's down/down_count bookkeeping: a second
        // OutageStart while the node is already down leaves the node
        // permanently "half down" after the first OutageEnd.
        let mut spans: Vec<(usize, f64, f64)> = self
            .outages
            .iter()
            .map(|o| (o.node.index(), o.start, o.end))
            .collect();
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for w in spans.windows(2) {
            let (n0, s0, e0) = w[0];
            let (n1, s1, _) = w[1];
            if n0 == n1 && s1 < e0 {
                return Err(format!(
                    "overlapping outages on node {n0}: [{s1}, ..) begins before [{s0}, {e0}) ends"
                ));
            }
        }
        if let Some(fo) = &self.failover {
            if fo.table.num_nodes() != num_nodes {
                return Err(format!(
                    "failover table covers {} nodes but the cluster has {num_nodes}",
                    fo.table.num_nodes()
                ));
            }
            if !fo.detection_delay.is_finite() || fo.detection_delay < 0.0 {
                return Err(format!(
                    "detection delay must be finite and non-negative (got {})",
                    fo.detection_delay
                ));
            }
        }
        if let Some(chaos) = &self.migration_chaos {
            chaos.validate()?;
        }
        if self.max_latency_samples == 0 {
            return Err(
                "max_latency_samples must be at least 1 (a zero cap records no latencies, \
                 so every reported quantile would be undefined)"
                    .to_string(),
            );
        }
        if let Some(interval) = self.sample_interval {
            if !interval.is_finite() || interval <= 0.0 {
                return Err(format!(
                    "sample interval must be finite and positive (got {interval})"
                ));
            }
        }
        if let Some(batch) = &self.batch {
            batch.validate()?;
            if let Some(interval) = self.sample_interval {
                if batch.bucket > interval {
                    return Err(format!(
                        "batch bucket ({}) exceeds the sample interval ({interval}): batches \
                         would smear arrivals across timeline samples",
                        batch.bucket
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            horizon: 30.0,
            warmup: 5.0,
            seed: 0,
            network: NetworkConfig::default(),
            migration: None,
            migration_chaos: None,
            sample_interval: None,
            scheduling: SchedulingPolicy::default(),
            outages: Vec::new(),
            failover: None,
            op_queue_bound: None,
            shed_above: None,
            max_queue: 200_000,
            max_latency_samples: 100_000,
            batch: None,
        }
    }
}

/// A configured simulation, ready to run.
pub struct Simulation<'a> {
    pub(crate) graph: &'a QueryGraph,
    pub(crate) allocation: &'a Allocation,
    pub(crate) cluster: &'a Cluster,
    pub(crate) sources: Vec<SourceSpec>,
    pub(crate) config: SimulationConfig,
}

impl<'a> Simulation<'a> {
    /// Builds a simulation. `sources` must provide one spec per system
    /// input stream, every constant rate must be finite (an infinite or
    /// NaN rate would generate arrivals forever), `allocation` must be
    /// complete, and `config` must pass [`SimulationConfig::validate`].
    pub fn new(
        graph: &'a QueryGraph,
        allocation: &'a Allocation,
        cluster: &'a Cluster,
        sources: Vec<SourceSpec>,
        config: SimulationConfig,
    ) -> Self {
        assert_eq!(
            sources.len(),
            graph.num_inputs(),
            "one source per system input"
        );
        for (k, source) in sources.iter().enumerate() {
            if let SourceSpec::ConstantRate(rate) = source {
                assert!(
                    rate.is_finite(),
                    "source {k}: constant rate must be finite (got {rate})"
                );
            }
        }
        assert!(allocation.is_complete(), "allocation must be complete");
        assert_eq!(allocation.num_operators(), graph.num_operators());
        cluster.validate().expect("valid cluster");
        if let Err(msg) = config.validate(cluster.num_nodes()) {
            panic!("invalid simulation config: {msg}");
        }
        Simulation {
            graph,
            allocation,
            cluster,
            sources,
            config,
        }
    }

    /// Runs the simulation to completion and reports (tracing disabled).
    pub fn run(&self) -> SimReport {
        self.run_with_sink(&mut NullSink)
    }

    /// Runs the simulation, offering every event-loop transition of
    /// interest to `sink` as a [`TraceRecord`](crate::trace::TraceRecord)
    /// (see [`crate::trace`]). Identical inputs produce the identical
    /// report *and* the identical record sequence, whatever the sink.
    ///
    /// The run executes on the batched event engine ([`crate::batched`]):
    /// under [`SimulationConfig::batch`], or in exact mode (one tuple per
    /// batch) when that is `None`.
    pub fn run_with_sink<S: TraceSink>(&self, sink: &mut S) -> SimReport {
        let exact = BatchConfig {
            max_batch: 1,
            ..BatchConfig::default()
        };
        crate::batched::run(self, self.config.batch.unwrap_or(exact), sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRecord;
    use rod_core::graph::GraphBuilder;
    use rod_core::load_model::LoadModel;
    use rod_core::operator::OperatorKind;
    use rod_core::rod::RodPlanner;

    fn simple_chain() -> QueryGraph {
        let mut b = GraphBuilder::new();
        let i = b.add_input();
        let (_, s) = b
            .add_operator("f", OperatorKind::filter(0.001, 0.5), &[i])
            .unwrap();
        b.add_operator("g", OperatorKind::filter(0.002, 1.0), &[s])
            .unwrap();
        b.build().unwrap()
    }

    fn place(graph: &QueryGraph, cluster: &Cluster) -> Allocation {
        let model = LoadModel::derive(graph).unwrap();
        RodPlanner::new().place(&model, cluster).unwrap().allocation
    }

    #[test]
    fn utilisation_matches_analytic_load() {
        // Rate 100/s through f (cost 1 ms) then 50/s through g (2 ms):
        // total load = 0.1 + 0.1 = 0.2 CPU. On one node: ~20% utilisation.
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(1, 1.0);
        let alloc = place(&graph, &cluster);
        let report = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(100.0)],
            SimulationConfig {
                horizon: 60.0,
                warmup: 10.0,
                seed: 3,
                ..SimulationConfig::default()
            },
        )
        .run();
        assert!(
            (report.utilisations[0] - 0.2).abs() < 0.03,
            "utilisation {}",
            report.utilisations[0]
        );
        assert!(report.is_feasible(0.95));
        assert!(report.tuples_out > 0);
        assert_eq!(report.migrations, 0, "static run must not migrate");
    }

    #[test]
    fn overload_is_detected() {
        // Rate 1500/s × 1 ms + 750/s × 2 ms = 3.0 CPU on one node.
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(1, 1.0);
        let alloc = place(&graph, &cluster);
        let report = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(1500.0)],
            SimulationConfig {
                horizon: 30.0,
                warmup: 5.0,
                seed: 1,
                max_queue: 20_000,
                ..SimulationConfig::default()
            },
        )
        .run();
        assert!(!report.is_feasible(0.95));
    }

    #[test]
    fn latency_grows_near_saturation() {
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(1, 1.0);
        let alloc = place(&graph, &cluster);
        let run = |rate: f64| {
            Simulation::new(
                &graph,
                &alloc,
                &cluster,
                vec![SourceSpec::ConstantRate(rate)],
                SimulationConfig {
                    horizon: 60.0,
                    warmup: 10.0,
                    seed: 5,
                    ..SimulationConfig::default()
                },
            )
            .run()
        };
        let light = run(50.0).mean_latency().unwrap();
        let heavy = run(420.0).mean_latency().unwrap(); // ~84% load
        assert!(
            heavy > 2.0 * light,
            "queueing delay should grow: light {light}, heavy {heavy}"
        );
    }

    #[test]
    fn selectivity_thins_output() {
        let graph = simple_chain(); // f has selectivity 0.5
        let cluster = Cluster::homogeneous(1, 1.0);
        let alloc = place(&graph, &cluster);
        let report = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(200.0)],
            SimulationConfig {
                horizon: 30.0,
                warmup: 0.0,
                seed: 9,
                ..SimulationConfig::default()
            },
        )
        .run();
        let ratio = report.tuples_out as f64 / report.tuples_in as f64;
        assert!((ratio - 0.5).abs() < 0.05, "sink/source ratio {ratio}");
    }

    #[test]
    fn join_load_is_bilinear() {
        // join window 0.1 s, cost 1 ms/pair, rates r1 = r2 = 50:
        // each arrival on either side examines the partner window:
        // r1·(w·r2) + r2·(w·r1) = 2·w·r1·r2 = 500 pairs/s → 0.5 CPU.
        let mut b = GraphBuilder::new();
        let i0 = b.add_input();
        let i1 = b.add_input();
        b.add_operator(
            "j",
            OperatorKind::WindowJoin {
                window: 0.1,
                cost_per_pair: 0.001,
                selectivity_per_pair: 0.01,
            },
            &[i0, i1],
        )
        .unwrap();
        let graph = b.build().unwrap();
        let cluster = Cluster::homogeneous(1, 1.0);
        let alloc = place(&graph, &cluster);
        let report = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![
                SourceSpec::ConstantRate(50.0),
                SourceSpec::ConstantRate(50.0),
            ],
            SimulationConfig {
                horizon: 60.0,
                warmup: 10.0,
                seed: 2,
                ..SimulationConfig::default()
            },
        )
        .run();
        assert!(
            (report.utilisations[0] - 0.5).abs() < 0.08,
            "join utilisation {}",
            report.utilisations[0]
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(1, 1.0);
        let alloc = place(&graph, &cluster);
        let run = |seed: u64| {
            Simulation::new(
                &graph,
                &alloc,
                &cluster,
                vec![SourceSpec::ConstantRate(100.0)],
                SimulationConfig {
                    horizon: 10.0,
                    warmup: 1.0,
                    seed,
                    ..SimulationConfig::default()
                },
            )
            .run()
        };
        let (a, b, c) = (run(7), run(7), run(8));
        assert_eq!(a.tuples_in, b.tuples_in);
        assert_eq!(a.tuples_out, b.tuples_out);
        assert_ne!(a.tuples_in, c.tuples_in);
    }

    #[test]
    fn network_cpu_overhead_raises_utilisation() {
        // Two operators forced onto different nodes; nonzero send/recv
        // CPU must cost more than the free-network run.
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(2, 1.0);
        let mut alloc = Allocation::new(2, 2);
        alloc.assign(OperatorId(0), NodeId(0));
        alloc.assign(OperatorId(1), NodeId(1));
        let run = |net: NetworkConfig| {
            Simulation::new(
                &graph,
                &alloc,
                &cluster,
                vec![SourceSpec::ConstantRate(200.0)],
                SimulationConfig {
                    horizon: 40.0,
                    warmup: 5.0,
                    seed: 4,
                    network: net,
                    ..SimulationConfig::default()
                },
            )
            .run()
        };
        let free = run(NetworkConfig::default());
        let costly = run(NetworkConfig {
            latency: 1e-3,
            send_cpu_cost: 0.002,
            recv_cpu_cost: 0.0,
        });
        assert!(
            costly.utilisations[0] > free.utilisations[0] + 0.1,
            "send overhead invisible: {} vs {}",
            costly.utilisations[0],
            free.utilisations[0]
        );
    }

    #[test]
    fn migration_rebalances_a_skewed_start() {
        // All operators start on node 0 of a two-node cluster at ~90%
        // load; the dynamic manager must move work to node 1 and end up
        // with node 1 doing real work.
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(2, 1.0);
        let mut alloc = Allocation::new(2, 2);
        alloc.assign(OperatorId(0), NodeId(0));
        alloc.assign(OperatorId(1), NodeId(0));
        let run = |migration: Option<MigrationConfig>| {
            Simulation::new(
                &graph,
                &alloc,
                &cluster,
                vec![SourceSpec::ConstantRate(450.0)], // 0.45 + 0.45 CPU
                SimulationConfig {
                    horizon: 40.0,
                    warmup: 5.0,
                    seed: 11,
                    migration,
                    ..SimulationConfig::default()
                },
            )
            .run()
        };
        let static_run = run(None);
        assert!(
            static_run.utilisations[1] < 0.01,
            "node 1 unused statically"
        );
        let dynamic_run = run(Some(MigrationConfig {
            utilisation_trigger: 0.7,
            imbalance_trigger: 0.3,
            ..MigrationConfig::default()
        }));
        assert!(dynamic_run.migrations >= 1, "no migration happened");
        assert!(
            dynamic_run.utilisations[1] > 0.2,
            "node 1 still idle: {:?}",
            dynamic_run.utilisations
        );
        // No tuples lost to the migration machinery.
        assert!(dynamic_run.tuples_out > 0);
    }

    #[test]
    fn migration_downtime_is_accounted() {
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(2, 1.0);
        let mut alloc = Allocation::new(2, 2);
        alloc.assign(OperatorId(0), NodeId(0));
        alloc.assign(OperatorId(1), NodeId(0));
        let report = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(500.0)],
            SimulationConfig {
                horizon: 30.0,
                warmup: 5.0,
                seed: 2,
                migration: Some(MigrationConfig {
                    utilisation_trigger: 0.7,
                    imbalance_trigger: 0.2,
                    base_downtime: 0.3,
                    ..MigrationConfig::default()
                }),
                ..SimulationConfig::default()
            },
        )
        .run();
        if report.migrations > 0 {
            assert!(report.migration_downtime >= 0.3 * report.migrations as f64);
        }
    }

    #[test]
    fn timeline_sampling_records_snapshots() {
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(1, 1.0);
        let alloc = place(&graph, &cluster);
        let report = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(100.0)],
            SimulationConfig {
                horizon: 20.0,
                warmup: 2.0,
                seed: 6,
                sample_interval: Some(2.0),
                ..SimulationConfig::default()
            },
        )
        .run();
        // Samples at 2, 4, ..., 18 → 9 snapshots.
        assert_eq!(report.timeline.len(), 9, "{:?}", report.timeline.len());
        for w in report.timeline.windows(2) {
            assert!(w[1].time > w[0].time);
        }
        // Sampled utilisation tracks the ~20% analytic load.
        let mean_u: f64 = report
            .timeline
            .iter()
            .map(|s| s.utilisations[0])
            .sum::<f64>()
            / report.timeline.len() as f64;
        assert!((mean_u - 0.2).abs() < 0.05, "sampled mean {mean_u}");
    }

    #[test]
    fn pinned_operators_never_move() {
        // Same skewed start as the rebalancing test, but everything is
        // pinned: the manager must do nothing.
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(2, 1.0);
        let mut alloc = Allocation::new(2, 2);
        alloc.assign(OperatorId(0), NodeId(0));
        alloc.assign(OperatorId(1), NodeId(0));
        let report = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(450.0)],
            SimulationConfig {
                horizon: 40.0,
                warmup: 5.0,
                seed: 11,
                migration: Some(MigrationConfig {
                    utilisation_trigger: 0.7,
                    imbalance_trigger: 0.3,
                    pinned: vec![OperatorId(0), OperatorId(1)],
                    ..MigrationConfig::default()
                }),
                ..SimulationConfig::default()
            },
        )
        .run();
        assert_eq!(report.migrations, 0, "pinned operators moved");
    }

    #[test]
    fn scheduling_policies_all_complete_work() {
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(1, 1.0);
        let alloc = place(&graph, &cluster);
        let mut outcomes = Vec::new();
        for policy in [
            SchedulingPolicy::Fifo,
            SchedulingPolicy::RoundRobin,
            SchedulingPolicy::LongestQueueFirst,
        ] {
            let report = Simulation::new(
                &graph,
                &alloc,
                &cluster,
                vec![SourceSpec::ConstantRate(150.0)],
                SimulationConfig {
                    horizon: 20.0,
                    warmup: 2.0,
                    seed: 3,
                    scheduling: policy,
                    ..SimulationConfig::default()
                },
            )
            .run();
            assert!(report.tuples_out > 0, "{policy:?} produced nothing");
            assert!(!report.saturated, "{policy:?} saturated a feasible point");
            outcomes.push(report.tuples_processed);
        }
        // The same arrivals (same seed) must be fully processed under
        // every discipline — scheduling changes order, not totals.
        assert!(
            outcomes
                .iter()
                .all(|&c| (c as i64 - outcomes[0] as i64).abs() < 50),
            "{outcomes:?}"
        );
    }

    #[test]
    fn outage_starves_then_recovers() {
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(1, 1.0);
        let alloc = place(&graph, &cluster);
        let run = |outages: Vec<Outage>| {
            Simulation::new(
                &graph,
                &alloc,
                &cluster,
                vec![SourceSpec::ConstantRate(100.0)],
                SimulationConfig {
                    horizon: 40.0,
                    warmup: 2.0,
                    seed: 8,
                    outages,
                    ..SimulationConfig::default()
                },
            )
            .run()
        };
        let healthy = run(vec![]);
        let failed = run(vec![Outage {
            node: NodeId(0),
            start: 10.0,
            end: 18.0,
        }]);
        // The outage freezes 8 of 38 measured seconds: utilisation may
        // rise afterwards (draining) but latency must suffer and the
        // backlog peak must be much larger.
        assert!(
            failed.peak_queue > 4 * healthy.peak_queue.max(1),
            "peak {} vs healthy {}",
            failed.peak_queue,
            healthy.peak_queue
        );
        assert!(
            failed.latencies.quantile(0.99).unwrap()
                > 4.0 * healthy.latencies.quantile(0.99).unwrap(),
            "outage left no latency mark"
        );
        // Recovery: the queue drains by the end (20% steady load).
        assert!(
            failed.final_queue < 50,
            "queue never drained: {}",
            failed.final_queue
        );
        assert!(!failed.saturated);
    }

    #[test]
    fn per_operator_stats_account_for_all_work() {
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(1, 1.0);
        let alloc = place(&graph, &cluster);
        let report = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(100.0)],
            SimulationConfig {
                horizon: 30.0,
                warmup: 0.0,
                seed: 5,
                ..SimulationConfig::default()
            },
        )
        .run();
        assert_eq!(report.operator_served.len(), 2);
        // Operator f sees every source tuple; g sees ~half (sel 0.5).
        assert_eq!(
            report.operator_served[0] + report.operator_served[1],
            report.tuples_processed
        );
        let ratio = report.operator_served[1] as f64 / report.operator_served[0] as f64;
        assert!((ratio - 0.5).abs() < 0.06, "served ratio {ratio}");
        // Busy time per op: f = n·1ms, g = n/2·2ms → roughly equal.
        let busy_ratio = report.operator_busy[1] / report.operator_busy[0];
        assert!((busy_ratio - 1.0).abs() < 0.15, "busy ratio {busy_ratio}");
    }

    #[test]
    fn mm1_latency_matches_queueing_theory() {
        // Single operator, Poisson arrivals, deterministic service
        // (M/D/1): mean wait Wq = ρ·s / (2(1−ρ)), sojourn = Wq + s.
        let mut b = GraphBuilder::new();
        let i = b.add_input();
        b.add_operator("m", OperatorKind::map(0.002), &[i]).unwrap();
        let graph = b.build().unwrap();
        let cluster = Cluster::homogeneous(1, 1.0);
        let alloc = place(&graph, &cluster);
        for (rate, label) in [(250.0, "rho=0.5"), (400.0, "rho=0.8")] {
            let report = Simulation::new(
                &graph,
                &alloc,
                &cluster,
                vec![SourceSpec::ConstantRate(rate)],
                SimulationConfig {
                    horizon: 400.0,
                    warmup: 50.0,
                    seed: 13,
                    ..SimulationConfig::default()
                },
            )
            .run();
            let s = 0.002;
            let rho = rate * s;
            let predicted = rho * s / (2.0 * (1.0 - rho)) + s;
            let measured = report.mean_latency().unwrap();
            assert!(
                (measured - predicted).abs() < 0.25 * predicted,
                "{label}: measured {measured:.5} vs M/D/1 {predicted:.5}"
            );
        }
    }

    #[test]
    fn load_shedding_bounds_queues_under_overload() {
        // 3x overload on one node: without shedding the run saturates;
        // with shedding the queue stays bounded, throughput tops out at
        // capacity, and drops are counted.
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(1, 1.0);
        let alloc = place(&graph, &cluster);
        let run = |shed: Option<usize>| {
            Simulation::new(
                &graph,
                &alloc,
                &cluster,
                vec![SourceSpec::ConstantRate(1500.0)],
                SimulationConfig {
                    horizon: 30.0,
                    warmup: 5.0,
                    seed: 4,
                    shed_above: shed,
                    max_queue: 20_000,
                    ..SimulationConfig::default()
                },
            )
            .run()
        };
        let unshed = run(None);
        assert!(unshed.saturated);
        let shed = run(Some(500));
        assert!(!shed.saturated, "shedding must prevent saturation");
        assert!(shed.tuples_shed > 1000, "only {} shed", shed.tuples_shed);
        assert!(shed.peak_queue <= 2 * 500 + 10, "peak {}", shed.peak_queue);
        // Latency stays bounded by roughly queue/service-rate.
        assert!(shed.latencies.quantile(0.99).unwrap() < 5.0);
    }

    #[test]
    fn shedding_is_inert_when_not_overloaded() {
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(1, 1.0);
        let alloc = place(&graph, &cluster);
        let report = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(100.0)],
            SimulationConfig {
                horizon: 20.0,
                warmup: 2.0,
                seed: 7,
                shed_above: Some(1000),
                ..SimulationConfig::default()
            },
        )
        .run();
        assert_eq!(report.tuples_shed, 0);
    }

    /// Two operators on two nodes, plus the failover table for the
    /// placement — the standard fixture for recovery tests.
    fn two_node_failover_fixture() -> (QueryGraph, Cluster, Allocation, FailoverTable) {
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(2, 1.0);
        let model = LoadModel::derive(&graph).unwrap();
        let mut alloc = Allocation::new(2, 2);
        alloc.assign(OperatorId(0), NodeId(0));
        alloc.assign(OperatorId(1), NodeId(1));
        let table = FailoverTable::precompute(&model, &cluster, &alloc);
        (graph, cluster, alloc, table)
    }

    #[test]
    fn failover_moves_orphans_to_table_backups() {
        let (graph, cluster, alloc, table) = two_node_failover_fixture();
        let backup = table.backup_of(NodeId(0), OperatorId(0)).unwrap();
        assert_eq!(backup, NodeId(1), "two-node fixture backs up to the peer");
        let report = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(100.0)],
            SimulationConfig {
                horizon: 40.0,
                warmup: 2.0,
                seed: 8,
                outages: vec![Outage {
                    node: NodeId(0),
                    start: 10.0,
                    end: 35.0,
                }],
                failover: Some(FailoverConfig::new(table, 0.5)),
                ..SimulationConfig::default()
            },
        )
        .run();
        assert_eq!(report.failovers, 1, "one operator moves off node 0");
        assert_eq!(report.migrations, 0, "failovers are not migrations");
        assert_eq!(report.final_hosts, vec![1, 1], "orphan lands per table");
        assert_eq!(report.recoveries.len(), 1);
        let rec = &report.recoveries[0];
        assert_eq!(rec.node, 0);
        assert_eq!(rec.operators_moved, 1);
        assert!((rec.detected_at - 10.5).abs() < 1e-9);
        assert!(rec.recovered_at >= rec.detected_at);
        assert!(rec.recovery_latency() >= 0.5);
        // With recovery, the system keeps producing during the outage.
        assert!(report.tuples_out > 0);
        assert!(report.post_failure_max_utilisation.is_some());
    }

    #[test]
    fn failover_recovers_faster_than_waiting_out_the_outage() {
        // A long outage on the node hosting the whole chain: without
        // failover the backlog balloons; with failover it is bounded by
        // the detection + migration window.
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(2, 1.0);
        let model = LoadModel::derive(&graph).unwrap();
        let mut alloc = Allocation::new(2, 2);
        alloc.assign(OperatorId(0), NodeId(0));
        alloc.assign(OperatorId(1), NodeId(0));
        let table = FailoverTable::precompute(&model, &cluster, &alloc);
        let run = |failover: Option<FailoverConfig>| {
            Simulation::new(
                &graph,
                &alloc,
                &cluster,
                vec![SourceSpec::ConstantRate(100.0)],
                SimulationConfig {
                    horizon: 60.0,
                    warmup: 2.0,
                    seed: 8,
                    outages: vec![Outage {
                        node: NodeId(0),
                        start: 10.0,
                        end: 50.0,
                    }],
                    failover,
                    ..SimulationConfig::default()
                },
            )
            .run()
        };
        let unprotected = run(None);
        let protected = run(Some(FailoverConfig::new(table, 0.5)));
        assert!(
            protected.peak_queue * 4 < unprotected.peak_queue,
            "failover peak {} vs unprotected {}",
            protected.peak_queue,
            unprotected.peak_queue
        );
        // The unprotected run eventually drains (the load is light), so
        // totals converge — but its tuples waited out the outage, while
        // failover keeps tail latency within the recovery window.
        let p99 = |r: &SimReport| r.latencies.quantile(0.99).unwrap();
        assert!(
            p99(&protected) * 4.0 < p99(&unprotected),
            "p99 {} vs {}",
            p99(&protected),
            p99(&unprotected)
        );
    }

    #[test]
    fn detection_after_outage_end_is_a_no_op() {
        // Outage shorter than the detection delay: the node is back
        // before the monitor fires, so nothing moves.
        let (graph, cluster, alloc, table) = two_node_failover_fixture();
        let report = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(100.0)],
            SimulationConfig {
                horizon: 30.0,
                warmup: 2.0,
                seed: 3,
                outages: vec![Outage {
                    node: NodeId(0),
                    start: 10.0,
                    end: 11.0,
                }],
                failover: Some(FailoverConfig::new(table, 5.0)),
                ..SimulationConfig::default()
            },
        )
        .run();
        assert_eq!(report.failovers, 0);
        assert!(report.recoveries.is_empty());
        assert_eq!(report.final_hosts, vec![0, 1]);
    }

    #[test]
    fn op_queue_bound_sheds_and_counts_recovery_drops() {
        // Outage with no failover and a tight per-operator bound: the
        // backlog is capped and the drops are attributed to recovery.
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(1, 1.0);
        let alloc = place(&graph, &cluster);
        let report = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(100.0)],
            SimulationConfig {
                horizon: 40.0,
                warmup: 2.0,
                seed: 8,
                outages: vec![Outage {
                    node: NodeId(0),
                    start: 10.0,
                    end: 30.0,
                }],
                op_queue_bound: Some(50),
                ..SimulationConfig::default()
            },
        )
        .run();
        assert!(report.tuples_shed > 0);
        assert!(report.tuples_shed_in_recovery > 0);
        assert!(report.tuples_shed_in_recovery <= report.tuples_shed);
        // Two operators, bound 50 each: the backlog can never exceed 100
        // (plus in-flight slack).
        assert!(report.peak_queue <= 110, "peak {}", report.peak_queue);
        assert!(!report.saturated);
    }

    #[test]
    fn invalid_outages_are_rejected() {
        let cluster_n = 2;
        let ok = Outage {
            node: NodeId(1),
            start: 1.0,
            end: 2.0,
        };
        assert!(ok.validate(cluster_n).is_ok());
        let bad_node = Outage {
            node: NodeId(5),
            ..ok
        };
        assert!(bad_node.validate(cluster_n).unwrap_err().contains("range"));
        let bad_span = Outage {
            start: 2.0,
            end: 2.0,
            ..ok
        };
        assert!(bad_span.validate(cluster_n).unwrap_err().contains("length"));
        let config = SimulationConfig {
            outages: vec![bad_span],
            ..SimulationConfig::default()
        };
        assert!(config.validate(cluster_n).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid simulation config")]
    fn simulation_new_panics_on_bad_outage() {
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(1, 1.0);
        let alloc = place(&graph, &cluster);
        let _ = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(10.0)],
            SimulationConfig {
                outages: vec![Outage {
                    node: NodeId(3),
                    start: 1.0,
                    end: 2.0,
                }],
                ..SimulationConfig::default()
            },
        );
    }

    #[test]
    fn config_validation_rejects_degenerate_horizons() {
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let config = SimulationConfig {
                horizon: bad,
                warmup: 0.0,
                ..SimulationConfig::default()
            };
            let err = config.validate(1).unwrap_err();
            assert!(err.contains("horizon"), "horizon {bad}: {err}");
        }
    }

    #[test]
    fn config_validation_rejects_warmup_outside_the_horizon() {
        for bad in [-1.0, 30.0, 45.0, f64::NAN] {
            let config = SimulationConfig {
                horizon: 30.0,
                warmup: bad,
                ..SimulationConfig::default()
            };
            let err = config.validate(1).unwrap_err();
            assert!(err.contains("warm-up"), "warm-up {bad}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "constant rate must be finite")]
    fn simulation_new_refuses_a_nan_rate() {
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(1, 1.0);
        let alloc = place(&graph, &cluster);
        let _ = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(f64::NAN)],
            SimulationConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "constant rate must be finite")]
    fn simulation_new_refuses_an_infinite_rate() {
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(1, 1.0);
        let alloc = place(&graph, &cluster);
        let _ = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(f64::INFINITY)],
            SimulationConfig::default(),
        );
    }

    #[test]
    fn static_runs_report_zero_migrations() {
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(1, 1.0);
        let alloc = place(&graph, &cluster);
        let report = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(50.0)],
            SimulationConfig::default(),
        )
        .run();
        assert_eq!(report.migrations, 0);
        assert_eq!(report.migration_downtime, 0.0);
    }

    /// Skewed-start scenario that forces dynamic migrations, with chaos
    /// injection layered on.
    fn chaos_run(chaos: Option<MigrationChaos>) -> SimReport {
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(2, 1.0);
        let mut alloc = Allocation::new(2, 2);
        alloc.assign(OperatorId(0), NodeId(0));
        alloc.assign(OperatorId(1), NodeId(0));
        Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(450.0)],
            SimulationConfig {
                horizon: 40.0,
                warmup: 5.0,
                seed: 11,
                migration: Some(MigrationConfig {
                    utilisation_trigger: 0.7,
                    imbalance_trigger: 0.3,
                    ..MigrationConfig::default()
                }),
                migration_chaos: chaos,
                ..SimulationConfig::default()
            },
        )
        .run()
    }

    #[test]
    fn migration_chaos_retries_are_counted_and_tuples_conserved() {
        let report = chaos_run(Some(MigrationChaos {
            failure_prob: 0.6,
            max_retries: 2,
            base_backoff: 0.2,
            seed: 5,
        }));
        assert!(
            report.migration_retries > 0 || report.migrations_aborted > 0,
            "p=0.6 chaos over {} migrations injected nothing",
            report.migrations
        );
        // The run still makes progress and loses nothing to the chaos
        // machinery itself.
        assert!(report.tuples_out > 0);
        assert!(
            report.tuples_out + report.final_queue as u64 <= report.tuples_in,
            "chaos broke tuple conservation"
        );
    }

    #[test]
    fn migration_chaos_abort_rolls_back_to_origin() {
        // Certain-failure-adjacent chaos with a zero retry budget: every
        // chaos-hit migration aborts and the operator must stay put.
        let report = chaos_run(Some(MigrationChaos {
            failure_prob: 0.95,
            max_retries: 0,
            base_backoff: 0.2,
            seed: 9,
        }));
        assert!(report.migrations_aborted > 0, "nothing aborted at p=0.95");
        assert_eq!(report.migration_retries, 0, "zero retry budget");
        // Aborted moves leave hosts valid and the run alive.
        for &host in &report.final_hosts {
            assert!(host < 2);
        }
        assert!(!report.saturated);
    }

    #[test]
    fn migration_chaos_is_deterministic_per_seed() {
        let chaos = MigrationChaos {
            failure_prob: 0.5,
            max_retries: 2,
            base_backoff: 0.3,
            seed: 21,
        };
        let a = serde_json::to_string(&chaos_run(Some(chaos.clone()))).unwrap();
        let b = serde_json::to_string(&chaos_run(Some(chaos))).unwrap();
        assert_eq!(a, b, "fixed-seed chaos reruns diverged");
    }

    #[test]
    fn chaos_config_validation_rejects_degenerate_values() {
        let bad_prob = MigrationChaos {
            failure_prob: 1.0,
            ..MigrationChaos::default()
        };
        assert!(bad_prob.validate().is_err());
        let bad_backoff = MigrationChaos {
            base_backoff: 0.0,
            ..MigrationChaos::default()
        };
        assert!(bad_backoff.validate().is_err());
        assert!(MigrationChaos::default().validate().is_ok());
    }

    #[test]
    fn config_validation_rejects_zero_latency_sample_cap() {
        let config = SimulationConfig {
            max_latency_samples: 0,
            ..SimulationConfig::default()
        };
        let err = config.validate(1).unwrap_err();
        assert!(
            err.contains("max_latency_samples"),
            "error must name the field: {err}"
        );
    }

    #[test]
    fn config_validation_rejects_degenerate_sample_intervals() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let config = SimulationConfig {
                sample_interval: Some(bad),
                ..SimulationConfig::default()
            };
            let err = config.validate(1).unwrap_err();
            assert!(
                err.contains("sample interval"),
                "interval {bad}: error must name the field: {err}"
            );
        }
    }

    #[test]
    fn batch_config_validation_rejects_zero_batch_size() {
        let err = BatchConfig {
            max_batch: 0,
            ..BatchConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("batch size"), "{err}");
        // ... and the simulation config surfaces it.
        let config = SimulationConfig {
            batch: Some(BatchConfig {
                max_batch: 0,
                ..BatchConfig::default()
            }),
            ..SimulationConfig::default()
        };
        assert!(config.validate(1).is_err());
    }

    #[test]
    fn batch_config_validation_rejects_degenerate_buckets() {
        for bad in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let err = BatchConfig {
                bucket: bad,
                ..BatchConfig::default()
            }
            .validate()
            .unwrap_err();
            assert!(err.contains("bucket"), "bucket {bad}: {err}");
        }
        assert!(BatchConfig::default().validate().is_ok());
    }

    #[test]
    fn config_validation_rejects_batch_bucket_wider_than_sample_interval() {
        // A batch spanning more than a sample interval would smear its
        // arrivals across timeline samples.
        let config = SimulationConfig {
            sample_interval: Some(0.01),
            batch: Some(BatchConfig {
                max_batch: 256,
                bucket: 0.5,
            }),
            ..SimulationConfig::default()
        };
        let err = config.validate(1).unwrap_err();
        assert!(
            err.contains("bucket") && err.contains("sample interval"),
            "{err}"
        );
        // The same bucket is fine without sampling, or with a wider one.
        let ok = SimulationConfig {
            sample_interval: Some(1.0),
            batch: Some(BatchConfig {
                max_batch: 256,
                bucket: 0.5,
            }),
            ..SimulationConfig::default()
        };
        assert!(ok.validate(1).is_ok());
    }

    #[test]
    fn util_samples_carry_observed_stream_rates() {
        let graph = simple_chain();
        let cluster = Cluster::homogeneous(1, 1.0);
        let alloc = place(&graph, &cluster);
        let mut sink = crate::trace::VecSink::new();
        Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(100.0)],
            SimulationConfig {
                horizon: 30.0,
                warmup: 2.0,
                seed: 4,
                sample_interval: Some(2.0),
                ..SimulationConfig::default()
            },
        )
        .run_with_sink(&mut sink);
        let samples: Vec<&TraceRecord> = sink
            .records
            .iter()
            .filter(|r| matches!(r, TraceRecord::UtilSample { .. }))
            .collect();
        assert!(samples.len() >= 10);
        let mean_rate: f64 = samples
            .iter()
            .map(|r| match r {
                TraceRecord::UtilSample { rates, .. } => {
                    assert_eq!(rates.len(), 1, "one input stream, one rate");
                    rates[0]
                }
                _ => unreachable!(),
            })
            .sum::<f64>()
            / samples.len() as f64;
        assert!(
            (mean_rate - 100.0).abs() < 10.0,
            "sampled mean rate {mean_rate} should track the 100/s source"
        );
    }
}
