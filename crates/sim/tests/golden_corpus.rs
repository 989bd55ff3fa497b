//! Golden corpus for the simulator: the FNV-1a digest and byte length of
//! the `SimReport` JSON and of the JSONL trace, plus the headline tuple
//! counts, for a fixed set of scenarios that together touch every engine
//! feature.
//!
//! * **Exact-mode cases** (`batch: None`) cover joins, multi-consumer
//!   fan-out with selectivity above 1, `VariableSelectivity`, every
//!   `SchedulingPolicy`, network latency and CPU overhead, `shed_above`,
//!   `op_queue_bound` (including 0), an outage with failover (and
//!   shedding while a failover outlives its outage), dynamic
//!   migration with `MigrationChaos` retries and aborts, the sampling
//!   timeline, a `TraceDriven` source, a system input nothing consumes,
//!   a saturated (`max_queue`) run, and one run with network costs,
//!   sampling, shedding, bounds, failover and migration chaos all on. Each one also runs with `Some(BatchConfig { max_batch: 1, .. })`
//!   and must produce the same digests: exact mode *is* batch size 1.
//! * **Batched cases** (`max_batch` 7, 64 and 4096, at rates where the
//!   size cap binds) pin the batched output.
//!
//! Every case also checks that it exercises the feature it is named for,
//! so a drifting scenario cannot silently stop covering it.
//!
//! On a mismatch the test prints the whole computed table in the syntax
//! of [`PINS`]. A deliberate behaviour change re-pins by pasting it over
//! the table and naming the change in the commit message. The digests
//! depend on the platform libm (`ln`, `pow`, `cos` feed arrival and
//! trace generation), so a digest that differs on another platform is a
//! finding to report, not a pin to loosen.

use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::graph::{GraphBuilder, QueryGraph};
use rod_core::ids::{NodeId, OperatorId};
use rod_core::load_model::LoadModel;
use rod_core::operator::OperatorKind;
use rod_core::resilience::FailoverTable;
use rod_sim::{
    BatchConfig, FailoverConfig, JsonlSink, MigrationChaos, MigrationConfig, NetworkConfig, Outage,
    SchedulingPolicy, SimReport, Simulation, SimulationConfig, SourceSpec,
};
use rod_traces::Trace;

/// The pinned outcome of one case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pin {
    name: &'static str,
    report_fnv: u64,
    report_len: usize,
    trace_fnv: u64,
    trace_len: usize,
    tuples_in: u64,
    tuples_out: u64,
    tuples_shed: u64,
}

const PINS: &[Pin] = &[
    Pin {
        name: "exact_join_fanout",
        report_fnv: 0x149740b71e52eb2e,
        report_len: 73170,
        trace_fnv: 0xf4fbd414e62dbb6c,
        trace_len: 476692,
        tuples_in: 2185,
        tuples_out: 4012,
        tuples_shed: 0,
    },
    Pin {
        name: "exact_variable_selectivity",
        report_fnv: 0x51c98bfacceff2b4,
        report_len: 43127,
        trace_fnv: 0x9bffaa27f2922832,
        trace_len: 309432,
        tuples_in: 1784,
        tuples_out: 2365,
        tuples_shed: 0,
    },
    Pin {
        name: "exact_sched_fifo",
        report_fnv: 0xdf4a46352a04f0ef,
        report_len: 95799,
        trace_fnv: 0x539c5352f1b44159,
        trace_len: 642622,
        tuples_in: 2806,
        tuples_out: 5552,
        tuples_shed: 0,
    },
    Pin {
        name: "exact_sched_round_robin",
        report_fnv: 0x86585caff214c88b,
        report_len: 96046,
        trace_fnv: 0xd174777fc38c57a4,
        trace_len: 641379,
        tuples_in: 2806,
        tuples_out: 5532,
        tuples_shed: 0,
    },
    Pin {
        name: "exact_sched_longest_queue_first",
        report_fnv: 0xb5133bf28f358078,
        report_len: 97474,
        trace_fnv: 0x27894f01236c4454,
        trace_len: 650832,
        tuples_in: 2806,
        tuples_out: 5655,
        tuples_shed: 0,
    },
    Pin {
        name: "exact_network_overhead",
        report_fnv: 0x688a8e4ab96c797f,
        report_len: 73644,
        trace_fnv: 0xd36ee3192ffc9f9e,
        trace_len: 477118,
        tuples_in: 2185,
        tuples_out: 4018,
        tuples_shed: 0,
    },
    Pin {
        name: "exact_shed_above",
        report_fnv: 0xeaddaeb7d9dfbf29,
        report_len: 67841,
        trace_fnv: 0x2f08d03df8754777,
        trace_len: 1535425,
        tuples_in: 12042,
        tuples_out: 3985,
        tuples_shed: 8017,
    },
    Pin {
        name: "exact_op_queue_bound",
        report_fnv: 0x0c5fe9684a10eb2e,
        report_len: 66698,
        trace_fnv: 0xd9d4e3d52566046b,
        trace_len: 1533212,
        tuples_in: 12042,
        tuples_out: 3983,
        tuples_shed: 8009,
    },
    Pin {
        name: "exact_op_queue_bound_zero",
        report_fnv: 0x1105027d17a595dd,
        report_len: 458,
        trace_fnv: 0xcd7a16e6362db3de,
        trace_len: 1445532,
        tuples_in: 12042,
        tuples_out: 0,
        tuples_shed: 12042,
    },
    Pin {
        name: "exact_outage_failover",
        report_fnv: 0x0d987d452568dd82,
        report_len: 43639,
        trace_fnv: 0xa722af233160b6dd,
        trace_len: 348721,
        tuples_in: 2414,
        tuples_out: 2414,
        tuples_shed: 0,
    },
    Pin {
        name: "exact_shed_during_failover",
        report_fnv: 0xbe88fa1db1bbea03,
        report_len: 40004,
        trace_fnv: 0x77176df74def464f,
        trace_len: 344310,
        tuples_in: 2414,
        tuples_out: 2218,
        tuples_shed: 196,
    },
    Pin {
        name: "exact_migration_chaos",
        report_fnv: 0x181add0b842839d2,
        report_len: 92567,
        trace_fnv: 0x65b5f665b6f6eee5,
        trace_len: 706284,
        tuples_in: 4906,
        tuples_out: 4904,
        tuples_shed: 0,
    },
    Pin {
        name: "exact_sampling_timeline",
        report_fnv: 0x6e191ab2cfb78edf,
        report_len: 74414,
        trace_fnv: 0x779ce630ad7e8224,
        trace_len: 478432,
        tuples_in: 2185,
        tuples_out: 4012,
        tuples_shed: 0,
    },
    Pin {
        name: "exact_trace_driven",
        report_fnv: 0xa56f8fdfb56bf53a,
        report_len: 82967,
        trace_fnv: 0x88f7dbd85646a9b8,
        trace_len: 478701,
        tuples_in: 1977,
        tuples_out: 4163,
        tuples_shed: 0,
    },
    Pin {
        name: "exact_unconsumed_input",
        report_fnv: 0x5e4d2f5f3efcc0bb,
        report_len: 35923,
        trace_fnv: 0xf3c8ad655dd7c315,
        trace_len: 322548,
        tuples_in: 2701,
        tuples_out: 2700,
        tuples_shed: 0,
    },
    Pin {
        name: "exact_saturated",
        report_fnv: 0xdcf772d4da427f7a,
        report_len: 496,
        trace_fnv: 0xff2aeceb476bc386,
        trace_len: 45653,
        tuples_in: 12042,
        tuples_out: 113,
        tuples_shed: 0,
    },
    Pin {
        name: "exact_full_feature",
        report_fnv: 0x4a8e941dcfa5437a,
        report_len: 321953,
        trace_fnv: 0xfda68e13de672b9d,
        trace_len: 2414885,
        tuples_in: 10059,
        tuples_out: 18039,
        tuples_shed: 4504,
    },
    Pin {
        name: "batch7_full_feature",
        report_fnv: 0x7352b1e0e76db60d,
        report_len: 310132,
        trace_fnv: 0x2a138c06ee517a4c,
        trace_len: 2379319,
        tuples_in: 10059,
        tuples_out: 17615,
        tuples_shed: 4592,
    },
    Pin {
        name: "batch64_outage_failover",
        report_fnv: 0xdf4a4d73deb87384,
        report_len: 206404,
        trace_fnv: 0x5335eba3667cec51,
        trace_len: 1722173,
        tuples_in: 12009,
        tuples_out: 11971,
        tuples_shed: 0,
    },
    Pin {
        name: "batch4096_chain",
        report_fnv: 0xd30330b00d3a29a8,
        report_len: 487381,
        trace_fnv: 0x8c7c067e55c0a1b9,
        trace_len: 3893858,
        tuples_in: 30307,
        tuples_out: 25238,
        tuples_shed: 0,
    },
];

/// Everything one simulation run needs.
struct Scenario {
    graph: QueryGraph,
    cluster: Cluster,
    alloc: Allocation,
    sources: Vec<SourceSpec>,
    config: SimulationConfig,
}

/// One corpus entry: a scenario, the batch configuration it runs under
/// (`None` = exact mode), and the feature it must be seen to exercise.
struct Case {
    name: &'static str,
    build: fn() -> Scenario,
    batch: Option<BatchConfig>,
    covers: fn(&SimReport) -> bool,
}

fn batched(max_batch: usize, bucket: f64) -> Option<BatchConfig> {
    Some(BatchConfig { max_batch, bucket })
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "exact_join_fanout",
            build: || fanout_join(3, SimulationConfig::default()),
            batch: None,
            // The join served tuples, and the selectivity-1.4 stream with
            // two consumers delivered to both.
            covers: |r| r.operator_served[2] > 0 && r.operator_served[4] > r.operator_served[1],
        },
        Case {
            name: "exact_variable_selectivity",
            build: variable_selectivity,
            batch: None,
            covers: |r| r.operator_served[1] > r.operator_served[0],
        },
        Case {
            name: "exact_sched_fifo",
            build: || scheduled(SchedulingPolicy::Fifo),
            batch: None,
            covers: |r| r.peak_queue > 5,
        },
        Case {
            name: "exact_sched_round_robin",
            build: || scheduled(SchedulingPolicy::RoundRobin),
            batch: None,
            covers: |r| r.peak_queue > 5,
        },
        Case {
            name: "exact_sched_longest_queue_first",
            build: || scheduled(SchedulingPolicy::LongestQueueFirst),
            batch: None,
            covers: |r| r.peak_queue > 5,
        },
        Case {
            name: "exact_network_overhead",
            build: || {
                fanout_join(
                    3,
                    SimulationConfig {
                        network: NetworkConfig {
                            latency: 2e-3,
                            send_cpu_cost: 2e-5,
                            recv_cpu_cost: 3e-5,
                        },
                        ..SimulationConfig::default()
                    },
                )
            },
            batch: None,
            covers: |r| r.tuples_out > 0,
        },
        Case {
            name: "exact_shed_above",
            build: || {
                overloaded(SimulationConfig {
                    shed_above: Some(40),
                    ..SimulationConfig::default()
                })
            },
            batch: None,
            covers: |r| r.tuples_shed > 0 && !r.saturated,
        },
        Case {
            name: "exact_op_queue_bound",
            build: || {
                overloaded(SimulationConfig {
                    op_queue_bound: Some(25),
                    ..SimulationConfig::default()
                })
            },
            batch: None,
            covers: |r| r.tuples_shed > 0 && !r.saturated,
        },
        Case {
            name: "exact_op_queue_bound_zero",
            build: || {
                overloaded(SimulationConfig {
                    op_queue_bound: Some(0),
                    ..SimulationConfig::default()
                })
            },
            batch: None,
            covers: |r| r.tuples_in > 0 && r.tuples_shed == r.tuples_in && r.tuples_out == 0,
        },
        Case {
            name: "exact_outage_failover",
            build: || outage_failover(400.0, 1e-4, SimulationConfig::default()),
            batch: None,
            covers: |r| r.failovers > 0 && r.recoveries.len() == 1,
        },
        Case {
            name: "exact_shed_during_failover",
            build: shed_during_failover,
            batch: None,
            covers: |r| r.failovers > 0 && r.tuples_shed_in_recovery > 0,
        },
        Case {
            name: "exact_migration_chaos",
            build: migration_chaos,
            batch: None,
            covers: |r| r.migrations > 0 && r.migration_retries > 0 && r.migrations_aborted > 0,
        },
        Case {
            name: "exact_sampling_timeline",
            build: || {
                fanout_join(
                    3,
                    SimulationConfig {
                        sample_interval: Some(0.5),
                        ..SimulationConfig::default()
                    },
                )
            },
            batch: None,
            covers: |r| r.timeline.len() >= 10,
        },
        Case {
            name: "exact_trace_driven",
            build: trace_driven,
            batch: None,
            covers: |r| r.tuples_out > 0,
        },
        Case {
            name: "exact_unconsumed_input",
            build: unconsumed_input,
            batch: None,
            // Tuples on the input nothing consumes leave as sink tuples.
            covers: |r| r.tuples_out > r.operator_served[0],
        },
        Case {
            name: "exact_saturated",
            build: || {
                overloaded(SimulationConfig {
                    max_queue: 500,
                    ..SimulationConfig::default()
                })
            },
            batch: None,
            covers: |r| r.saturated,
        },
        Case {
            name: "exact_full_feature",
            build: full_feature,
            batch: None,
            covers: |r| r.tuples_shed > 0 && r.failovers > 0 && r.migrations > 0,
        },
        Case {
            name: "batch7_full_feature",
            build: full_feature,
            batch: batched(7, 0.1),
            covers: |r| r.tuples_shed > 0 && r.failovers > 0 && r.migrations > 0,
        },
        Case {
            name: "batch64_outage_failover",
            build: || {
                outage_failover(
                    2000.0,
                    1e-5,
                    SimulationConfig {
                        sample_interval: Some(1.0),
                        ..SimulationConfig::default()
                    },
                )
            },
            batch: batched(64, 0.05),
            covers: |r| r.failovers > 0 && !r.timeline.is_empty(),
        },
        Case {
            name: "batch4096_chain",
            build: fast_chain,
            batch: batched(4096, 0.5),
            covers: |r| r.tuples_out > 0 && !r.saturated,
        },
    ]
}

/// Two inputs, a windowed join, and a selectivity-1.4 stream with two
/// consumers (operators 0..6 in builder order: f0, f1, j, g, g2, g3):
///
/// ```text
/// i0 ─┬→ f0 (sel 0.8) ──→ j (window join) ──→ g  → sink
/// i1 ─┼──────────────────→ j (port 1)
///     └→ f1 (sel 1.4) ─┬→ g2 → sink
///                      └→ g3 → sink
/// ```
fn fanout_join_graph() -> QueryGraph {
    let mut b = GraphBuilder::new();
    let i0 = b.add_input();
    let i1 = b.add_input();
    let (_, f0) = b
        .add_operator("f0", OperatorKind::filter(8e-4, 0.8), &[i0])
        .unwrap();
    let (_, f1) = b
        .add_operator("f1", OperatorKind::filter(6e-4, 1.4), &[i0])
        .unwrap();
    let (_, j) = b
        .add_operator(
            "j",
            OperatorKind::WindowJoin {
                window: 0.05,
                cost_per_pair: 5e-5,
                selectivity_per_pair: 0.05,
            },
            &[f0, i1],
        )
        .unwrap();
    b.add_operator("g", OperatorKind::map(5e-4), &[j]).unwrap();
    b.add_operator("g2", OperatorKind::map(4e-4), &[f1])
        .unwrap();
    b.add_operator("g3", OperatorKind::map(3e-4), &[f1])
        .unwrap();
    b.build().unwrap()
}

/// Round-robin placement of every operator over `n` nodes.
fn spread(graph: &QueryGraph, n: usize) -> (Cluster, Allocation) {
    let mut alloc = Allocation::new(graph.num_operators(), n);
    for j in 0..graph.num_operators() {
        alloc.assign(OperatorId(j), NodeId(j % n));
    }
    (Cluster::homogeneous(n, 1.0), alloc)
}

/// A chain of `costs.len()` unit-selectivity maps.
fn map_chain(costs: &[f64]) -> QueryGraph {
    let mut b = GraphBuilder::new();
    let mut up = b.add_input();
    for (j, &cost) in costs.iter().enumerate() {
        let (_, s) = b
            .add_operator(format!("m{j}"), OperatorKind::map(cost), &[up])
            .unwrap();
        up = s;
    }
    b.build().unwrap()
}

/// Horizon, warm-up and seed shared by the small scenarios.
fn short_run(seed: u64, config: SimulationConfig) -> SimulationConfig {
    SimulationConfig {
        horizon: 6.0,
        warmup: 1.0,
        seed,
        ..config
    }
}

fn fanout_join(nodes: usize, config: SimulationConfig) -> Scenario {
    let graph = fanout_join_graph();
    let (cluster, alloc) = spread(&graph, nodes);
    Scenario {
        graph,
        cluster,
        alloc,
        sources: vec![
            SourceSpec::ConstantRate(200.0),
            SourceSpec::ConstantRate(160.0),
        ],
        config: short_run(3, config),
    }
}

/// The join/fan-out graph on one node at ~93% load, so queues form and
/// the scheduling discipline decides the service order.
fn scheduled(scheduling: SchedulingPolicy) -> Scenario {
    let graph = fanout_join_graph();
    let (cluster, alloc) = spread(&graph, 1);
    Scenario {
        graph,
        cluster,
        alloc,
        sources: vec![
            SourceSpec::ConstantRate(260.0),
            SourceSpec::ConstantRate(200.0),
        ],
        config: short_run(
            5,
            SimulationConfig {
                scheduling,
                ..SimulationConfig::default()
            },
        ),
    }
}

fn variable_selectivity() -> Scenario {
    let mut b = GraphBuilder::new();
    let i = b.add_input();
    let (_, v) = b
        .add_operator(
            "v",
            OperatorKind::VariableSelectivity {
                costs: vec![5e-4],
                nominal_selectivities: vec![1.3],
            },
            &[i],
        )
        .unwrap();
    b.add_operator("m", OperatorKind::map(6e-4), &[v]).unwrap();
    let graph = b.build().unwrap();
    let (cluster, alloc) = spread(&graph, 2);
    Scenario {
        graph,
        cluster,
        alloc,
        sources: vec![SourceSpec::ConstantRate(300.0)],
        config: short_run(7, SimulationConfig::default()),
    }
}

/// A two-map chain on one node at 3× its capacity.
fn overloaded(config: SimulationConfig) -> Scenario {
    let graph = map_chain(&[1e-3, 5e-4]);
    let (cluster, alloc) = spread(&graph, 1);
    Scenario {
        graph,
        cluster,
        alloc,
        sources: vec![SourceSpec::ConstantRate(2000.0)],
        config: short_run(11, config),
    }
}

/// A three-map chain (costs 4, 3 and 2 × `cost`) over two nodes; node 1
/// fails at 2 s and the table moves its operator to node 0.
fn outage_failover(rate: f64, cost: f64, config: SimulationConfig) -> Scenario {
    let graph = map_chain(&[4.0 * cost, 3.0 * cost, 2.0 * cost]);
    let (cluster, alloc) = spread(&graph, 2);
    let model = LoadModel::derive(&graph).unwrap();
    let table = FailoverTable::precompute(&model, &cluster, &alloc);
    Scenario {
        graph,
        cluster,
        alloc,
        sources: vec![SourceSpec::ConstantRate(rate)],
        config: short_run(
            13,
            SimulationConfig {
                outages: vec![Outage {
                    node: NodeId(1),
                    start: 2.0,
                    end: 5.0,
                }],
                failover: Some(FailoverConfig::new(table, 0.3)),
                ..config
            },
        ),
    }
}

/// The outage-failover chain with tight per-operator bounds and an
/// outage that ends while its failover migration is still in flight:
/// sheds in that window still count as recovery sheds.
fn shed_during_failover() -> Scenario {
    let mut scenario = outage_failover(400.0, 1e-4, SimulationConfig::default());
    scenario.config.outages[0].end = 2.5;
    scenario.config.op_queue_bound = Some(10);
    scenario
}

/// A four-map chain starts entirely on node 0 of three at ~90% load; the
/// dynamic manager keeps migrating, and chaos fails some transfers
/// (retry) and exhausts the budget on others (abort).
fn migration_chaos() -> Scenario {
    let graph = map_chain(&[1e-3, 6e-4, 4e-4, 2e-4]);
    let cluster = Cluster::homogeneous(3, 1.0);
    let mut alloc = Allocation::new(4, 3);
    for j in 0..4 {
        alloc.assign(OperatorId(j), NodeId(0));
    }
    Scenario {
        graph,
        cluster,
        alloc,
        sources: vec![SourceSpec::ConstantRate(400.0)],
        config: SimulationConfig {
            horizon: 12.0,
            warmup: 1.0,
            seed: 17,
            migration: Some(MigrationConfig {
                check_interval: 0.5,
                utilisation_trigger: 0.4,
                imbalance_trigger: 0.1,
                base_downtime: 0.1,
                ..MigrationConfig::default()
            }),
            migration_chaos: Some(MigrationChaos {
                failure_prob: 0.6,
                max_retries: 1,
                base_backoff: 0.1,
                seed: 23,
            }),
            ..SimulationConfig::default()
        },
    }
}

/// A bursty hand-written rate trace on one input of the join graph.
fn trace_driven() -> Scenario {
    let graph = fanout_join_graph();
    let (cluster, alloc) = spread(&graph, 3);
    let burst = Trace::new(
        vec![
            50.0, 120.0, 400.0, 650.0, 90.0, 30.0, 500.0, 200.0, 60.0, 150.0, 80.0, 40.0,
        ],
        0.5,
    );
    Scenario {
        graph,
        cluster,
        alloc,
        sources: vec![
            SourceSpec::TraceDriven(burst),
            SourceSpec::ConstantRate(120.0),
        ],
        config: short_run(19, SimulationConfig::default()),
    }
}

/// Two inputs, only the first of which feeds an operator: the second
/// input is itself a sink stream.
fn unconsumed_input() -> Scenario {
    let mut b = GraphBuilder::new();
    let i0 = b.add_input();
    let _unconsumed = b.add_input();
    b.add_operator("m", OperatorKind::map(1e-3), &[i0]).unwrap();
    let graph = b.build().unwrap();
    let (cluster, alloc) = spread(&graph, 1);
    Scenario {
        graph,
        cluster,
        alloc,
        sources: vec![
            SourceSpec::ConstantRate(300.0),
            SourceSpec::ConstantRate(150.0),
        ],
        config: short_run(41, SimulationConfig::default()),
    }
}

/// Every feature at once on the join graph: network overheads, sampling,
/// shedding, per-operator bounds, an outage with failover, a dynamic
/// load manager and migration chaos.
fn full_feature() -> Scenario {
    let graph = fanout_join_graph();
    let (cluster, alloc) = spread(&graph, 3);
    let model = LoadModel::derive(&graph).unwrap();
    let table = FailoverTable::precompute(&model, &cluster, &alloc);
    Scenario {
        graph,
        cluster,
        alloc,
        sources: vec![
            SourceSpec::ConstantRate(600.0),
            SourceSpec::ConstantRate(400.0),
        ],
        config: SimulationConfig {
            horizon: 10.0,
            warmup: 1.0,
            seed: 29,
            network: NetworkConfig {
                latency: 1e-3,
                send_cpu_cost: 2e-5,
                recv_cpu_cost: 3e-5,
            },
            sample_interval: Some(1.0),
            shed_above: Some(60),
            op_queue_bound: Some(200),
            outages: vec![Outage {
                node: NodeId(1),
                start: 3.0,
                end: 8.0,
            }],
            failover: Some(FailoverConfig::new(table, 0.4)),
            migration: Some(MigrationConfig {
                utilisation_trigger: 0.6,
                imbalance_trigger: 0.2,
                ..MigrationConfig::default()
            }),
            migration_chaos: Some(MigrationChaos {
                failure_prob: 0.4,
                max_retries: 2,
                base_backoff: 0.2,
                seed: 31,
            }),
            ..SimulationConfig::default()
        },
    }
}

/// A cheap three-map chain at 10k tuples/s, so a 0.5 s bucket holds more
/// tuples than the 4096 cap.
fn fast_chain() -> Scenario {
    let graph = map_chain(&[2e-5, 2e-5, 2e-5]);
    let (cluster, alloc) = spread(&graph, 2);
    Scenario {
        graph,
        cluster,
        alloc,
        sources: vec![SourceSpec::ConstantRate(10_000.0)],
        config: SimulationConfig {
            horizon: 3.0,
            warmup: 0.5,
            seed: 37,
            sample_interval: Some(0.5),
            ..SimulationConfig::default()
        },
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs `case` under `batch` with a JSONL trace and digests the result.
fn digest(case: &Case, batch: Option<BatchConfig>) -> (Pin, SimReport) {
    let scenario = (case.build)();
    let config = SimulationConfig {
        batch,
        ..scenario.config
    };
    let sim = Simulation::new(
        &scenario.graph,
        &scenario.alloc,
        &scenario.cluster,
        scenario.sources,
        config,
    );
    let mut sink = JsonlSink::new(Vec::new());
    let report = sim.run_with_sink(&mut sink);
    let trace = sink.into_inner();
    let json = serde_json::to_string(&report).unwrap();
    let pin = Pin {
        name: case.name,
        report_fnv: fnv1a(json.as_bytes()),
        report_len: json.len(),
        trace_fnv: fnv1a(&trace),
        trace_len: trace.len(),
        tuples_in: report.tuples_in,
        tuples_out: report.tuples_out,
        tuples_shed: report.tuples_shed,
    };
    (pin, report)
}

fn render(pins: &[Pin]) -> String {
    let mut out = String::from("const PINS: &[Pin] = &[\n");
    for p in pins {
        out.push_str(&format!(
            "    Pin {{\n        name: {:?},\n        report_fnv: {:#018x},\n        \
             report_len: {},\n        trace_fnv: {:#018x},\n        trace_len: {},\n        \
             tuples_in: {},\n        tuples_out: {},\n        tuples_shed: {},\n    }},\n",
            p.name,
            p.report_fnv,
            p.report_len,
            p.trace_fnv,
            p.trace_len,
            p.tuples_in,
            p.tuples_out,
            p.tuples_shed
        ));
    }
    out.push_str("];");
    out
}

#[test]
fn corpus_digests_match_the_pins() {
    let mut computed = Vec::new();
    let mut failures = Vec::new();
    for case in cases() {
        let (pin, report) = digest(&case, case.batch);
        if !(case.covers)(&report) {
            failures.push(format!("{}: no longer exercises its feature", case.name));
        }
        if case.batch.is_none() {
            // Exact mode is batch size 1; the bucket cannot matter when
            // every batch holds one tuple.
            let (one, _) = digest(&case, batched(1, 0.25));
            if one != pin {
                failures.push(format!(
                    "{}: batch size 1 diverges from exact mode\n  exact   {pin:?}\n  batch 1 {one:?}",
                    case.name
                ));
            }
        }
        match PINS.iter().find(|p| p.name == case.name) {
            Some(pinned) if *pinned == pin => {}
            Some(pinned) => failures.push(format!(
                "{}: drifted\n  pinned   {pinned:?}\n  computed {pin:?}",
                case.name
            )),
            None => failures.push(format!("{}: no pin", case.name)),
        }
        computed.push(pin);
    }
    if PINS.len() != computed.len() {
        failures.push(format!("{} pins for {} cases", PINS.len(), computed.len()));
    }
    assert!(
        failures.is_empty(),
        "{}\n\ncomputed table:\n{}",
        failures.join("\n"),
        render(&computed)
    );
}
