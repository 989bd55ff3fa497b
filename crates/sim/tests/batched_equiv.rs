//! Batching contract of the simulator (DESIGN.md §12), measured against
//! exact mode (`batch: None`, one tuple per batch) as the reference:
//!
//! * **batch size 1** — the same run as exact mode, byte for byte (the
//!   golden corpus in `golden_corpus.rs` pins this on every feature);
//! * **batch size > 1** — arrival-driven counts stay exact (tuples_in,
//!   failovers, recovery records and detection times), conservation
//!   holds, and timing-derived quantities (utilisation, latency
//!   quantiles) agree within the batching tolerance.

use proptest::prelude::*;

use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::graph::{GraphBuilder, QueryGraph};
use rod_core::ids::{NodeId, OperatorId};
use rod_core::load_model::LoadModel;
use rod_core::operator::OperatorKind;
use rod_core::resilience::FailoverTable;
use rod_sim::{
    BatchConfig, FailoverConfig, JsonlSink, MigrationChaos, MigrationConfig, NetworkConfig, Outage,
    Simulation, SimulationConfig, SourceSpec,
};

/// A graph exercising every delivery shape batching must handle:
/// fan-out of one input to two operators, a windowed join, selectivity
/// above one (multi-tuple emissions), and a stream with two consumers.
///
/// ```text
/// i0 ─┬→ f0 (sel 0.8) ──→ j (window join) ──→ g  → sink
/// i1 ─┼──────────────────→ j (port 1)
///     └→ f1 (sel 1.4) ─┬→ g2 → sink
///                      └→ g3 → sink
/// ```
fn full_feature_graph() -> QueryGraph {
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
                window: 0.5,
                cost_per_pair: 2e-4,
                selectivity_per_pair: 0.9,
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

/// Spreads the full-feature graph over three nodes so every arc crosses
/// the network (operators 0..6 in builder order: f0, f1, j, g, g2, g3).
fn full_feature_alloc() -> (Cluster, Allocation) {
    let cluster = Cluster::homogeneous(3, 1.0);
    let mut alloc = Allocation::new(6, 3);
    alloc.assign(OperatorId(0), NodeId(0));
    alloc.assign(OperatorId(1), NodeId(1));
    alloc.assign(OperatorId(2), NodeId(2));
    alloc.assign(OperatorId(3), NodeId(0));
    alloc.assign(OperatorId(4), NodeId(1));
    alloc.assign(OperatorId(5), NodeId(2));
    (cluster, alloc)
}

/// Everything on at once: network CPU overheads, sampling, shedding,
/// per-operator bounds, an outage with table-driven failover, a dynamic
/// load manager, and migration chaos.
fn full_feature_config(
    graph: &QueryGraph,
    cluster: &Cluster,
    alloc: &Allocation,
    seed: u64,
) -> SimulationConfig {
    let model = LoadModel::derive(graph).unwrap();
    let table = FailoverTable::precompute(&model, cluster, alloc);
    SimulationConfig {
        horizon: 25.0,
        warmup: 2.0,
        seed,
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
            start: 8.0,
            end: 20.0,
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
            seed: seed ^ 0xc4a0,
        }),
        ..SimulationConfig::default()
    }
}

#[test]
fn batched_jsonl_trace_is_deterministic_across_reruns() {
    // Golden determinism for the batched path itself (batch size > 1):
    // a fixed-seed run emits a byte-identical trace every time.
    let graph = full_feature_graph();
    let (cluster, alloc) = full_feature_alloc();
    let run = || {
        let mut config = full_feature_config(&graph, &cluster, &alloc, 29);
        config.batch = Some(BatchConfig {
            max_batch: 64,
            bucket: 0.02,
        });
        let sim = Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![
                SourceSpec::ConstantRate(150.0),
                SourceSpec::ConstantRate(120.0),
            ],
            config,
        );
        let mut sink = JsonlSink::new(Vec::new());
        sim.run_with_sink(&mut sink);
        sink.into_inner()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "batched trace must be a pure function of the seed");
    let text = String::from_utf8(a).unwrap();
    for kind in [
        "RunStart",
        "SourceArrival",
        "SinkDeparture",
        "UtilSample",
        "RunEnd",
    ] {
        assert!(text.contains(kind), "missing {kind} record");
    }
}

/// A unit-selectivity two-node chain with an outage + failover: counts
/// are deterministic up to horizon-edge in-flight tuples, so large-batch
/// runs can be compared field-by-field against exact mode.
fn counting_fixture(rate: f64, seed: u64, batch: Option<BatchConfig>) -> rod_sim::SimReport {
    let mut b = GraphBuilder::new();
    let mut up = b.add_input();
    for j in 0..3 {
        let (_, s) = b
            .add_operator(format!("m{j}"), OperatorKind::map(4e-4), &[up])
            .unwrap();
        up = s;
    }
    let graph = b.build().unwrap();
    let cluster = Cluster::homogeneous(2, 1.0);
    let mut alloc = Allocation::new(3, 2);
    for j in 0..3 {
        alloc.assign(OperatorId(j), NodeId(j % 2));
    }
    let model = LoadModel::derive(&graph).unwrap();
    let table = FailoverTable::precompute(&model, &cluster, &alloc);
    Simulation::new(
        &graph,
        &alloc,
        &cluster,
        vec![SourceSpec::ConstantRate(rate)],
        SimulationConfig {
            horizon: 20.0,
            warmup: 2.0,
            seed,
            sample_interval: Some(1.0),
            outages: vec![Outage {
                node: NodeId(1),
                start: 8.0,
                end: 18.0,
            }],
            failover: Some(FailoverConfig::new(table, 0.4)),
            batch,
            ..SimulationConfig::default()
        },
    )
    .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The reference is exact mode (`batch: None`).
    #[test]
    fn batched_equals_reference_field_by_field(
        batch_exp in 0usize..4,  // {1, 7, 64, 4096}
        rate in 100.0..350.0f64,
        seed in 0u64..40,
    ) {
        let max_batch = [1usize, 7, 64, 4096][batch_exp];
        let bucket = 0.02;
        let exact = counting_fixture(rate, seed, None);
        let batched = counting_fixture(
            rate,
            seed,
            Some(BatchConfig { max_batch, bucket }),
        );

        // Arrival-driven counts are exact at every batch size.
        prop_assert_eq!(exact.tuples_in, batched.tuples_in);
        prop_assert_eq!(exact.failovers, batched.failovers);
        prop_assert_eq!(exact.recoveries.len(), batched.recoveries.len());
        for (r, b) in exact.recoveries.iter().zip(&batched.recoveries) {
            prop_assert_eq!(r.node, b.node);
            prop_assert_eq!(r.operators_moved, b.operators_moved);
            prop_assert!((r.outage_start - b.outage_start).abs() < 1e-12);
            prop_assert!((r.detected_at - b.detected_at).abs() < 1e-12);
            // Recovery downtime has a per-buffered-tuple term; batching
            // shifts what is buffered at detection by at most a bucket's
            // worth of arrivals per operator.
            prop_assert!((r.recovered_at - b.recovered_at).abs() < 0.25,
                "recovered_at {} vs {}", r.recovered_at, b.recovered_at);
        }
        prop_assert_eq!(exact.saturated, batched.saturated);
        prop_assert_eq!(exact.tuples_shed, 0);
        prop_assert_eq!(batched.tuples_shed, 0);

        // Unit selectivity conserves tuples; only horizon-edge in-flight
        // work differs (a batch defers processing by ≤ bucket plus its
        // own service time).
        prop_assert!(batched.tuples_out <= batched.tuples_in);
        let slack = 3 * (max_batch as u64 + (rate * bucket).ceil() as u64) + 8;
        let diff = exact.tuples_out.abs_diff(batched.tuples_out);
        prop_assert!(diff <= slack, "tuples_out {} vs {} (slack {slack})",
            exact.tuples_out, batched.tuples_out);

        // Timing-derived quantities agree within tolerance.
        for (u_exact, u_bat) in exact.utilisations.iter().zip(&batched.utilisations) {
            prop_assert!((u_exact - u_bat).abs() < 0.05,
                "utilisation {u_exact} vs {u_bat}");
        }
        if let (Some(p50_exact), Some(p50_bat)) =
            (exact.latency_quantile(0.5), batched.latency_quantile(0.5))
        {
            prop_assert!((p50_exact - p50_bat).abs() < bucket + 0.1,
                "p50 {p50_exact} vs {p50_bat}");
        }
        // Batch size 1 is exact mode: the whole report is byte-identical.
        if max_batch == 1 {
            prop_assert_eq!(
                serde_json::to_string(&exact).unwrap(),
                serde_json::to_string(&batched).unwrap()
            );
        }
    }
}
