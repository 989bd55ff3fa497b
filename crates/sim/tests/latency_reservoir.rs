//! Regression tests for latency-sample thinning (the `max_latency_samples`
//! reservoir): quantiles of the bounded sample must track full-sample
//! quantiles on a production-volume run, and the thinning draws must be
//! invisible to the simulation itself (dedicated RNG stream).
//!
//! The historical bug: thinning shared the simulation's RNG, so changing
//! the sample cap changed selectivity draws — and deterministic
//! index-stride thinning aliases with periodic source schedules, biasing
//! quantiles at high volume. Reservoir sampling off a dedicated stream
//! fixes both; these tests pin the fix.

use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::graph::GraphBuilder;
use rod_core::ids::{NodeId, OperatorId};
use rod_core::operator::OperatorKind;
use rod_sim::{BatchConfig, Simulation, SimulationConfig, SourceSpec};

/// A ~10⁶-tuple single-operator run at 50k tuples/s (batched engine, so
/// the test stays fast in debug builds), with the latency cap as given.
fn million_tuple_run(max_latency_samples: usize) -> rod_sim::SimReport {
    let mut b = GraphBuilder::new();
    let i = b.add_input();
    // Utilisation ≈ 0.5 at 50k tuples/s: a tame M/M/1-like latency
    // distribution whose quantiles a 20k reservoir estimates tightly.
    b.add_operator("m", OperatorKind::map(1e-5), &[i]).unwrap();
    let graph = b.build().unwrap();
    let cluster = Cluster::homogeneous(1, 1.0);
    let mut alloc = Allocation::new(1, 1);
    alloc.assign(OperatorId(0), NodeId(0));
    Simulation::new(
        &graph,
        &alloc,
        &cluster,
        vec![SourceSpec::ConstantRate(5e4)],
        SimulationConfig {
            horizon: 21.0,
            warmup: 1.0,
            seed: 42,
            max_queue: 10_000_000,
            max_latency_samples,
            batch: Some(BatchConfig::default()),
            ..SimulationConfig::default()
        },
    )
    .run()
}

#[test]
fn reservoir_quantiles_track_full_sample_quantiles_on_a_million_tuples() {
    let full = million_tuple_run(2_000_000); // cap above the tuple count
    let thinned = million_tuple_run(20_000);
    assert!(
        full.tuples_out > 900_000,
        "fixture must push ~10⁶ tuples (got {})",
        full.tuples_out
    );

    // The fix's core property: the sample cap changes ONLY the latency
    // sample. Identical seed ⇒ identical trajectory, byte for byte.
    assert_eq!(full.tuples_in, thinned.tuples_in);
    assert_eq!(full.tuples_out, thinned.tuples_out);
    assert_eq!(full.tuples_processed, thinned.tuples_processed);
    assert_eq!(
        serde_json::to_string(&full.utilisations).unwrap(),
        serde_json::to_string(&thinned.utilisations).unwrap(),
        "thinning draws leaked into the simulation RNG stream"
    );

    // Reservoir quantiles are unbiased estimates of the full-sample
    // quantiles; with 20k samples the mid quantiles are within a few
    // percent and the p99 tail within ten.
    for (q, tol) in [(0.5, 0.05), (0.9, 0.05), (0.99, 0.10)] {
        let exact = full.latency_quantile(q).expect("full sample present");
        let est = thinned.latency_quantile(q).expect("reservoir present");
        assert!(exact > 0.0);
        let rel = (est - exact).abs() / exact;
        assert!(
            rel < tol,
            "p{} reservoir {est} vs full {exact} (rel err {rel:.4} > {tol})",
            (q * 100.0) as u32
        );
    }
}

#[test]
fn changing_the_cap_does_not_change_the_trajectory_on_the_reference_engine() {
    // Same invariant in exact mode (batch: None) at a small scale: two
    // caps, one trajectory.
    let run = |cap: usize| {
        let mut b = GraphBuilder::new();
        let i = b.add_input();
        b.add_operator("f", OperatorKind::filter(5e-4, 0.7), &[i])
            .unwrap();
        let graph = b.build().unwrap();
        let cluster = Cluster::homogeneous(1, 1.0);
        let mut alloc = Allocation::new(1, 1);
        alloc.assign(OperatorId(0), NodeId(0));
        Simulation::new(
            &graph,
            &alloc,
            &cluster,
            vec![SourceSpec::ConstantRate(400.0)],
            SimulationConfig {
                horizon: 15.0,
                warmup: 1.0,
                seed: 5,
                max_latency_samples: cap,
                ..SimulationConfig::default()
            },
        )
        .run()
    };
    let tight = run(50); // far below the sink tuple count
    let loose = run(1_000_000);
    assert_eq!(tight.tuples_in, loose.tuples_in);
    assert_eq!(tight.tuples_out, loose.tuples_out);
    assert_eq!(tight.tuples_processed, loose.tuples_processed);
    assert_eq!(
        serde_json::to_string(&tight.utilisations).unwrap(),
        serde_json::to_string(&loose.utilisations).unwrap()
    );
}
