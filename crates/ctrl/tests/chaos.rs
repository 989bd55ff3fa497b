//! Chaos harness for the control loop: randomized telemetry streams and
//! injected faults against the invariants the daemon must never break —
//!
//! 1. **never crashes, never commits infeasible**: arbitrary interleaved
//!    hostile and clean telemetry drives the loop to completion, every
//!    committed plan was feasible at its estimate (`headroom_after >= 1`)
//!    and the running/last-good allocations stay complete;
//! 2. **last-good retained across every fault class**: panicking
//!    planners, failing planners, infeasible-candidate planners, and
//!    always-failing migration executors each leave `last_good` exactly
//!    where it started;
//! 3. **fixed-seed replay is bit-identical**: the same input stream
//!    produces byte-equal JSONL decision logs (the same bytes the daemon
//!    writes with `--log-out`).
//!
//! Every decision log these tests produce also passes the check derived
//! from the `Decision` type (`decision_log/mod.rs`).

mod decision_log;

use std::collections::BTreeSet;

use proptest::prelude::*;

use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::examples_paper::figure4_graph;
use rod_core::load_model::LoadModel;
use rod_ctrl::{
    ChaosExecutor, ControlConfig, ControlLoop, Decision, PlanFault, PlanRequest, PlanStrategy,
};
use rod_sim::TraceRecord;

fn make_loop() -> ControlLoop {
    rod_ctrl::bootstrap(
        &figure4_graph(),
        Cluster::homogeneous(2, 1.0),
        ControlConfig::default(),
    )
    .unwrap()
}

/// One telemetry line from raw proptest draws: mostly clean samples,
/// with hostile classes mixed in per the `kind` draw.
fn line(index: usize, kind: u8, rate: f64) -> String {
    let time = index as f64 + 1.0;
    match kind % 8 {
        // Clean sample (five in eight lines).
        0..=4 => sample_line(time, &[0.4, 0.5], &[rate, rate]),
        // Malformed JSON.
        5 => format!("{{corrupt line {index}"),
        // Hostile values: the validated constructor refuses to build
        // these, so they are crafted at the JSON layer like a buggy
        // reporter would.
        6 => format!(
            "{{\"UtilSample\":{{\"time\":{time},\"utilisations\":[0.4,0.5],\
             \"queue_depths\":[0,0],\"queued\":0,\"rates\":[-5.0,{rate}]}}}}"
        ),
        // Stale timestamp (time zero is never newer than line 1's).
        _ => sample_line(0.0, &[0.4, 0.5], &[rate, rate]),
    }
}

fn sample_line(time: f64, utilisations: &[f64], rates: &[f64]) -> String {
    let record = TraceRecord::util_sample(
        time,
        utilisations.to_vec(),
        vec![0; utilisations.len()],
        0,
        rates.to_vec(),
    )
    .expect("clean fixture values");
    serde_json::to_string(&record).unwrap()
}

fn drive(loop_: &mut ControlLoop, draws: &[(u8, u8)]) {
    for (i, &(kind, rate_draw)) in draws.iter().enumerate() {
        // Rates sweep from calm (~0.01) to beyond the boundary (~0.12).
        let rate = 0.01 + (rate_draw as f64 / 255.0) * 0.11;
        loop_.observe_line(&line(i, kind, rate));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Invariant 1: completion, completeness, and no infeasible commits.
    #[test]
    fn hostile_streams_never_crash_or_commit_infeasible(
        draws in prop::collection::vec((0u8..8, 0u8..=255), 1..120),
    ) {
        let mut l = make_loop();
        drive(&mut l, &draws);
        prop_assert!(l.current().is_complete());
        prop_assert!(l.last_good().is_complete());
        for d in l.decisions() {
            if let Decision::PlanCommitted { headroom_after, .. } = d {
                prop_assert!(
                    *headroom_after >= 1.0,
                    "committed a plan with headroom {headroom_after}"
                );
            }
        }
        // Every hostile line is accounted for: lines = accepted + rejected
        // (no record kinds other than UtilSample appear in these streams).
        let s = l.summary();
        prop_assert_eq!(s.lines, s.samples_accepted + s.samples_rejected);
        decision_log::check(&l.decision_log_jsonl());
    }

    /// Invariant 3: byte-identical decision logs on identical input.
    #[test]
    fn fixed_stream_replays_bit_identically(
        draws in prop::collection::vec((0u8..8, 0u8..=255), 1..80),
    ) {
        let run = || {
            let mut l = make_loop();
            drive(&mut l, &draws);
            l.decision_log_jsonl()
        };
        let log = run();
        decision_log::check(&log);
        prop_assert_eq!(log, run());
    }
}

struct Panicking;
impl PlanStrategy for Panicking {
    fn plan(&mut self, _req: &PlanRequest) -> Result<Allocation, PlanFault> {
        panic!("injected planner panic");
    }
}

struct Failing;
impl PlanStrategy for Failing {
    fn plan(&mut self, _req: &PlanRequest) -> Result<Allocation, PlanFault> {
        Err(PlanFault::Failed {
            message: "injected planner error".into(),
        })
    }
}

struct Infeasible;
impl PlanStrategy for Infeasible {
    fn plan(&mut self, req: &PlanRequest) -> Result<Allocation, PlanFault> {
        // Concentrate everything on node 0 — infeasible at surge rates.
        let mut a = req.current.clone();
        for op in 0..a.num_operators() {
            a.assign(rod_core::ids::OperatorId(op), rod_core::ids::NodeId(0));
        }
        Ok(a)
    }
}

/// Feeds a calm-then-surge stream guaranteed to trigger replans.
fn surge(loop_: &mut ControlLoop) {
    for i in 0..6 {
        loop_.observe_line(&sample_line(1.0 + i as f64, &[0.1, 0.1], &[0.01, 0.01]));
    }
    for i in 0..20 {
        loop_.observe_line(&sample_line(100.0 + i as f64, &[1.0, 1.0], &[0.11, 0.11]));
    }
}

/// Invariant 2: every fault class leaves last-good untouched.
#[test]
fn last_good_survives_every_fault_class() {
    // Planner faults: panic, error, infeasible candidate.
    let strategies: Vec<Box<dyn PlanStrategy>> =
        vec![Box::new(Panicking), Box::new(Failing), Box::new(Infeasible)];
    for strategy in strategies {
        let mut l = make_loop().with_strategy(strategy);
        let before = l.last_good().clone();
        surge(&mut l);
        decision_log::check(&l.decision_log_jsonl());
        assert_eq!(l.last_good(), &before);
        assert!(l.summary().replans_aborted > 0);
        // No plan was committed, so the running plan never moved either.
        assert_eq!(l.current(), &before);
    }

    // Executor faults: every migration attempt fails, so commits exist
    // but nothing applies and last-good stays put.
    let mut l = make_loop().with_executor(Box::new(ChaosExecutor::new(0.999_999, 42)));
    let before = l.last_good().clone();
    surge(&mut l);
    decision_log::check(&l.decision_log_jsonl());
    assert_eq!(l.last_good(), &before);
    let s = l.summary();
    if s.plans_committed > 0 {
        assert!(s.migrations_retried > 0, "{s:?}");
        assert!(l
            .decisions()
            .iter()
            .any(|d| matches!(d, Decision::MigrationAborted { .. })));
    }
    assert!(l.current().is_complete());
}

/// The surge stream against the healthy loop: replans trigger, a plan
/// commits or is (benignly) rejected, and the loop ends no worse than it
/// started.
#[test]
fn healthy_loop_handles_the_surge() {
    let mut l = make_loop();
    surge(&mut l);
    decision_log::check(&l.decision_log_jsonl());
    let s = l.summary();
    assert!(s.replans_triggered >= 1, "{s:?}");
    assert_eq!(s.samples_rejected, 0);
    // The current plan is complete and identical to last-good (either
    // the surge committed a full migration or nothing moved).
    assert!(l.current().is_complete());
    assert_eq!(l.current(), l.last_good());
}

/// Decision logs round-trip through serde and meet their bounds.
#[test]
fn decision_log_round_trips() {
    let mut l = make_loop().with_strategy(Box::new(Failing));
    l.observe_line("corrupt {{{");
    surge(&mut l);
    let log = l.decision_log_jsonl();
    assert!(!log.is_empty());
    decision_log::check(&log);
}

/// Between them, two fault scenarios emit all nine decision kinds, so
/// the type-derived log check covers every one.
#[test]
fn fault_scenarios_emit_every_decision_kind() {
    let mut kinds = BTreeSet::new();

    // Hostile telemetry and a panicking planner under sustained overload:
    // rejections, aborted and suppressed replans, and the ladder's way
    // down to advising shedding.
    let mut l = make_loop().with_strategy(Box::new(Panicking));
    l.observe_line("corrupt {{{");
    for burst in 0..6 {
        let t0 = 1000.0 * burst as f64;
        for i in 0..8 {
            l.observe_line(&sample_line(t0 + i as f64, &[1.0, 1.0], &[0.11, 0.11]));
        }
    }
    kinds.extend(decision_log::check(&l.decision_log_jsonl()));

    // Every operator stacked on node 0, then a surge only a spread plan
    // survives: the rescue plan commits, and an executor that fails every
    // attempt retries each step, then aborts it.
    let model = LoadModel::derive(&figure4_graph()).unwrap();
    let mut stacked = Allocation::new(model.num_operators(), 2);
    for op in 0..model.num_operators() {
        stacked.assign(rod_core::ids::OperatorId(op), rod_core::ids::NodeId(0));
    }
    let mut l = ControlLoop::new(
        model,
        Cluster::homogeneous(2, 1.0),
        stacked,
        ControlConfig::default(),
    )
    .unwrap()
    .with_executor(Box::new(ChaosExecutor::new(0.999_999, 42)));
    for i in 0..6 {
        l.observe_line(&sample_line(1.0 + i as f64, &[0.2, 0.0], &[0.01, 0.01]));
    }
    for i in 0..20 {
        l.observe_line(&sample_line(100.0 + i as f64, &[1.0, 0.0], &[0.07, 0.07]));
    }
    kinds.extend(decision_log::check(&l.decision_log_jsonl()));

    assert_eq!(kinds.len(), 9, "{kinds:?}");
}

/// The loop distrusts its estimator warm-up: no replan fires before the
/// estimate exists, even if the first sample is already hot.
#[test]
fn first_hot_sample_still_replans_only_with_an_estimate() {
    let mut l = make_loop();
    l.observe_line(&sample_line(1.0, &[1.0, 1.0], &[0.11, 0.11]));
    // One sample is an estimate; the loop may replan, but must not panic
    // and must keep complete plans.
    decision_log::check(&l.decision_log_jsonl());
    assert!(l.current().is_complete());
    let model = LoadModel::derive(&figure4_graph()).unwrap();
    assert_eq!(l.current().num_operators(), model.num_operators());
}
