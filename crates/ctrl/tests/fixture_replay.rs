//! Replays the committed CI fixture — a calm-then-surge telemetry trace
//! with one corrupted line — through a control loop seeded with the
//! committed (deliberately sub-optimal, connected-algorithm) plan, and
//! pins the behaviour CI asserts on `rodctl daemon`:
//!
//! * the corrupted line is counted and classified, not fatal;
//! * the mid-run surge triggers at least one replan;
//! * a rescue plan commits with feasible headroom at the estimate;
//! * the fast path decodes every clean sample, and only the corrupted
//!   line falls back to the full parser;
//! * every decision-log line passes the check derived from the
//!   `Decision` type (`decision_log/mod.rs`).

mod decision_log;

use std::fs;
use std::path::PathBuf;

use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::load_model::LoadModel;
use rod_core::QueryGraph;
use rod_ctrl::{ControlConfig, ControlLoop, Decision, INGEST_BATCH};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// A loop on the fixture graph and plan, before any telemetry.
fn fixture_loop() -> ControlLoop {
    let graph: QueryGraph =
        serde_json::from_str(&fs::read_to_string(fixture("graph.json")).unwrap()).unwrap();
    graph.validate().unwrap();
    let initial: Allocation =
        serde_json::from_str(&fs::read_to_string(fixture("plan.json")).unwrap()).unwrap();
    let model = LoadModel::derive(&graph).unwrap();
    ControlLoop::new(
        model,
        Cluster::homogeneous(3, 1.0),
        initial,
        ControlConfig::default(),
    )
    .unwrap()
}

fn replay_fixture() -> ControlLoop {
    let mut loop_ = fixture_loop();
    let file = fs::File::open(fixture("surge.jsonl")).unwrap();
    loop_.replay_batched(file, INGEST_BATCH).unwrap();
    loop_
}

#[test]
fn corrupt_line_is_counted_not_fatal() {
    let loop_ = replay_fixture();
    let s = loop_.summary();
    assert_eq!(s.lines, 36);
    assert_eq!(s.samples_rejected, 1, "{s:?}");
    assert_eq!(s.samples_accepted, 35, "{s:?}");
    assert!(
        loop_.decisions().iter().any(|d| matches!(
            d,
            Decision::SampleRejected {
                line: 11,
                reason: rod_ctrl::RejectReason::MalformedLine,
            }
        )),
        "expected line 11 rejected as malformed"
    );
}

#[test]
fn surge_triggers_replan_and_rescue_commit() {
    let loop_ = replay_fixture();
    let s = loop_.summary();
    assert!(s.replans_triggered >= 1, "{s:?}");
    assert!(s.plans_committed >= 1, "{s:?}");
    let committed: Vec<_> = loop_
        .decisions()
        .iter()
        .filter_map(|d| match d {
            Decision::PlanCommitted {
                moves,
                headroom_before,
                headroom_after,
                ..
            } => Some((*moves, *headroom_before, *headroom_after)),
            _ => None,
        })
        .collect();
    assert!(!committed.is_empty());
    for (moves, before, after) in committed {
        assert!(moves >= 1);
        assert!(
            after >= 1.0,
            "committed plan infeasible at estimate: {after}"
        );
        assert!(after > before, "commit did not improve headroom");
    }
    // The rescue moved the loop off the seeded connected plan.
    let seeded: Allocation =
        serde_json::from_str(&fs::read_to_string(fixture("plan.json")).unwrap()).unwrap();
    assert_ne!(loop_.current(), &seeded);
}

#[test]
fn fast_path_decodes_every_clean_sample() {
    let loop_ = replay_fixture();
    let m = loop_.metrics();
    assert_eq!(m.counter("ctrl.ingest_fast_path_lines"), 35);
    assert_eq!(m.counter("ctrl.ingest_fallback_lines"), 1);
    assert!(m.counter("ctrl.ingest_batches") >= 1);
}

#[test]
fn decision_log_passes_the_type_derived_check() {
    let log = replay_fixture().decision_log_jsonl();
    let kinds = decision_log::check(&log);
    assert!(kinds.contains("SampleRejected"), "{kinds:?}");
    assert!(kinds.contains("PlanCommitted"), "{kinds:?}");
}

/// One extra line that is not valid UTF-8 is the fixture's second
/// rejection, not the end of the run: every decision before it is the
/// plain fixture's.
#[test]
fn invalid_utf8_line_is_counted_not_fatal() {
    let plain = replay_fixture();
    let mut stream = fs::read(fixture("surge.jsonl")).unwrap();
    stream.extend_from_slice(b"\xff\n");
    let mut loop_ = fixture_loop();
    let s = loop_.replay_batched(&stream[..], INGEST_BATCH).unwrap();
    assert_eq!((s.lines, s.samples_rejected), (37, 2), "{s:?}");
    let (last, before) = loop_.decisions().split_last().unwrap();
    assert_eq!(
        last,
        &Decision::SampleRejected {
            line: 37,
            reason: rod_ctrl::RejectReason::InvalidUtf8,
        }
    );
    assert_eq!(before, plain.decisions());
    decision_log::check(&loop_.decision_log_jsonl());
}
