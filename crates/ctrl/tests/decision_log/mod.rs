//! The decision-log check, derived from the `Decision` type itself.
//!
//! Each line of a log (`ControlLoop::decision_log_jsonl`, the bytes
//! `rodctl daemon --log-out` writes) must
//!
//! * deserialise into a `Decision` — a missing field, an unknown decision
//!   kind or an unknown enum string (reject reason, plan mode, ladder
//!   rung) fails here, as does a value of the wrong JSON type;
//! * re-serialise to the same bytes — an unknown field fails here;
//! * meet the bounds its fields state. A float field must also hold a
//!   number: non-finite floats are written as `null`, which decodes as
//!   NaN and fails every bound.

use std::collections::BTreeSet;

use rod_ctrl::Decision;

/// Checks every line of `log`, panicking on the first that fails, and
/// returns the decision kinds it saw.
pub fn check(log: &str) -> BTreeSet<&'static str> {
    let mut kinds = BTreeSet::new();
    for (i, line) in log.lines().enumerate() {
        let decision: Decision = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("decision {}: {e}: {line}", i + 1));
        assert_eq!(
            serde_json::to_string(&decision).unwrap(),
            line,
            "decision {} does not re-serialise to its own bytes",
            i + 1
        );
        let (kind, bounds) = bounds(&decision);
        for (holds, bound) in bounds {
            assert!(holds, "decision {}: {kind} breaks `{bound}`: {line}", i + 1);
        }
        kinds.insert(kind);
    }
    kinds
}

/// A decision's kind and the bounds its fields must meet.
fn bounds(decision: &Decision) -> (&'static str, Vec<(bool, &'static str)>) {
    match decision {
        Decision::SampleRejected { line, .. } => {
            ("SampleRejected", vec![(*line >= 1, "line >= 1")])
        }
        Decision::ReplanTriggered {
            time,
            headroom,
            estimate,
            ..
        } => (
            "ReplanTriggered",
            vec![
                (*time >= 0.0, "time >= 0"),
                (!headroom.is_nan(), "headroom is a number"),
                (estimate.iter().all(|&r| r >= 0.0), "every estimate >= 0"),
            ],
        ),
        Decision::ReplanAborted { time, .. } => {
            ("ReplanAborted", vec![(*time >= 0.0, "time >= 0")])
        }
        Decision::ReplanSuppressed { time, .. } => {
            ("ReplanSuppressed", vec![(*time >= 0.0, "time >= 0")])
        }
        Decision::PlanCommitted {
            time,
            moves,
            predicted_downtime,
            headroom_before,
            headroom_after,
        } => (
            "PlanCommitted",
            vec![
                (*time >= 0.0, "time >= 0"),
                (*moves >= 1, "moves >= 1"),
                (*predicted_downtime >= 0.0, "predicted_downtime >= 0"),
                (!headroom_before.is_nan(), "headroom_before is a number"),
                (*headroom_after >= 1.0, "headroom_after >= 1"),
            ],
        ),
        Decision::MigrationRetry {
            time,
            attempt,
            backoff,
            ..
        } => (
            "MigrationRetry",
            vec![
                (*time >= 0.0, "time >= 0"),
                (*attempt >= 1, "attempt >= 1"),
                (*backoff >= 0.0, "backoff >= 0"),
            ],
        ),
        Decision::MigrationAborted { time, attempts, .. } => (
            "MigrationAborted",
            vec![
                (*time >= 0.0, "time >= 0"),
                (*attempts >= 1, "attempts >= 1"),
            ],
        ),
        Decision::DegradationChanged { time, .. } => {
            ("DegradationChanged", vec![(*time >= 0.0, "time >= 0")])
        }
        Decision::ShedAdvised {
            time,
            keep_fraction,
        } => (
            "ShedAdvised",
            vec![
                (*time >= 0.0, "time >= 0"),
                (
                    (0.0..=1.0).contains(keep_fraction),
                    "0 <= keep_fraction <= 1",
                ),
            ],
        ),
    }
}
