//! Control-plane legs shared by `pipeline_1m` and `rodd_firehose`.

use std::time::Instant;

use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::load_model::LoadModel;
use rod_core::PlanEvaluator;
use rod_ctrl::{
    ControlConfig, ControlLoop, Decision, SampleBatch, TelemetryConfig, TelemetryIngest,
};
use rod_sim::replay::scan::{probe_util_sample, LineScanner, UtilScratch};

use crate::span::Tracer;
use crate::Report;

/// `rodd`'s default `--ingest-batch`.
pub const MAX_BATCH: usize = 256;

/// The telemetry configuration `ControlLoop::new` derives for this
/// model and cluster.
pub fn telemetry_config(model: &LoadModel, cluster: &Cluster) -> TelemetryConfig {
    let cfg = ControlConfig::default();
    TelemetryConfig {
        num_inputs: model.num_inputs(),
        num_nodes: cluster.num_nodes(),
        window: cfg.telemetry_window,
        ewma_alpha: cfg.ewma_alpha,
    }
}

/// The telemetry layer alone: the same bytes through `LineScanner`,
/// `probe_util_sample` and `ingest_batch`, with every other line through
/// `ingest_line` — the split `replay_batched` makes, minus the control
/// logic that runs per accepted sample.
pub fn ingest_only(bytes: &[u8], cfg: TelemetryConfig) -> TelemetryIngest {
    let mut ingest = TelemetryIngest::new(cfg);
    let mut scanner = LineScanner::new();
    let mut scratch = UtilScratch::default();
    let mut batch = SampleBatch::new();
    let mut on_line = |ingest: &mut TelemetryIngest, line: &[u8]| {
        if line.iter().all(u8::is_ascii_whitespace) {
            return;
        }
        if probe_util_sample(line, &mut scratch) {
            batch.push(scratch.time, &scratch.utilisations, &scratch.rates);
            if batch.len() >= MAX_BATCH {
                ingest.ingest_batch(&batch, |_, _| {});
                batch.clear();
            }
            return;
        }
        ingest.ingest_batch(&batch, |_, _| {});
        batch.clear();
        ingest.ingest_line(&String::from_utf8_lossy(line));
    };
    for chunk in bytes.chunks(64 * 1024) {
        scanner
            .feed(chunk, |line| -> Result<(), std::convert::Infallible> {
                on_line(&mut ingest, line);
                Ok(())
            })
            .expect("infallible");
    }
    scanner
        .finish(|line| -> Result<(), std::convert::Infallible> {
            on_line(&mut ingest, line);
            Ok(())
        })
        .expect("infallible");
    ingest.ingest_batch(&batch, |_, _| {});
    ingest
}

/// Drives `lp` one line per call — `observe_sample` for strict-form
/// samples, `observe_line` for anything else — and records a
/// `ctrl.replan` span for every call that emitted `ReplanTriggered`:
/// the wall time of one sample that replanned, end to end.
pub fn replan_probe(lp: &mut ControlLoop, bytes: &[u8], t: &mut Tracer) {
    let mut scratch = UtilScratch::default();
    for line in bytes.split(|&b| b == b'\n') {
        if line.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        let before = lp.decisions().len();
        let start = Instant::now();
        if probe_util_sample(line, &mut scratch) {
            lp.observe_sample(scratch.time, &scratch.utilisations, &scratch.rates);
        } else {
            lp.observe_line(&String::from_utf8_lossy(line));
        }
        let end = Instant::now();
        if lp.decisions()[before..]
            .iter()
            .any(|d| matches!(d, Decision::ReplanTriggered { .. }))
        {
            t.add_closed("ctrl.replan", start, end);
        }
    }
}

/// Migration steps across every committed plan.
pub fn migration_moves(lp: &ControlLoop) -> u64 {
    lp.decisions()
        .iter()
        .map(|d| match d {
            Decision::PlanCommitted { moves, .. } => *moves as u64,
            _ => 0,
        })
        .sum()
}

/// Output checks every replay must pass: no line lost, and a final plan
/// that is complete and feasible at the loop's last rate estimate
/// (recomputed by the telemetry layer from the same bytes).
pub fn check_replay(
    report: &mut Report,
    lp: &ControlLoop,
    ingest: &TelemetryIngest,
    model: &LoadModel,
    cluster: &Cluster,
) {
    let s = lp.summary();
    report.check(s.lines == s.samples_accepted + s.samples_rejected, || {
        format!(
            "lines {} != accepted {} + rejected {}",
            s.lines, s.samples_accepted, s.samples_rejected
        )
    });
    report.check(
        ingest.accepted() == s.samples_accepted && ingest.total_rejected() == s.samples_rejected,
        || "telemetry layer and loop disagree on accepted/rejected".to_string(),
    );
    let plan: &Allocation = lp.current();
    report.check(plan.is_complete(), || {
        "final plan is incomplete".to_string()
    });
    match ingest.estimate() {
        Some(estimate) => report.check(
            PlanEvaluator::new(model, cluster).is_feasible_at(plan, &estimate),
            || format!("final plan is infeasible at the last estimate {estimate:?}"),
        ),
        None => report.check(false, || "no sample was accepted".to_string()),
    }
}

/// The control-plane per-layer metrics of a traced replay. `ingest_s`
/// is the ingest-only leg over the same bytes; the rest of the replay's
/// time is per-sample control.
pub fn report_layers(report: &mut Report, t: &Tracer, lp: &ControlLoop, ingest_s: f64) {
    let s = lp.summary();
    let control_s = t.total("ctrl.replay_batched") - ingest_s;
    report.check(control_s > 0.0, || {
        format!("the ingest-only leg ({ingest_s} s) outlasted the whole replay")
    });
    report.set("ctrl.ingest_lines_per_s", s.lines as f64 / ingest_s);
    report.set(
        "ctrl.control_samples_per_s",
        s.samples_accepted as f64 / control_s,
    );
    let counter = |name| lp.metrics().counter(name) as f64;
    report.set(
        "ctrl.fast_path_lines",
        counter("ctrl.ingest_fast_path_lines"),
    );
    report.set("ctrl.fallback_lines", counter("ctrl.ingest_fallback_lines"));
    report.set("ctrl.replans", s.replans_triggered as f64);
    report.set("ctrl.commits", s.plans_committed as f64);
    report.set("ctrl.aborts", s.replans_aborted as f64);
    report.set("ctrl.migration_moves", migration_moves(lp) as f64);
    let replans = t.durations("ctrl.replan");
    if replans.is_empty() {
        report.check(false, || "no sample that replanned was timed".to_string());
    } else {
        let p50 = crate::median(&replans);
        report.set("ctrl.replan_samples_per_s", 1.0 / p50);
        report.note("ctrl.replan_ms", p50 * 1e3);
    }
    report.note("ctrl.replan_ms_count", replans.len());
    report.note("ctrl.ingest_s", ingest_s);
    report.note("ctrl.control_s", control_s);
}
