//! `rodd_firehose`: rodd's single-shot replay path. The program reads a
//! graph JSON and an initial Connected-plan JSON for an 80-op paper tree
//! on 16 nodes, then `ControlLoop::replay_batched` consumes ~200k
//! pre-generated telemetry lines. Per-sample control (headroom, drift)
//! is ~98% of the time; the simulator is absent.

use std::time::Instant;

use rod_core::allocation::Allocation;
use rod_core::cluster::Cluster;
use rod_core::graph::QueryGraph;
use rod_core::load_model::LoadModel;
use rod_core::PlanEvaluator;
use rod_ctrl::{ControlConfig, ControlLoop, DegradationLevel, ReplaySummary};

use crate::gen::{self, FirehoseInputs, FIRE_NODES};
use crate::legs::{self, MAX_BATCH};
use crate::span::Tracer;
use crate::{host, Args, Report};

/// Set-ups timed in a batch before each round.
const SETUP_REPS: usize = 200;

struct Setup {
    lp: ControlLoop,
    model: LoadModel,
    cluster: Cluster,
}

/// What `rodd --graph --plan` does before reading telemetry: parse and
/// validate the graph, parse the plan, derive the load model, build the
/// loop.
fn setup(inputs: &FirehoseInputs, t: &mut Tracer) -> Setup {
    let graph: QueryGraph = t
        .scoped("json.parse", |_| serde_json::from_str(&inputs.graph_json))
        .expect("generated graph parses");
    graph.validate().expect("generated graph is valid");
    let plan: Allocation = t
        .scoped("json.parse", |_| serde_json::from_str(&inputs.plan_json))
        .expect("generated plan parses");
    let model = t
        .scoped("core.derive", |_| LoadModel::derive(&graph))
        .expect("paper trees derive");
    let cluster = Cluster::homogeneous(FIRE_NODES, 1.0);
    let lp = t
        .scoped("ctrl.new", |_| {
            ControlLoop::new(
                model.clone(),
                cluster.clone(),
                plan,
                ControlConfig::default(),
            )
        })
        .expect("the Connected plan is a valid start");
    Setup { lp, model, cluster }
}

/// Lines per `replay_batched` call. One loop consumes the stream in 20
/// consecutive calls, each ending on a line boundary — the same
/// decisions as one call, and 20 timed windows per replay.
const CHUNK_LINES: usize = 10_000;
/// Consecutive calls per timed stretch: 40,000 lines, about a second.
const WINDOW_CHUNKS: usize = 4;

/// The stream cut after every [`CHUNK_LINES`]-th newline.
fn chunks(stream: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut rest = stream;
    while !rest.is_empty() {
        let end = rest
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .nth(CHUNK_LINES - 1)
            .map_or(rest.len(), |(i, _)| i + 1);
        let (chunk, tail) = rest.split_at(end);
        out.push(chunk);
        rest = tail;
    }
    out
}

/// Replays every chunk through one loop; returns the final summary and
/// each call's seconds.
fn replay(s: &mut Setup, chunks: &[&[u8]], t: &mut Tracer) -> (ReplaySummary, Vec<f64>) {
    let mut summary = None;
    let mut secs = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let start = Instant::now();
        summary = Some(
            t.scoped("ctrl.replay_batched", |_| {
                s.lp.replay_batched(*chunk, MAX_BATCH)
            })
            .expect("in-memory replay cannot fail"),
        );
        secs.push(start.elapsed().as_secs_f64());
    }
    (summary.expect("a non-empty stream"), secs)
}

fn fingerprint(s: &Setup, summary: &ReplaySummary) -> String {
    format!(
        "{}\n{}\n{}",
        serde_json::to_string(summary).expect("summary serialises"),
        s.lp.decision_log_jsonl(),
        serde_json::to_string(s.lp.current()).expect("plan serialises"),
    )
}

fn check(report: &mut Report, s: &Setup, summary: &ReplaySummary, inputs: &FirehoseInputs) {
    report.check(summary.lines == inputs.lines, || {
        format!("replay saw {} lines of {}", summary.lines, inputs.lines)
    });
    report.check(summary.samples_rejected == inputs.malformed, || {
        format!(
            "{} lines rejected, {} torn lines written",
            summary.samples_rejected, inputs.malformed
        )
    });
    report.check(summary.plans_committed >= 1, || {
        "the first burst did not lead to a commit".to_string()
    });
    report.check(summary.replans_triggered >= inputs.bursts, || {
        format!(
            "{} replans for {} bursts",
            summary.replans_triggered, inputs.bursts
        )
    });
    report.check(
        summary.degradation_level == DegradationLevel::FullReplan,
        || format!("the loop degraded to {}", summary.degradation_level),
    );
    let ingest = legs::ingest_only(&inputs.stream, legs::telemetry_config(&s.model, &s.cluster));
    legs::check_replay(report, &s.lp, &ingest, &s.model, &s.cluster);
}

/// MMPD of the loop's final plan.
fn final_mmpd(s: &Setup) -> f64 {
    PlanEvaluator::new(&s.model, &s.cluster).min_plane_distance(s.lp.current())
}

/// Lines whose outcome differs from what the generator wrote: every
/// torn line must be rejected and nothing else.
fn misread(summary: &ReplaySummary, inputs: &FirehoseInputs) -> u64 {
    summary.samples_rejected.abs_diff(inputs.malformed)
}

pub fn run(args: &Args) -> Report {
    let inputs = gen::firehose(args.seed);
    if args.trace {
        return traced(args, &inputs);
    }
    let mut report = Report::default();
    let mut off = Tracer::off();

    // Every round builds a fresh loop after timing a batch of
    // [`SETUP_REPS`] set-ups; `setup_s` is the median of the run's
    // fastest batch (see `crate::setup_s`).
    let chunks = chunks(&inputs.stream);
    let mut batches = Vec::new();
    let mut peak = None;
    let rounds = crate::repeat(args, || {
        let (secs, mut s) = crate::time_setups(SETUP_REPS, || setup(&inputs, &mut off));
        batches.push(secs);
        let (summary, secs) = replay(&mut s, &chunks, &mut off);
        peak = peak.or_else(host::peak_rss_mb);
        (s, summary, secs)
    });
    let (first, summary, _) = &rounds[0];
    let reference = fingerprint(first, summary);
    for (s, again, _) in &rounds[1..] {
        report.check(fingerprint(s, again) == reference, || {
            "a repeated replay produced different output".to_string()
        });
    }
    check(&mut report, first, summary, &inputs);

    let walls: Vec<f64> = rounds.iter().map(|r| r.2.iter().sum()).collect();
    // Seconds per line of every timed chunk; the fastest is the rate.
    let per_line: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.2.iter().zip(&chunks))
        .map(|(secs, chunk)| secs / chunk.iter().filter(|&&b| b == b'\n').count() as f64)
        .collect();
    report.attempted = summary.lines;
    report.failed = misread(summary, &inputs);
    report.set("setup_s", crate::setup_s(&batches));
    report.set("peak_rss_mb", peak.unwrap_or(f64::NAN));
    report.set("work_per_s", 1.0 / crate::fastest(&per_line, WINDOW_CHUNKS));
    report.set("plan_mmpd", final_mmpd(first));
    report.note("round_walls", crate::list(&walls));
    report.note("setup_batches", batches.len());
    report.note("stream_bytes", inputs.stream.len());
    report.note("rejected_lines", summary.samples_rejected);
    report.note("replans", summary.replans_triggered);
    report.note("commits", summary.plans_committed);
    report.note("aborts", summary.replans_aborted);
    report
}

fn traced(args: &Args, inputs: &FirehoseInputs) -> Report {
    let mut report = Report::default();
    let mut off = Tracer::off();
    let chunks = chunks(&inputs.stream);
    let mut plain = setup(inputs, &mut off);
    let (plain_summary, plain_secs) = replay(&mut plain, &chunks, &mut off);
    let plain_fingerprint = fingerprint(&plain, &plain_summary);
    drop(plain);

    let before = crate::Counters::now();
    let mut t = Tracer::on(format!("{}-seed{}", args.workload, args.seed));
    let wall_start = Instant::now();
    let root = t.enter("run");
    let mut s = t.scoped("setup", |t| setup(inputs, t));
    let (summary, _) = replay(&mut s, &chunks, &mut t);
    let cfg = legs::telemetry_config(&s.model, &s.cluster);
    t.scoped("ctrl.ingest_only", |_| {
        legs::ingest_only(&inputs.stream, cfg)
    });
    let mut probe = t.scoped("setup.probe", |_| setup(inputs, &mut Tracer::off()));
    t.scoped("ctrl.replan_probe", |t| {
        legs::replan_probe(&mut probe.lp, &inputs.stream, t)
    });
    t.exit(root);
    let wall = wall_start.elapsed().as_secs_f64();

    report.check(fingerprint(&s, &summary) == plain_fingerprint, || {
        "traced and untraced replays produced different output".to_string()
    });
    report.check(
        probe.lp.decision_log_jsonl() == s.lp.decision_log_jsonl(),
        || "per-sample and batched replay logged different decisions".to_string(),
    );
    check(&mut report, &s, &summary, inputs);
    crate::trace_summary(&mut report, &t, wall, args, &before);

    report.attempted = summary.lines;
    report.failed = misread(&summary, inputs);
    report.set("json.parse_s", t.total("json.parse"));
    report.set(
        "json.bytes",
        (inputs.graph_json.len() + inputs.plan_json.len()) as f64,
    );
    report.set("core.derive_s", t.total("core.derive"));
    report.set("core.nnz", s.model.nnz() as f64);
    // The loop replans through its own planner; the benchmark calls no
    // planner and no simulator here.
    report.absent("core.rod.");
    report.absent("core.hier.");
    report.absent("core.resilient.");
    report.absent("pool.speedup");
    report.absent("sim.");
    legs::report_layers(&mut report, &t, &s.lp, t.total("ctrl.ingest_only"));
    report.set(
        "trace.overhead_s",
        t.total("ctrl.replay_batched") - plain_secs.iter().sum::<f64>(),
    );
    report.note("final_plan_mmpd", final_mmpd(&s));
    report
}
