//! `pipeline_1m`: the whole loop at production volume. Connected plans
//! a 12-op two-chain graph on 3 nodes; the batched engine runs it on two
//! 450k tuples/s ON/OFF streams while a `UtilSample`-only sink captures
//! rodd's telemetry; `ControlLoop::replay_batched` reacts to stream B's
//! burst from the Connected start; the loop's final plan runs again,
//! untraced. The engine does ~99% of the work, once with a sink and once
//! without.

use std::time::Instant;

use rod_core::allocation::Allocation;
use rod_core::baselines::{build_planner, PlannerSpec};
use rod_core::cluster::Cluster;
use rod_core::graph::QueryGraph;
use rod_core::load_model::LoadModel;
use rod_core::PlanEvaluator;
use rod_ctrl::{ControlConfig, ControlLoop, ReplaySummary};
use rod_sim::{BatchConfig, SimReport, Simulation, SimulationConfig, SourceSpec};

use crate::gen::{
    self, PipelineInputs, PIPE_HORIZON, PIPE_MEAN_RATE, PIPE_NODES, PIPE_SAMPLE_INTERVAL,
};
use crate::legs::{self, MAX_BATCH};
use crate::sink::UtilSampleSink;
use crate::span::Tracer;
use crate::{host, Args, Report};

/// Set-ups timed in a batch before each round.
const SETUP_REPS: usize = 200;

struct Setup {
    graph: QueryGraph,
    model: LoadModel,
    cluster: Cluster,
}

/// What `rodctl`/`rodd` do before the first call: parse and validate
/// the graph JSON, derive the load model.
fn setup(inputs: &PipelineInputs, t: &mut Tracer) -> Setup {
    let graph: QueryGraph = t
        .scoped("json.parse", |_| serde_json::from_str(&inputs.graph_json))
        .expect("generated graph parses");
    graph.validate().expect("generated graph is valid");
    let model = t
        .scoped("core.derive", |_| LoadModel::derive(&graph))
        .expect("pipeline graph derives");
    Setup {
        graph,
        model,
        cluster: Cluster::homogeneous(PIPE_NODES, 1.0),
    }
}

fn sim_config(seed: u64) -> SimulationConfig {
    SimulationConfig {
        horizon: PIPE_HORIZON,
        warmup: 1.0,
        seed,
        max_queue: 100_000_000,
        shed_above: Some(50_000),
        sample_interval: Some(PIPE_SAMPLE_INTERVAL),
        batch: Some(BatchConfig::default()),
        ..SimulationConfig::default()
    }
}

/// Everything one pass of the loop produced, and how long each call
/// took.
struct Round {
    connected: Allocation,
    first: SimReport,
    telemetry: UtilSampleSink,
    summary: ReplaySummary,
    lp: ControlLoop,
    second: SimReport,
    /// Seconds inside the engine: the Connected run (with the sink),
    /// then the final plan's run.
    first_s: f64,
    second_s: f64,
    wall_s: f64,
}

impl Round {
    fn offered(&self) -> u64 {
        self.first.tuples_in + self.second.tuples_in
    }

    fn shed(&self) -> u64 {
        self.first.tuples_shed + self.second.tuples_shed
    }

    /// Byte-level identity of everything the program produced.
    fn fingerprint(&self) -> String {
        format!(
            "{}\n{}\n{}\n{}\n{}",
            serde_json::to_string(&self.first).expect("report serialises"),
            serde_json::to_string(&self.second).expect("report serialises"),
            serde_json::to_string(&self.summary).expect("summary serialises"),
            self.lp.decision_log_jsonl(),
            serde_json::to_string(self.lp.current()).expect("plan serialises"),
        ) + &String::from_utf8_lossy(&self.telemetry.bytes)
    }
}

fn simulate(
    s: &Setup,
    inputs: &PipelineInputs,
    plan: &Allocation,
    sink: Option<&mut UtilSampleSink>,
) -> (SimReport, f64) {
    let sources = inputs
        .traces
        .iter()
        .map(|tr| SourceSpec::TraceDriven(tr.clone()))
        .collect();
    let sim = Simulation::new(
        &s.graph,
        plan,
        &s.cluster,
        sources,
        sim_config(inputs.sim_seed),
    );
    let start = Instant::now();
    let report = match sink {
        Some(sink) => sim.run_with_sink(sink),
        None => sim.run(),
    };
    (report, start.elapsed().as_secs_f64())
}

fn new_loop(s: &Setup, start: Allocation) -> ControlLoop {
    ControlLoop::new(
        s.model.clone(),
        s.cluster.clone(),
        start,
        ControlConfig::default(),
    )
    .expect("the Connected plan is a valid start")
}

fn round(s: &Setup, inputs: &PipelineInputs, t: &mut Tracer) -> Round {
    let start = Instant::now();
    let connected = t
        .scoped("core.plan_connected", |_| {
            build_planner(&PlannerSpec::Connected {
                rates: vec![PIPE_MEAN_RATE; 2],
            })
            .plan(&s.model, &s.cluster)
        })
        .expect("Connected plans the pipeline");

    let mut telemetry = UtilSampleSink::new(t.is_on());
    let span = t.enter("sim.run_with_sink");
    let (first, first_s) = simulate(s, inputs, &connected, Some(&mut telemetry));
    for &(a, b) in telemetry.intervals.iter().flatten() {
        t.add_closed("sim.sink", a, b);
    }
    t.exit(span);
    host::release_freed_memory();

    let mut lp = t.scoped("ctrl.new", |_| new_loop(s, connected.clone()));
    let summary = t
        .scoped("ctrl.replay_batched", |_| {
            lp.replay_batched(&telemetry.bytes[..], MAX_BATCH)
        })
        .expect("in-memory replay cannot fail");

    let final_plan = lp.current().clone();
    let (second, second_s) = t.scoped("sim.run", |_| simulate(s, inputs, &final_plan, None));
    host::release_freed_memory();
    Round {
        connected,
        first,
        telemetry,
        summary,
        lp,
        second,
        first_s,
        second_s,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

fn check_round(report: &mut Report, r: &Round, s: &Setup) {
    report.check(!r.first.saturated && !r.second.saturated, || {
        "a simulation saturated: shedding failed to bound the queues".to_string()
    });
    report.check(r.summary.plans_committed >= 1, || {
        "the loop never committed a plan: the burst did not reach it".to_string()
    });
    report.check(r.summary.samples_rejected == 0, || {
        format!(
            "the loop rejected {} engine samples",
            r.summary.samples_rejected
        )
    });
    let ingest = legs::ingest_only(
        &r.telemetry.bytes,
        legs::telemetry_config(&s.model, &s.cluster),
    );
    legs::check_replay(report, &r.lp, &ingest, &s.model, &s.cluster);
}

fn latency_ms(r: &SimReport, q: f64) -> f64 {
    r.latency_quantile(q).map_or(f64::NAN, |x| x * 1e3)
}

/// MMPD of the loop's final plan.
fn final_mmpd(s: &Setup, r: &Round) -> f64 {
    PlanEvaluator::new(&s.model, &s.cluster).min_plane_distance(r.lp.current())
}

/// Shed and latency figures of both simulations: deterministic per
/// seed, printed as notes.
fn note_simulations(report: &mut Report, r: &Round) {
    let shed = r.shed() as f64 / r.offered() as f64;
    report.note("shed_fraction", shed);
    report.note("connected_shed", r.first.tuples_shed);
    report.note("final_plan_shed", r.second.tuples_shed);
    report.note("sim_p50_latency_ms", latency_ms(&r.second, 0.5));
    report.note("sim_p99_latency_ms", latency_ms(&r.second, 0.99));
    report.note("latency_samples", r.second.latencies.count());
    report.note("replans", r.summary.replans_triggered);
    report.note("commits", r.summary.plans_committed);
}

pub fn run(args: &Args) -> Report {
    let inputs = gen::pipeline(args.seed);
    if args.trace {
        return traced(args, &inputs);
    }
    let mut report = Report::default();
    let mut off = Tracer::off();

    // A batch of set-ups is timed before every round; `setup_s` is the
    // median of the run's fastest batch (see `crate::setup_s`).
    let mut batches = Vec::new();
    let mut peak = None;
    let rounds = crate::repeat(args, || {
        let (secs, s) = crate::time_setups(SETUP_REPS, || setup(&inputs, &mut off));
        batches.push(secs);
        let r = round(&s, &inputs, &mut off);
        // The peak of one pass; later rounds only re-use freed memory.
        peak = peak.or_else(host::peak_rss_mb);
        (s, r)
    });
    let (s, first) = &rounds[0];
    let reference = first.fingerprint();
    for (_, r) in &rounds[1..] {
        report.check(r.fingerprint() == reference, || {
            "a repeated round produced different output".to_string()
        });
    }
    check_round(&mut report, first, s);

    let walls: Vec<f64> = rounds.iter().map(|(_, r)| r.wall_s).collect();
    // Each engine run's fastest call: the two runs differ in cost (one
    // feeds the sink), and a round is two calls of 2-4 s each.
    let sink_runs: Vec<f64> = rounds.iter().map(|(_, r)| r.first_s).collect();
    let plain_runs: Vec<f64> = rounds.iter().map(|(_, r)| r.second_s).collect();
    let engine_s = crate::fastest(&sink_runs, 1) + crate::fastest(&plain_runs, 1);
    // The loop's output is its final plan: tuples that plan sheds are
    // the workload's failures. Connected's shedding is the overload the
    // loop reacts to (see the notes).
    report.attempted = first.second.tuples_in;
    report.failed = first.second.tuples_shed;
    report.set("setup_s", crate::setup_s(&batches));
    report.set("peak_rss_mb", peak.unwrap_or(f64::NAN));
    report.set("work_per_s", first.offered() as f64 / engine_s);
    report.set("plan_mmpd", final_mmpd(s, first));
    report.note("round_walls", crate::list(&walls));
    report.note("sink_runs", crate::list(&sink_runs));
    report.note("plain_runs", crate::list(&plain_runs));
    report.note("setup_batches", batches.len());
    note_simulations(&mut report, first);
    report
}

fn traced(args: &Args, inputs: &PipelineInputs) -> Report {
    let mut report = Report::default();
    let mut off = Tracer::off();
    let s = setup(inputs, &mut off);
    let plain = round(&s, inputs, &mut off);
    let plain_mmpd = final_mmpd(&s, &plain);
    drop(s);

    let before = crate::Counters::now();
    let mut t = Tracer::on(format!("{}-seed{}", args.workload, args.seed));
    let wall_start = Instant::now();
    let root = t.enter("run");
    let s = t.scoped("setup", |t| setup(inputs, t));
    let traced = t.scoped("round", |t| round(&s, inputs, t));
    let cfg = legs::telemetry_config(&s.model, &s.cluster);
    t.scoped("ctrl.ingest_only", |_| {
        legs::ingest_only(&traced.telemetry.bytes, cfg)
    });
    let mut probe = t.scoped("ctrl.new", |_| new_loop(&s, traced.connected.clone()));
    t.scoped("ctrl.replan_probe", |t| {
        legs::replan_probe(&mut probe, &traced.telemetry.bytes, t)
    });
    t.exit(root);
    let wall = wall_start.elapsed().as_secs_f64();

    report.check(plain.fingerprint() == traced.fingerprint(), || {
        "traced and untraced rounds produced different output".to_string()
    });
    report.check(
        final_mmpd(&s, &traced).to_bits() == plain_mmpd.to_bits(),
        || "traced and untraced final plans differ in MMPD".to_string(),
    );
    report.check(
        probe.decision_log_jsonl() == traced.lp.decision_log_jsonl(),
        || "per-sample and batched replay logged different decisions".to_string(),
    );
    check_round(&mut report, &traced, &s);
    crate::trace_summary(&mut report, &t, wall, args, &before);

    report.attempted = traced.second.tuples_in;
    report.failed = traced.second.tuples_shed;
    report.set("json.parse_s", t.total("json.parse"));
    report.set("json.bytes", inputs.graph_json.len() as f64);
    report.set("core.derive_s", t.total("core.derive"));
    report.set("core.nnz", s.model.nnz() as f64);
    // Connected is the only planner call, and it takes microseconds.
    report.absent("core.rod.");
    report.absent("core.hier.");
    report.absent("core.resilient.");
    report.absent("pool.speedup");
    report.set(
        "sim.sink_run_tuples_per_s",
        traced.first.tuples_in as f64 / t.total("sim.run_with_sink"),
    );
    report.set(
        "sim.plain_run_tuples_per_s",
        traced.second.tuples_in as f64 / t.total("sim.run"),
    );
    report.set(
        "sim.tuples_processed",
        (traced.first.tuples_processed + traced.second.tuples_processed) as f64,
    );
    report.set(
        "sim.peak_queue",
        traced.first.peak_queue.max(traced.second.peak_queue) as f64,
    );
    report.set("sim.trace_records", traced.telemetry.offered as f64);
    report.set("sim.trace_bytes", traced.telemetry.bytes.len() as f64);
    report.set(
        "sim.sink_records_per_s",
        traced.telemetry.offered as f64 / t.total("sim.sink"),
    );
    legs::report_layers(&mut report, &t, &traced.lp, t.total("ctrl.ingest_only"));
    report.set("trace.overhead_s", t.total("round") - plain.wall_s);
    report.note("sim.sink_run_s", t.total("sim.run_with_sink"));
    report.note("sim.plain_run_s", t.total("sim.run"));
    report.note("sim.sink_s", t.total("sim.sink"));
    note_simulations(&mut report, &traced);
    report
}
