//! `loopbench` — one benchmark for the whole ROD loop: rate traces →
//! planning → simulated execution → `rodd` drift/replan.
//!
//! ```text
//! loopbench --workload pipeline_1m|rodd_firehose|plan_scale \
//!           --seed N [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload generates its inputs from the seed, sets the program
//! up, then repeats its timed calls until `--seconds` have passed. The
//! last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics, or with `--trace 1`
//! the per-layer metrics of a traced run). A failed output check prints
//! `"correct": false` and exits 1. See `README.md` for the metrics.

mod firehose;
mod gen;
mod host;
mod legs;
mod pipeline;
mod plan_scale;
mod sink;
mod span;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// `(name, unit, better)` of every end-to-end metric, as in
/// `BENCHMARK.json`. Every workload reports every one of them.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("plan_mmpd", "dimensionless", "higher"),
];

/// `(name, unit, better)` of every per-layer metric of a traced run.
/// Every workload reports every one of them: a layer the workload never
/// calls reports zero work (see [`Report::absent`]), and only counts,
/// rates and ratios may be zero — never a time.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("json.parse_s", "s", "lower"),
    ("json.bytes", "bytes", "lower"),
    ("core.derive_s", "s", "lower"),
    ("core.nnz", "count", "lower"),
    ("core.rod.candidates_scored", "count", "lower"),
    ("core.rod.candidates_per_s", "1/s", "higher"),
    ("core.hier.candidates_scored", "count", "lower"),
    ("core.hier.candidates_per_s", "1/s", "higher"),
    ("core.resilient.candidate_moves", "count", "lower"),
    ("core.resilient.moves_per_s", "1/s", "higher"),
    ("core.resilient.cache_hit_ratio", "ratio", "higher"),
    ("geom.simd_blocks", "count", "higher"),
    ("geom.scalar_blocks", "count", "lower"),
    ("pool.workers", "count", "higher"),
    ("pool.tasks", "count", "lower"),
    ("pool.utilisation", "ratio", "higher"),
    ("pool.speedup", "ratio", "higher"),
    ("sim.sink_run_tuples_per_s", "1/s", "higher"),
    ("sim.plain_run_tuples_per_s", "1/s", "higher"),
    ("sim.tuples_processed", "count", "lower"),
    ("sim.peak_queue", "count", "lower"),
    ("sim.trace_records", "count", "lower"),
    ("sim.trace_bytes", "bytes", "lower"),
    ("sim.sink_records_per_s", "1/s", "higher"),
    ("ctrl.ingest_lines_per_s", "1/s", "higher"),
    ("ctrl.control_samples_per_s", "1/s", "higher"),
    ("ctrl.fast_path_lines", "count", "higher"),
    ("ctrl.fallback_lines", "count", "lower"),
    ("ctrl.replans", "count", "lower"),
    ("ctrl.commits", "count", "lower"),
    ("ctrl.aborts", "count", "lower"),
    ("ctrl.migration_moves", "count", "lower"),
    ("ctrl.replan_samples_per_s", "1/s", "higher"),
    ("host.cpu_probe_s", "s", "lower"),
    ("host.mem_probe_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
];

/// Units that are times. A time is never reported as an absent layer's
/// zero: it is measured on every workload.
const TIME_UNITS: &[&str] = &["s", "ms"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations the workload attempted ...
    pub attempted: u64,
    /// ... and how many of them failed.
    pub failed: u64,
    values: Vec<(&'static str, f64)>,
    violations: Vec<String>,
    notes: Vec<(&'static str, String)>,
}

impl Report {
    /// Records a metric; its name must be in the table for the mode.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if !value.is_finite() {
            self.violations
                .push(format!("{name} is not finite ({value})"));
            return;
        }
        self.values.push((name, value));
    }

    /// Records an output check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// A diagnostic printed before the result line, never a metric.
    pub fn note(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.notes.push((key, value.to_string()));
    }

    /// Reports zero work for every per-layer metric of a layer this
    /// workload never calls (names starting with `layer`).
    pub fn absent(&mut self, layer: &str) {
        for &(name, unit, _) in PER_LAYER.iter().filter(|(n, _, _)| n.starts_with(layer)) {
            assert!(
                !TIME_UNITS.contains(&unit),
                "{name} is a time: every workload measures it"
            );
            self.set(name, 0.0);
        }
    }
}

/// Times `n` set-ups (at least one), dropping each before the next;
/// returns their seconds and the last set-up.
pub fn time_setups<S>(n: usize, mut setup: impl FnMut() -> S) -> (Vec<f64>, S) {
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        secs.push(start.elapsed().as_secs_f64());
    }
    (secs, last.expect("at least one set-up"))
}

/// `setup_s` from batches of set-up timings: each batch's median, and
/// of those the fastest. A batch takes well under a second, so a slow
/// phase of the host (they last seconds to minutes) covers it whole;
/// between two sets of runs, the median over every set-up of a run
/// moved by half while the fastest batch follows the program, as every
/// other timed metric here does (see `README.md`, Steadiness).
pub fn setup_s(batches: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = batches.iter().map(|b| median(b)).collect();
    fastest(&medians, 1)
}

/// Runs `round` once, then again for as long as one more round as long
/// as the last still fits in `--seconds`.
pub fn repeat<R>(args: &Args, mut round: impl FnMut() -> R) -> Vec<R> {
    let started = Instant::now();
    let mut out = Vec::new();
    let mut last = Duration::ZERO;
    while out.is_empty() || started.elapsed() + last <= args.budget() {
        let start = Instant::now();
        out.push(round());
        last = start.elapsed();
    }
    out
}

/// Mean of the fastest stretch of `k` consecutive timings. On a shared
/// host whose speed swings by up to 1.7× within minutes, the fastest
/// stretch of a run tracks the program's cost while the median tracks
/// the neighbours' load (see `README.md`, Steadiness). Callers pick `k`
/// so a stretch covers about a second of calls: no metric rests on one
/// short call.
pub fn fastest(xs: &[f64], k: usize) -> f64 {
    let k = k.clamp(1, xs.len());
    let least = xs
        .windows(k)
        .map(|w| w.iter().sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    least / k as f64
}

/// A sample as a comma-separated list, for the notes line.
pub fn list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    items.join(",")
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Span self-times must add up to the traced wall time within this
/// many seconds plus [`RECONCILE_REL`] of the wall time.
const RECONCILE_ABS_S: f64 = 1e-3;
const RECONCILE_REL: f64 = 1e-3;

/// Process-wide counters a traced section is diffed against: blocks
/// the feasibility kernel scored and work the global pool did.
pub struct Counters {
    kernel: rod_geom::simd::KernelPathCounts,
    pool: rod_pool::PoolStats,
}

impl Counters {
    pub fn now() -> Counters {
        Counters {
            kernel: rod_geom::simd::path_counts(),
            pool: rod_pool::global().stats(),
        }
    }
}

/// Reconciles span self-times with the traced wall time, reports the
/// unattributed remainder, the kernel and pool work of the traced
/// section (since `before`), and writes the spans out.
pub fn trace_summary(
    report: &mut Report,
    t: &span::Tracer,
    wall: f64,
    args: &Args,
    before: &Counters,
) {
    let own: f64 = t.self_times().iter().sum();
    let tolerance = RECONCILE_ABS_S + RECONCILE_REL * wall;
    report.check((own - wall).abs() <= tolerance, || {
        format!("span self-times sum to {own} s, traced wall is {wall} s (tolerance {tolerance} s)")
    });
    report.set("trace.unattributed_s", t.unattributed());
    report.note("trace.wall_s", wall);
    report.note("trace.self_sum_s", own);
    report.note("trace.tolerance_s", tolerance);
    report.note("trace.spans", t.len());

    let now = Counters::now();
    report.set(
        "geom.simd_blocks",
        (now.kernel.simd_blocks - before.kernel.simd_blocks) as f64,
    );
    report.set(
        "geom.scalar_blocks",
        (now.kernel.scalar_blocks - before.kernel.scalar_blocks) as f64,
    );
    let busy = now.pool.busy_seconds - before.pool.busy_seconds;
    report.set("pool.workers", now.pool.workers as f64);
    report.set(
        "pool.tasks",
        (now.pool.tasks_executed - before.pool.tasks_executed) as f64,
    );
    report.set("pool.utilisation", busy / (now.pool.workers as f64 * wall));
    report.note("pool.busy_s", busy);

    let path = span_path(args);
    match t.write_jsonl(&path) {
        Ok(()) => report.note("spans", path.display()),
        Err(e) => report.check(false, || format!("write {}: {e}", path.display())),
    }
}

/// Where a traced run writes its spans.
pub fn span_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed))
}

const USAGE: &str = "usage: loopbench --workload pipeline_1m|rodd_firehose|plan_scale \
                     --seed N [--seconds S] [--trace 0|1]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: want 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !matches!(
        workload.as_str(),
        "pipeline_1m" | "rodd_firehose" | "plan_scale"
    ) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.max(1),
        trace,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("loopbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    host::pin_mmap_threshold();
    // One process, the pool pinned to one worker per core, no other
    // threads: a background thread would compete with those workers.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    rod_pool::configure_global(cores);
    println!(
        "{}",
        host::provenance(&args.workload, args.seed, args.seconds, args.trace)
    );

    let mut report = match args.workload.as_str() {
        "pipeline_1m" => pipeline::run(&args),
        "rodd_firehose" => firehose::run(&args),
        _ => plan_scale::run(&args),
    };
    // Host probes run after the workload read its peak RSS.
    let (cpu, mem) = (host::cpu_probe_s(), host::mem_probe_s());
    report.note("host.cpu_probe_s", cpu);
    report.note("host.mem_probe_s", mem);
    if args.trace {
        report.set("host.cpu_probe_s", cpu);
        report.set("host.mem_probe_s", mem);
    }
    finish(&args, report)
}

fn finish(args: &Args, report: Report) -> ExitCode {
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut violations = report.violations;
    for (name, _) in &report.values {
        if !table.iter().any(|(n, _, _)| n == name) {
            violations.push(format!("{name} is not a declared metric of this mode"));
        }
    }
    let mut metrics = String::new();
    for &(name, unit, better) in table {
        let mut values = report.values.iter().filter(|(n, _)| *n == name);
        let (Some(&(_, value)), None) = (values.next(), values.next()) else {
            violations.push(format!("{name} was not reported exactly once"));
            continue;
        };
        if !args.trace && value == 0.0 {
            violations.push(format!("end-to-end metric {name} is zero"));
        }
        println!("{name:<32} {value:>16.6} {unit:<14} {better} is better");
        let sep = if metrics.is_empty() { "" } else { "," };
        write!(
            metrics,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        )
        .expect("write to String");
    }
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("notes: {}", notes.join(" "));
    for v in &violations {
        eprintln!("loopbench: CHECK FAILED: {v}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        violations.is_empty(),
        report.attempted.max(1),
        report.failed
    );
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and `BENCHMARK.json` must name the same
    /// metrics with the same units and directions.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let get = |v: &serde::Value, key: &str| -> serde::Value {
            let pairs = v.as_object().expect("an object");
            pairs.iter().find(|(k, _)| k == key).expect(key).1.clone()
        };
        let string = |v: serde::Value| match v {
            serde::Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = get(&json, key);
            let listed = listed.as_array().expect("metric list");
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, (name, unit, better)) in listed.iter().zip(table.iter()) {
                assert_eq!(string(get(entry, "name")), *name, "{key}");
                assert_eq!(string(get(entry, "unit")), *unit, "{key} {name}");
                assert_eq!(string(get(entry, "better")), *better, "{key} {name}");
            }
        }
    }

    #[test]
    fn args_reject_bad_input() {
        let v = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert!(parse_args(&v(&["--workload", "plan_scale", "--seed", "3"])).is_ok());
        assert!(parse_args(&v(&["--workload", "nope", "--seed", "3"])).is_err());
        assert!(parse_args(&v(&["--workload", "plan_scale"])).is_err());
        assert!(parse_args(&v(&["--workload", "plan_scale", "--seed", "x"])).is_err());
        assert!(parse_args(&v(&[
            "--workload",
            "plan_scale",
            "--seed",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
    }

    #[test]
    fn fastest_takes_the_cheapest_stretch() {
        assert_eq!(fastest(&[3.0, 1.0, 2.0, 5.0], 2), 1.5);
        assert_eq!(fastest(&[3.0, 1.0, 2.0, 5.0], 1), 1.0);
        assert_eq!(fastest(&[2.0, 4.0], 9), 3.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
