//! `perf_ctrl` → `BENCH_ctrl.json`: line-at-a-time `UtilSample`
//! ingestion (`BufRead::lines` + `ingest_line`) against the zero-copy
//! fast path (`LineScanner`, strict-form probe, `ingest_batch`;
//! DESIGN.md §14), alone (`ingest_*`) or in the whole daemon (`loop_*`:
//! `observe_line` per line against `replay_batched`). Every repetition
//! asserts equal counts, rejection counters, `last_time` and estimate
//! bits, and on the loop cell equal summaries and logs.

use std::io::BufRead;
use std::time::Instant;

use rod_bench::perf::ctrl::{Cell as CellResult, Ctrl};
use rod_bench::perf::{self, median};
use rod_core::cluster::Cluster;
use rod_core::examples_paper::figure4_graph;
use rod_ctrl::{
    ControlConfig, ControlLoop, SampleBatch, TelemetryConfig, TelemetryIngest, INGEST_BATCH,
};
use rod_sim::replay::scan::{probe_util_sample, LineScanner, UtilScratch};

/// Stream-generation seed — fixed so the trajectory tracks code.
const SEED: u64 = 42;

#[derive(Clone, Copy)]
enum Kind {
    /// Telemetry layer alone: `ingest_line` vs scanner + `ingest_batch`.
    Ingest,
    /// Whole daemon: `observe_line` per line vs `replay_batched`.
    Loop,
}

#[derive(Clone, Copy)]
struct Cell {
    name: &'static str,
    kind: Kind,
    /// Telemetry lines in the generated stream.
    lines: usize,
    /// Included in `--quick` runs (identical parameters so `--check`
    /// can match cells by name).
    quick: bool,
}

const GRID: &[Cell] = &[
    Cell {
        name: "ingest_100k",
        kind: Kind::Ingest,
        lines: 100_000,
        quick: true,
    },
    // The acceptance cell: one simulated second of a 1M-samples/s
    // telemetry firehose, with a ≥5× floor on the fast path's advantage
    // (`perf::ctrl::Ctrl::FLOORS`).
    Cell {
        name: "ingest_1m",
        kind: Kind::Ingest,
        lines: 1_000_000,
        quick: true,
    },
    // Full control loop on the paper's Figure 4 graph: parsing competes
    // with drift detection, headroom evaluation, and decision logging.
    Cell {
        name: "loop_200k",
        kind: Kind::Loop,
        lines: 200_000,
        quick: false,
    },
];

/// A production-volume telemetry stream: strict-form `UtilSample` lines
/// at 1 µs spacing with rates wandering deterministically around a calm
/// operating point, one malformed line per 10k to keep the fallback
/// path exercised. Shapes match the loop cell's Figure 4 graph
/// (2 inputs) on a small cluster.
fn make_stream(lines: usize) -> String {
    let mut out = String::with_capacity(lines * 130);
    let mut lcg = SEED | 1;
    for i in 0..lines {
        if i % 10_000 == 9_999 {
            out.push_str("{corrupt telemetry line\n");
            continue;
        }
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Two rates in roughly [0.04, 0.06) — calm for Figure 4, so the
        // loop cell measures steady-state monitoring, not replan storms.
        let r0 = 0.04 + (lcg >> 40) as f64 / (1u64 << 24) as f64 * 0.02;
        let r1 = 0.04 + ((lcg >> 16) & 0xffffff) as f64 / (1u64 << 24) as f64 * 0.02;
        let u0 = 0.3 + (lcg & 0xffff) as f64 / 65536.0 * 0.4;
        let time = (i + 1) as f64 * 1e-6;
        out.push_str(&format!(
            "{{\"UtilSample\":{{\"time\":{time},\"utilisations\":[{u0:.4},0.35],\
             \"queue_depths\":[0,0],\"queued\":0,\"rates\":[{r0},{r1}]}}}}\n"
        ));
    }
    out
}

fn telemetry_config() -> TelemetryConfig {
    TelemetryConfig {
        num_inputs: 2,
        num_nodes: 2,
        window: 8,
        ewma_alpha: 0.3,
    }
}

/// The reference: line-at-a-time work at the telemetry layer
/// (allocating `BufRead::lines`, full `parse_line`).
fn ingest_lines(bytes: &[u8]) -> (TelemetryIngest, f64) {
    let mut ingest = TelemetryIngest::new(telemetry_config());
    let t = Instant::now();
    for line in bytes.lines() {
        let line = line.expect("generated stream is valid UTF-8");
        if line.trim().is_empty() {
            continue;
        }
        ingest.ingest_line(&line);
    }
    (ingest, t.elapsed().as_secs_f64())
}

/// The fast path: zero-copy scan + strict-form probe + `ingest_batch`,
/// falling back to `ingest_line` outside the strict grammar — the same
/// split `ControlLoop::replay_batched` performs.
fn ingest_batched(bytes: &[u8]) -> (TelemetryIngest, f64) {
    let mut ingest = TelemetryIngest::new(telemetry_config());
    let mut scanner = LineScanner::new();
    let mut scratch = UtilScratch::default();
    let mut batch = SampleBatch::new();
    let t = Instant::now();
    let mut on_line = |ingest: &mut TelemetryIngest, batch: &mut SampleBatch, line: &[u8]| {
        if line.iter().all(|b| b.is_ascii_whitespace()) {
            return;
        }
        if probe_util_sample(line, &mut scratch) {
            batch.push(scratch.time, &scratch.utilisations, &scratch.rates);
            if batch.len() >= INGEST_BATCH {
                ingest.ingest_batch(batch, |_, _| {});
                batch.clear();
            }
            return;
        }
        let text = std::str::from_utf8(line).expect("generated stream is valid UTF-8");
        if text.trim().is_empty() {
            return;
        }
        ingest.ingest_batch(batch, |_, _| {});
        batch.clear();
        ingest.ingest_line(text);
    };
    for chunk in bytes.chunks(64 * 1024) {
        scanner
            .feed(chunk, |line| -> Result<(), std::convert::Infallible> {
                on_line(&mut ingest, &mut batch, line);
                Ok(())
            })
            .unwrap();
    }
    scanner
        .finish(|line| -> Result<(), std::convert::Infallible> {
            on_line(&mut ingest, &mut batch, line);
            Ok(())
        })
        .unwrap();
    ingest.ingest_batch(&batch, |_, _| {});
    (ingest, t.elapsed().as_secs_f64())
}

/// Both paths must land on the same accumulator, to the bit.
fn assert_ingest_equal(cell: &str, a: &TelemetryIngest, b: &TelemetryIngest) {
    assert_eq!(a.accepted(), b.accepted(), "{cell}: accepted diverged");
    assert_eq!(
        a.rejections(),
        b.rejections(),
        "{cell}: rejection counters diverged"
    );
    assert_eq!(a.last_time(), b.last_time(), "{cell}: last_time diverged");
    let (ea, eb) = (a.estimate(), b.estimate());
    let bits = |e: &Option<Vec<f64>>| {
        e.as_ref()
            .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
    };
    assert_eq!(bits(&ea), bits(&eb), "{cell}: estimate bits diverged");
}

fn make_loop() -> ControlLoop {
    rod_ctrl::bootstrap(
        &figure4_graph(),
        Cluster::homogeneous(2, 1.0),
        ControlConfig::default(),
    )
    .expect("figure 4 bootstrap")
}

fn run_cell(cell: &Cell, repeats: usize) -> CellResult {
    eprintln!("[perf_ctrl] {} ...", cell.name);
    let stream = make_stream(cell.lines);
    let bytes = stream.as_bytes();
    let mut line_times = Vec::with_capacity(repeats);
    let mut batch_times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        match cell.kind {
            Kind::Ingest => {
                let (oracle, line_s) = ingest_lines(bytes);
                let (fast, batch_s) = ingest_batched(bytes);
                assert_ingest_equal(cell.name, &oracle, &fast);
                line_times.push(line_s);
                batch_times.push(batch_s);
            }
            Kind::Loop => {
                let mut oracle = make_loop();
                let t = Instant::now();
                for line in bytes.lines() {
                    let line = line.expect("generated stream is valid UTF-8");
                    if !line.trim().is_empty() {
                        oracle.observe_line(&line);
                    }
                }
                let s1 = oracle.summary();
                line_times.push(t.elapsed().as_secs_f64());
                let mut fast = make_loop();
                let t = Instant::now();
                let s2 = fast
                    .replay_batched(bytes, INGEST_BATCH)
                    .expect("valid UTF-8 stream");
                batch_times.push(t.elapsed().as_secs_f64());
                assert_eq!(
                    serde_json::to_string(&s1).unwrap(),
                    serde_json::to_string(&s2).unwrap(),
                    "{}: summaries diverged",
                    cell.name
                );
                assert_eq!(
                    oracle.decision_log_jsonl(),
                    fast.decision_log_jsonl(),
                    "{}: decision logs diverged",
                    cell.name
                );
            }
        }
    }
    let line_s = median(&mut line_times).expect("at least one repeat");
    let batch_s = median(&mut batch_times).expect("at least one repeat");
    CellResult {
        name: cell.name.to_string(),
        lines: cell.lines as u64,
        stream_bytes: bytes.len() as u64,
        line_seconds: line_s,
        batched_seconds: batch_s,
        line_samples_per_sec: cell.lines as f64 / line_s,
        batched_samples_per_sec: cell.lines as f64 / batch_s,
        ingest_speedup: line_s / batch_s,
        max_batch: INGEST_BATCH,
    }
}

fn main() {
    perf::main::<Ctrl>(SEED, 5, |quick, repeats| {
        let cells = GRID.iter().filter(|c| !quick || c.quick);
        cells.map(|cell| run_cell(cell, repeats)).collect()
    });
}
