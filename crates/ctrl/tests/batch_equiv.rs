//! Batch-size invariance of `ControlLoop::replay_batched`, the one
//! stream entry point, for **any** byte stream, chunking, and batch size:
//!
//! * on valid UTF-8 it is indistinguishable from the line-at-a-time
//!   oracle below (`BufRead::lines`, blank lines skipped, `observe_line`)
//!   — bit-identical decision logs (the same bytes `--log-out` writes),
//!   identical `ReplaySummary`, allocations, and `ctrl.*` metrics
//!   (modulo the `ctrl.ingest_*` path counters, which only the batched
//!   path emits);
//! * on invalid UTF-8, where `BufRead::lines` would fail the whole
//!   stream, every chunking and batch size gives the same state as
//!   batch size 1, the replay succeeds, and each invalid line is one
//!   `InvalidUtf8` rejection;
//! * and it never panics, even on arbitrary bytes chopped mid-line and
//!   mid-UTF-8-sequence.

use std::io::{BufRead, BufReader, Read};

use proptest::prelude::*;

use rod_core::cluster::Cluster;
use rod_core::examples_paper::figure4_graph;
use rod_ctrl::{ControlConfig, ControlLoop, Decision, RejectReason};
use rod_sim::TraceRecord;

/// A reader that hands out at most `chunk` bytes per `read` call, so
/// lines land split across buffer boundaries at every offset.
struct ChunkReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl<'a> ChunkReader<'a> {
    fn new(bytes: &'a [u8], chunk: usize) -> ChunkReader<'a> {
        ChunkReader {
            bytes,
            pos: 0,
            chunk: chunk.max(1),
        }
    }
}

impl Read for ChunkReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn make_loop() -> ControlLoop {
    rod_ctrl::bootstrap(
        &figure4_graph(),
        Cluster::homogeneous(2, 1.0),
        ControlConfig::default(),
    )
    .unwrap()
}

/// Every observable two replays must agree on, rendered to strings so
/// a mismatch prints both sides. `ctrl.ingest_*` counters are excluded:
/// they describe the fast-path/fallback split itself.
fn observables(loop_: &ControlLoop) -> (String, String, String, String) {
    let summary = serde_json::to_string(&loop_.summary()).unwrap();
    let log = loop_.decision_log_jsonl();
    let plans = format!("{:?} {:?}", loop_.current(), loop_.last_good());
    let snap = loop_.metrics().snapshot();
    let mut metrics = String::new();
    for c in &snap.counters {
        if c.name.starts_with("ctrl.ingest_") {
            continue;
        }
        metrics.push_str(&format!("{} {}\n", c.name, c.value));
    }
    for g in &snap.gauges {
        metrics.push_str(&format!("{} {}\n", g.name, g.value.to_bits()));
    }
    (summary, log, plans, metrics)
}

/// The line-at-a-time oracle. `BufRead::lines` fails on the first line
/// that is not valid UTF-8, so it only judges valid streams.
fn replay_lines(loop_: &mut ControlLoop, stream: &[u8]) {
    for line in BufReader::new(stream).lines() {
        let line = line.expect("the oracle judges valid UTF-8 only");
        if !line.trim().is_empty() {
            loop_.observe_line(&line);
        }
    }
}

/// Lines of `stream` that are not valid UTF-8 (such a line is never
/// blank), split as `BufRead::lines` splits.
fn invalid_utf8_lines(stream: &[u8]) -> u64 {
    let mut lines: Vec<&[u8]> = stream.split(|&b| b == b'\n').collect();
    if lines.last().is_some_and(|last| last.is_empty()) {
        lines.pop();
    }
    lines
        .iter()
        .filter(|line| std::str::from_utf8(line).is_err())
        .count() as u64
}

/// Replays `stream` in `chunk`-byte reads at batch size `max_batch` and
/// asserts it matches the reference: the line oracle on valid UTF-8,
/// batch size 1 on anything else.
fn assert_equivalent(stream: &[u8], chunk: usize, max_batch: usize) {
    let mut batch_loop = make_loop();
    batch_loop
        .replay_batched(ChunkReader::new(stream, chunk), max_batch)
        .expect("an in-memory replay never fails");
    let mut reference = make_loop();
    if std::str::from_utf8(stream).is_ok() {
        replay_lines(&mut reference, stream);
    } else {
        reference.replay_batched(stream, 1).unwrap();
        let invalid = invalid_utf8_lines(stream);
        let rejected = batch_loop
            .decisions()
            .iter()
            .filter(|d| {
                matches!(
                    d,
                    Decision::SampleRejected {
                        reason: RejectReason::InvalidUtf8,
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(rejected, invalid, "InvalidUtf8 decisions");
        assert_eq!(
            batch_loop
                .metrics()
                .counter("ctrl.samples_rejected.invalid_utf8"),
            invalid
        );
    }
    let want = observables(&reference);
    let got = observables(&batch_loop);
    assert_eq!(
        want.0, got.0,
        "summaries differ (chunk {chunk}, batch {max_batch})"
    );
    assert_eq!(
        want.1, got.1,
        "decision logs differ (chunk {chunk}, batch {max_batch})"
    );
    assert_eq!(want.2, got.2, "allocations differ");
    assert_eq!(want.3, got.3, "metrics differ");
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

/// One stream line from proptest draws: clean samples in emitted and
/// hand-spaced form, every rejection class, non-sample records, blanks
/// (ASCII and Unicode), and junk with multi-byte characters.
fn hostile_line(index: usize, kind: u8, rate_draw: u8) -> String {
    let time = index as f64 + 1.0;
    let rate = 0.01 + (rate_draw as f64 / 255.0) * 0.11;
    match kind % 14 {
        // Clean emitted-form samples (the fast path) — half the stream.
        0..=5 => sample_line(time, &[0.4, 0.5], &[rate, rate]),
        // Clean but whitespace-padded (fast path, tolerant grammar).
        6 => format!(
            " {{ \"UtilSample\" : {{ \"time\" : {time} , \"utilisations\" : [0.4, 0.5] , \
             \"queue_depths\" : [0, 0] , \"queued\" : 0 , \"rates\" : [{rate}, {rate}] }} }} "
        ),
        // Clean but outside the strict grammar (fallback, still accepted):
        // reordered fields.
        7 => format!(
            "{{\"UtilSample\":{{\"rates\":[{rate},{rate}],\"time\":{time},\
             \"utilisations\":[0.4],\"queue_depths\":[0],\"queued\":0}}}}"
        ),
        // Malformed JSON with a multi-byte character.
        8 => format!("{{corrupt línea {index}"),
        // Negative rate (rejected after full decode).
        9 => format!(
            "{{\"UtilSample\":{{\"time\":{time},\"utilisations\":[0.4,0.5],\
             \"queue_depths\":[0,0],\"queued\":0,\"rates\":[-5.0,{rate}]}}}}"
        ),
        // NaN rate arrives as JSON null (vendored serde: null => NaN).
        10 => format!(
            "{{\"UtilSample\":{{\"time\":{time},\"utilisations\":[0.4,0.5],\
             \"queue_depths\":[0,0],\"queued\":0,\"rates\":[null,{rate}]}}}}"
        ),
        // Stale timestamp in strict form (fast path, rejected downstream).
        11 => sample_line(0.25, &[0.4, 0.5], &[rate, rate]),
        // Wrong arity in strict form (fast path, rejected downstream).
        12 => sample_line(time, &[0.4, 0.5], &[rate]),
        // Blank-ish lines: ASCII blank, Unicode blank, or a non-sample
        // record (all skipped or passed through).
        _ => match index % 3 {
            0 => "   \t ".to_string(),
            1 => "\u{00a0}\u{2003}".to_string(),
            _ => "{\"RunEnd\":{\"time\":9.9}}".to_string(),
        },
    }
}

#[test]
fn fixture_replay_is_equivalent_at_many_batch_sizes() {
    let stream = std::fs::read(
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/surge.jsonl"),
    )
    .unwrap();
    for max_batch in [1, 2, 3, 7, 256, 4096] {
        for chunk in [1, 17, 64 * 1024] {
            assert_equivalent(&stream, chunk, max_batch);
        }
    }
}

#[test]
fn edge_streams_are_equivalent() {
    let cases: &[&[u8]] = &[
        b"",
        b"\n",
        b"\r\n",
        b"\r",
        b"   \n\t\n",
        // No trailing newline on the final sample.
        b"{\"UtilSample\":{\"time\":1.0,\"utilisations\":[0.4,0.5],\
          \"queue_depths\":[0,0],\"queued\":0,\"rates\":[0.05,0.05]}}",
        // CRLF endings on strict-form samples.
        b"{\"UtilSample\":{\"time\":1.0,\"utilisations\":[0.4,0.5],\
          \"queue_depths\":[0,0],\"queued\":0,\"rates\":[0.05,0.05]}}\r\n\
          {\"UtilSample\":{\"time\":2.0,\"utilisations\":[0.4,0.5],\
          \"queue_depths\":[0,0],\"queued\":0,\"rates\":[0.06,0.05]}}\r\n",
        // A lone CR inside a line is content, not a boundary.
        b"{\"RunEnd\"\r:{\"time\":1.0}}\n",
        // Invalid UTF-8 mid-stream: one rejection, and the samples on
        // both sides of it are accepted.
        b"{\"UtilSample\":{\"time\":1.0,\"utilisations\":[0.4,0.5],\
          \"queue_depths\":[0,0],\"queued\":0,\"rates\":[0.05,0.05]}}\n\
          \xff\xfe garbage\n\
          {\"UtilSample\":{\"time\":2.0,\"utilisations\":[0.4,0.5],\
          \"queue_depths\":[0,0],\"queued\":0,\"rates\":[0.06,0.05]}}\n",
        // Invalid UTF-8 on the final unterminated line.
        b"{\"RunEnd\":{\"time\":1.0}}\n\xc3",
    ];
    for stream in cases {
        for max_batch in [1, 3, 4096] {
            for chunk in [1, 2, 7, 4096] {
                assert_equivalent(stream, chunk, max_batch);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hostile-but-structured streams: every line class the ingest layer
    /// distinguishes, random chunking (down to 1 byte, so every line is
    /// split mid-UTF-8 somewhere), random batch sizes up to 4096, with
    /// and without a trailing newline.
    #[test]
    fn hostile_streams_ingest_identically(
        draws in prop::collection::vec((0u8..=255, 0u8..=255), 0..60),
        chunk in 1usize..300,
        max_batch in 1usize..=4096,
        trailing_newline in 0u8..2,
    ) {
        let trailing_newline = trailing_newline == 1;
        let mut stream = String::new();
        for (i, &(kind, rate)) in draws.iter().enumerate() {
            stream.push_str(&hostile_line(i, kind, rate));
            stream.push('\n');
        }
        if !trailing_newline {
            stream.pop();
        }
        assert_equivalent(stream.as_bytes(), chunk, max_batch);
    }

    /// Arbitrary bytes — including invalid UTF-8 — never panic, always
    /// replay to completion, and leave the same state at every chunking
    /// and batch size.
    #[test]
    fn arbitrary_bytes_never_panic_and_stay_equivalent(
        bytes in prop::collection::vec(0u8..=255, 0..400),
        chunk in 1usize..64,
        max_batch in 1usize..=64,
    ) {
        assert_equivalent(&bytes, chunk, max_batch);
    }
}
