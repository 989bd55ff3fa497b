//! Tolerant telemetry ingestion.
//!
//! The control loop reads `UtilSample` records from a JSONL telemetry
//! stream that it does not trust: lines may be truncated, fields may be
//! NaN or negative, timestamps may arrive out of order, and samples may
//! describe nodes the controller has never heard of. The ingestion layer
//! **never panics and never silently drops**: every line is either
//! accepted into the bounded per-stream history, or rejected with a
//! specific [`RejectReason`] that the caller counts into the decision log
//! and the `ctrl.samples_rejected` metric.
//!
//! Accepted samples feed two estimators per input stream — an EWMA (fast,
//! smooth) and a bounded-window mean (robust to single spikes) — whose
//! elementwise **maximum** is the planning estimate: when the two
//! disagree the controller plans for the larger rate, which errs on the
//! side of keeping headroom.

use serde::{Deserialize, Serialize};

use rod_sim::replay::parse_line;
use rod_sim::TraceRecord;

/// Why a telemetry line or sample was rejected.
///
/// The classes are deliberately coarse enough to aggregate into counters
/// but fine enough that an operator can tell a corrupt pipe
/// ([`MalformedLine`](RejectReason::MalformedLine)) from a buggy reporter
/// ([`NegativeRate`](RejectReason::NegativeRate)) from a topology
/// mismatch ([`UnknownNode`](RejectReason::UnknownNode)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RejectReason {
    /// The line is not valid JSON for any `TraceRecord`.
    MalformedLine,
    /// The sample's timestamp is NaN, infinite, or negative.
    BadTimestamp,
    /// The sample is older than (or equal to) the last accepted one.
    StaleTimestamp,
    /// The rate vector length does not match the planner's input count.
    WrongArity,
    /// A rate is NaN or infinite.
    NonFiniteRate,
    /// A rate is negative.
    NegativeRate,
    /// A utilisation is NaN, infinite, or negative.
    BadUtilisation,
    /// The sample reports more nodes than the cluster has.
    UnknownNode,
    /// The line is not valid UTF-8.
    InvalidUtf8,
}

impl RejectReason {
    /// Stable metric-label spelling (`ctrl.samples_rejected.<label>`).
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::MalformedLine => "malformed_line",
            RejectReason::BadTimestamp => "bad_timestamp",
            RejectReason::StaleTimestamp => "stale_timestamp",
            RejectReason::WrongArity => "wrong_arity",
            RejectReason::NonFiniteRate => "non_finite_rate",
            RejectReason::NegativeRate => "negative_rate",
            RejectReason::BadUtilisation => "bad_utilisation",
            RejectReason::UnknownNode => "unknown_node",
            RejectReason::InvalidUtf8 => "invalid_utf8",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Ingestion parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Number of input streams the planner models (expected rate arity).
    pub num_inputs: usize,
    /// Number of cluster nodes (utilisation vectors longer than this name
    /// unknown nodes; shorter ones are tolerated — nodes may be down).
    pub num_nodes: usize,
    /// Bounded history length per stream (ring buffer capacity).
    pub window: usize,
    /// EWMA smoothing factor in (0, 1]; 1 = no smoothing.
    pub ewma_alpha: f64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            num_inputs: 0,
            num_nodes: 0,
            window: 8,
            ewma_alpha: 0.3,
        }
    }
}

impl TelemetryConfig {
    /// Rejects degenerate shapes with a specific error: a zero window
    /// would construct an estimator with no history, zero inputs an
    /// estimator that can never produce a planning estimate, and a
    /// smoothing factor outside `[0, 1]` (or NaN) an EWMA that
    /// extrapolates instead of averaging. [`crate::ControlLoop`] calls
    /// this at construction; [`TelemetryIngest::new`] stays permissive
    /// for historical callers (it clamps the ring capacity itself).
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("telemetry window must be at least 1 sample".into());
        }
        if self.num_inputs == 0 {
            return Err("telemetry must model at least one input stream".into());
        }
        if !(0.0..=1.0).contains(&self.ewma_alpha) {
            return Err(format!("ewma_alpha {} is outside [0, 1]", self.ewma_alpha));
        }
        Ok(())
    }
}

/// A fixed-capacity ring of recent values.
#[derive(Clone, Debug)]
struct Ring {
    buf: Vec<f64>,
    head: usize,
    cap: usize,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            buf: Vec::with_capacity(cap.max(1)),
            head: 0,
            cap: cap.max(1),
        }
    }

    fn push(&mut self, x: f64) {
        if self.buf.len() < self.cap {
            self.buf.push(x);
        } else {
            self.buf[self.head] = x;
            self.head = (self.head + 1) % self.cap;
        }
    }

    fn mean(&self) -> Option<f64> {
        if self.buf.is_empty() {
            return None;
        }
        Some(self.buf.iter().sum::<f64>() / self.buf.len() as f64)
    }
}

/// A decoded chunk of `UtilSample` records, stored structure-of-arrays
/// so a batch of same-shaped samples lives in three flat `f64` runs
/// plus an offset table — no per-record allocation, and the buffers are
/// reused across batches via [`clear`](SampleBatch::clear).
///
/// Filled by the batched ingestion path from
/// [`rod_sim::replay::scan::UtilScratch`] records the zero-copy probe
/// decoded; drained in one call by [`TelemetryIngest::ingest_batch`].
#[derive(Clone, Debug, Default)]
pub struct SampleBatch {
    times: Vec<f64>,
    utilisations: Vec<f64>,
    rates: Vec<f64>,
    /// Per-record `(utilisations, rates)` end offsets into the flat
    /// value runs; record `i` spans `ends[i-1]..ends[i]`.
    util_ends: Vec<usize>,
    rate_ends: Vec<usize>,
}

impl SampleBatch {
    /// An empty batch.
    pub fn new() -> SampleBatch {
        SampleBatch::default()
    }

    /// Appends one decoded sample.
    pub fn push(&mut self, time: f64, utilisations: &[f64], rates: &[f64]) {
        self.times.push(time);
        self.utilisations.extend_from_slice(utilisations);
        self.rates.extend_from_slice(rates);
        self.util_ends.push(self.utilisations.len());
        self.rate_ends.push(self.rates.len());
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no records are pending.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Record `i` as `(time, utilisations, rates)`.
    pub fn get(&self, i: usize) -> (f64, &[f64], &[f64]) {
        let u0 = if i == 0 { 0 } else { self.util_ends[i - 1] };
        let r0 = if i == 0 { 0 } else { self.rate_ends[i - 1] };
        (
            self.times[i],
            &self.utilisations[u0..self.util_ends[i]],
            &self.rates[r0..self.rate_ends[i]],
        )
    }

    /// Empties the batch, keeping every buffer's capacity.
    pub fn clear(&mut self) {
        self.times.clear();
        self.utilisations.clear();
        self.rates.clear();
        self.util_ends.clear();
        self.rate_ends.clear();
    }
}

/// What happened to one ingested line.
#[derive(Clone, Debug, PartialEq)]
pub enum Ingested {
    /// A `UtilSample` passed validation; its timestamp is returned.
    Sample {
        /// Telemetry time of the accepted sample.
        time: f64,
    },
    /// A valid non-sample record (migration, shed, …) — not telemetry;
    /// ignored without prejudice.
    Other,
    /// The line or sample was rejected for this reason.
    Rejected(RejectReason),
}

/// Tolerant, bounded-memory telemetry accumulator.
#[derive(Clone, Debug)]
pub struct TelemetryIngest {
    cfg: TelemetryConfig,
    last_time: Option<f64>,
    ewma: Vec<Option<f64>>,
    windows: Vec<Ring>,
    last_utilisations: Vec<f64>,
    accepted: u64,
    rejected: Vec<(RejectReason, u64)>,
}

impl TelemetryIngest {
    /// An empty accumulator for the given shape.
    pub fn new(cfg: TelemetryConfig) -> TelemetryIngest {
        let windows = (0..cfg.num_inputs).map(|_| Ring::new(cfg.window)).collect();
        let ewma = vec![None; cfg.num_inputs];
        TelemetryIngest {
            cfg,
            ewma,
            windows,
            last_utilisations: Vec::new(),
            last_time: None,
            accepted: 0,
            rejected: Vec::new(),
        }
    }

    /// Ingests one raw JSONL line. Never panics: hostile input comes back
    /// as [`Ingested::Rejected`].
    pub fn ingest_line(&mut self, line: &str) -> Ingested {
        let record = match parse_line(line) {
            Ok(record) => record,
            Err(_) => return self.reject(RejectReason::MalformedLine),
        };
        match record {
            TraceRecord::UtilSample {
                time,
                utilisations,
                rates,
                ..
            } => self.ingest_sample(time, &utilisations, &rates),
            _ => Ingested::Other,
        }
    }

    /// Ingests one already-parsed sample.
    pub fn ingest_sample(&mut self, time: f64, utilisations: &[f64], rates: &[f64]) -> Ingested {
        if !time.is_finite() || time < 0.0 {
            return self.reject(RejectReason::BadTimestamp);
        }
        if let Some(last) = self.last_time {
            if time <= last {
                return self.reject(RejectReason::StaleTimestamp);
            }
        }
        if rates.len() != self.cfg.num_inputs {
            return self.reject(RejectReason::WrongArity);
        }
        if utilisations.len() > self.cfg.num_nodes {
            return self.reject(RejectReason::UnknownNode);
        }
        for &r in rates {
            if !r.is_finite() {
                return self.reject(RejectReason::NonFiniteRate);
            }
            if r < 0.0 {
                return self.reject(RejectReason::NegativeRate);
            }
        }
        for &u in utilisations {
            if !u.is_finite() || u < 0.0 {
                return self.reject(RejectReason::BadUtilisation);
            }
        }
        // Committed: update every estimator.
        self.last_time = Some(time);
        let alpha = self.cfg.ewma_alpha;
        for (k, &r) in rates.iter().enumerate() {
            self.windows[k].push(r);
            self.ewma[k] = Some(match self.ewma[k] {
                None => r,
                Some(prev) => alpha * r + (1.0 - alpha) * prev,
            });
        }
        self.last_utilisations.clear();
        self.last_utilisations.extend_from_slice(utilisations);
        self.accepted += 1;
        Ingested::Sample { time }
    }

    /// Ingests a decoded chunk of samples in one call, invoking
    /// `on_outcome` once per record, in order, with the accumulator's
    /// state *after* that record — so callers can read
    /// [`estimate`](TelemetryIngest::estimate) per accepted sample
    /// exactly as the line-at-a-time path does.
    ///
    /// **Equivalence contract:** each record flows through the very same
    /// [`ingest_sample`](TelemetryIngest::ingest_sample) routine the
    /// line path uses, so the estimator state, `Ingested` outcomes, and
    /// rejection counters after a batch are bit-identical to ingesting
    /// the records one call at a time — the batching amortises per-line
    /// parsing, allocation, and call dispatch, never the per-sample
    /// arithmetic. Proptests in `tests/batch_equiv.rs` pin this.
    pub fn ingest_batch(
        &mut self,
        batch: &SampleBatch,
        mut on_outcome: impl FnMut(&TelemetryIngest, Ingested),
    ) {
        for i in 0..batch.len() {
            let (time, utilisations, rates) = batch.get(i);
            let outcome = self.ingest_sample(time, utilisations, rates);
            on_outcome(&*self, outcome);
        }
    }

    /// Counts one rejection. The control loop calls this directly for a
    /// line it cannot hand to [`ingest_line`](TelemetryIngest::ingest_line)
    /// because it is not valid UTF-8.
    pub(crate) fn reject(&mut self, reason: RejectReason) -> Ingested {
        match self.rejected.iter_mut().find(|(r, _)| *r == reason) {
            Some((_, n)) => *n += 1,
            None => self.rejected.push((reason, 1)),
        }
        Ingested::Rejected(reason)
    }

    /// The conservative planning estimate: elementwise max of the EWMA
    /// and the bounded-window mean. `None` until the first sample lands.
    pub fn estimate(&self) -> Option<Vec<f64>> {
        if self.accepted == 0 {
            return None;
        }
        Some(
            (0..self.cfg.num_inputs)
                .map(|k| {
                    let ewma = self.ewma[k].unwrap_or(0.0);
                    let mean = self.windows[k].mean().unwrap_or(0.0);
                    ewma.max(mean)
                })
                .collect(),
        )
    }

    /// The most recent accepted utilisation vector (may be shorter than
    /// the cluster when nodes are down; empty before the first sample).
    pub fn last_utilisations(&self) -> &[f64] {
        &self.last_utilisations
    }

    /// Timestamp of the newest accepted sample.
    pub fn last_time(&self) -> Option<f64> {
        self.last_time
    }

    /// Number of accepted samples.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Per-reason rejection counts, in first-seen order.
    pub fn rejections(&self) -> &[(RejectReason, u64)] {
        &self.rejected
    }

    /// Total rejected lines/samples.
    pub fn total_rejected(&self) -> u64 {
        self.rejected.iter().map(|(_, n)| n).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ingest(num_inputs: usize) -> TelemetryIngest {
        TelemetryIngest::new(TelemetryConfig {
            num_inputs,
            num_nodes: 2,
            window: 4,
            ewma_alpha: 0.5,
        })
    }

    #[test]
    fn accepts_clean_samples_and_estimates() {
        let mut t = ingest(2);
        assert_eq!(t.estimate(), None);
        for (i, r) in [[10.0, 1.0], [20.0, 1.0], [30.0, 1.0]].iter().enumerate() {
            assert_eq!(
                t.ingest_sample(i as f64, &[0.5, 0.6], r),
                Ingested::Sample { time: i as f64 }
            );
        }
        let est = t.estimate().unwrap();
        // Window mean 20 exceeds the EWMA (22.5 > 20 actually):
        // ewma = 0.5*30 + 0.5*(0.5*20 + 0.5*10) = 22.5; max(22.5, 20).
        assert!((est[0] - 22.5).abs() < 1e-9, "{est:?}");
        assert_eq!(t.accepted(), 3);
        assert_eq!(t.total_rejected(), 0);
    }

    #[test]
    fn rejects_each_hostile_class() {
        let mut t = ingest(2);
        t.ingest_sample(1.0, &[0.1], &[1.0, 2.0]); // seed a last_time
        let cases: Vec<(Ingested, RejectReason)> = vec![
            (
                t.ingest_sample(f64::NAN, &[], &[1.0, 2.0]),
                RejectReason::BadTimestamp,
            ),
            (
                t.ingest_sample(-1.0, &[], &[1.0, 2.0]),
                RejectReason::BadTimestamp,
            ),
            (
                t.ingest_sample(0.5, &[], &[1.0, 2.0]),
                RejectReason::StaleTimestamp,
            ),
            (t.ingest_sample(2.0, &[], &[1.0]), RejectReason::WrongArity),
            (
                t.ingest_sample(2.0, &[0.1; 3], &[1.0, 2.0]),
                RejectReason::UnknownNode,
            ),
            (
                t.ingest_sample(2.0, &[], &[f64::INFINITY, 2.0]),
                RejectReason::NonFiniteRate,
            ),
            (
                t.ingest_sample(2.0, &[], &[-3.0, 2.0]),
                RejectReason::NegativeRate,
            ),
            (
                t.ingest_sample(2.0, &[f64::NAN], &[1.0, 2.0]),
                RejectReason::BadUtilisation,
            ),
        ];
        for (got, want) in cases {
            assert_eq!(got, Ingested::Rejected(want));
        }
        assert_eq!(t.accepted(), 1);
        assert_eq!(t.total_rejected(), 8);
        // A rejected sample must not move the estimators.
        assert_eq!(t.estimate().unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let mut t = ingest(1);
        assert_eq!(
            t.ingest_line("{ not json"),
            Ingested::Rejected(RejectReason::MalformedLine)
        );
        assert_eq!(
            t.ingest_line("{\"kind\":\"who-knows\"}"),
            Ingested::Rejected(RejectReason::MalformedLine)
        );
        assert_eq!(
            t.rejections(),
            &[(RejectReason::MalformedLine, 2)],
            "both hostile lines classified"
        );
    }

    #[test]
    fn ring_buffer_is_bounded() {
        let mut t = ingest(1);
        for i in 0..100 {
            t.ingest_sample(i as f64, &[], &[i as f64]);
        }
        // Window of 4 → mean of the last four values 96..=99.
        let mean = t.windows[0].mean().unwrap();
        assert!((mean - 97.5).abs() < 1e-9, "window mean {mean}");
        assert_eq!(t.windows[0].buf.len(), 4);
    }

    #[test]
    fn validate_rejects_each_degenerate_shape() {
        let ok = TelemetryConfig {
            num_inputs: 2,
            num_nodes: 2,
            window: 4,
            ewma_alpha: 0.5,
        };
        assert_eq!(ok.validate(), Ok(()));
        let zero_window = TelemetryConfig {
            window: 0,
            ..ok.clone()
        };
        assert!(zero_window.validate().unwrap_err().contains("window"));
        let zero_inputs = TelemetryConfig {
            num_inputs: 0,
            ..ok.clone()
        };
        assert!(zero_inputs.validate().unwrap_err().contains("input"));
        for alpha in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let bad = TelemetryConfig {
                ewma_alpha: alpha,
                ..ok.clone()
            };
            assert!(
                bad.validate().unwrap_err().contains("ewma_alpha"),
                "alpha {alpha} must be rejected"
            );
        }
        // Boundary values are allowed.
        for alpha in [0.0, 1.0] {
            let edge = TelemetryConfig {
                ewma_alpha: alpha,
                ..ok.clone()
            };
            assert_eq!(edge.validate(), Ok(()));
        }
    }

    #[test]
    fn sample_batch_round_trips_records() {
        let mut b = SampleBatch::new();
        assert!(b.is_empty());
        b.push(1.0, &[0.5, 0.6], &[10.0]);
        b.push(2.0, &[], &[20.0, 30.0]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(0), (1.0, &[0.5, 0.6][..], &[10.0][..]));
        assert_eq!(b.get(1), (2.0, &[][..], &[20.0, 30.0][..]));
        b.clear();
        assert!(b.is_empty());
        b.push(3.0, &[0.1], &[1.0]);
        assert_eq!(b.get(0), (3.0, &[0.1][..], &[1.0][..]));
    }

    #[test]
    fn ingest_batch_is_bit_identical_to_sequential_ingest() {
        // A mix of accepts and every rejection class.
        let records: Vec<(f64, Vec<f64>, Vec<f64>)> = vec![
            (1.0, vec![0.5, 0.6], vec![10.0, 1.0]),
            (0.5, vec![], vec![1.0, 1.0]),         // stale
            (2.0, vec![], vec![1.0]),              // arity
            (2.0, vec![0.1; 3], vec![1.0, 1.0]),   // unknown node
            (2.0, vec![], vec![f64::NAN, 1.0]),    // non-finite
            (2.0, vec![], vec![-1.0, 1.0]),        // negative
            (2.0, vec![f64::NAN], vec![1.0, 1.0]), // bad utilisation
            (f64::NAN, vec![], vec![1.0, 1.0]),    // bad timestamp
            (3.0, vec![0.7], vec![20.0, 2.0]),
        ];
        let mut line = ingest(2);
        let mut expected = Vec::new();
        for (t, u, r) in &records {
            expected.push(line.ingest_sample(*t, u, r));
        }
        let mut batch = SampleBatch::new();
        for (t, u, r) in &records {
            batch.push(*t, u, r);
        }
        let mut batched = ingest(2);
        let mut outcomes = Vec::new();
        let mut mid_estimates = Vec::new();
        batched.ingest_batch(&batch, |ing, out| {
            mid_estimates.push(ing.estimate());
            outcomes.push(out);
        });
        assert_eq!(outcomes, expected);
        assert_eq!(batched.accepted(), line.accepted());
        assert_eq!(batched.rejections(), line.rejections());
        assert_eq!(batched.last_time(), line.last_time());
        assert_eq!(batched.last_utilisations(), line.last_utilisations());
        let (a, b) = (batched.estimate().unwrap(), line.estimate().unwrap());
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // The callback observed post-record state (first accept shows an
        // estimate immediately).
        assert!(mid_estimates[0].is_some());
    }

    #[test]
    fn non_sample_records_pass_through() {
        let mut t = ingest(1);
        let line = r#"{"Shed":{"time":1.0,"input":0,"dropped":5}}"#;
        // Whatever the exact wire spelling, an unparseable variant is
        // Rejected and a parseable non-sample is Other; neither panics.
        let out = t.ingest_line(line);
        assert!(matches!(
            out,
            Ingested::Other | Ingested::Rejected(RejectReason::MalformedLine)
        ));
    }
}
