//! Structured event tracing for the simulator.
//!
//! The engine's aggregate [`crate::SimReport`] answers *"how did the run
//! end?"*; this module answers *"what happened, and when?"*. Every
//! event-loop transition of interest — tuple arrivals and sheds, periodic
//! utilisation/queue-depth samples, migrations, outages, failovers, and
//! recovery completions — is offered to a pluggable [`TraceSink`] as a
//! [`TraceRecord`].
//!
//! Determinism contract: record content carries **simulation time only**,
//! never wall-clock, and the engine emits records in event order — so a
//! fixed-seed run produces a byte-identical JSONL trace every time, and
//! traces can be diffed or replayed in tests.
//!
//! Cost contract: the engine asks [`TraceSink::enabled`] before building
//! a record, and [`NullSink`] answers with a compile-time `false` — after
//! monomorphisation the untraced engine contains no record construction
//! at all. Loopbench's `pipeline_1m` times the same run with and without
//! a sink (`sim.plain_run_tuples_per_s` vs `sim.sink_run_tuples_per_s`).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

/// One structured trace event. Serialises to a single self-describing
/// JSON object per record (`{"UtilSample":{...}}`), with field order
/// fixed by declaration order — the basis of the byte-identical golden
/// tests.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceRecord {
    /// Run parameters, emitted once before the first event.
    RunStart {
        /// Total simulated time.
        horizon: f64,
        /// Measurement-window start.
        warmup: f64,
        /// RNG seed of the run.
        seed: u64,
        /// Cluster size.
        nodes: usize,
        /// Operators in the query network.
        operators: usize,
    },
    /// A tuple entered the system on a source stream.
    SourceArrival {
        /// Simulation time of the arrival.
        time: f64,
        /// Source stream index.
        stream: usize,
    },
    /// A tuple left the query network at a sink stream.
    SinkDeparture {
        /// Simulation time of the departure.
        time: f64,
        /// Sink stream index.
        stream: usize,
        /// End-to-end latency (departure minus birth of its ancestor).
        latency: f64,
    },
    /// A tuple was dropped by load shedding.
    Shed {
        /// Simulation time of the drop.
        time: f64,
        /// Operator whose input was shed.
        op: usize,
        /// True when a node was down or a failover was in flight — the
        /// shed is attributed to the recovery window.
        in_recovery: bool,
    },
    /// Periodic utilisation / queue-depth sample (emitted on the
    /// [`crate::SimulationConfig::sample_interval`] tick). This is the
    /// wire format `rodctl daemon` ingests, so construct it via
    /// [`TraceRecord::util_sample`], which rejects hostile values
    /// (non-finite or negative rates/utilisations) with a specific
    /// [`SampleError`] instead of letting them onto the wire.
    UtilSample {
        /// Simulation time of the sample.
        time: f64,
        /// Per-node utilisation over the elapsed sampling window.
        utilisations: Vec<f64>,
        /// Per-node queued work-item counts at the instant.
        queue_depths: Vec<usize>,
        /// Total work items queued across the system (includes buffers
        /// of migrating operators).
        queued: usize,
        /// Observed per-input-stream arrival rates (tuples/second) over
        /// the elapsed sampling window — the rate point a replanner
        /// compares against the feasible-set boundary.
        rates: Vec<f64>,
    },
    /// A chaos-injected migration step failed and will be retried after
    /// a deterministic backoff.
    MigrationRetry {
        /// Simulation time of the failed attempt.
        time: f64,
        /// The operator whose transfer failed.
        op: usize,
        /// The destination it was moving to.
        dest: usize,
        /// 1-based attempt number that just failed.
        attempt: u32,
        /// Seconds until the next attempt.
        backoff: f64,
    },
    /// A migration exhausted its chaos retry budget and was rolled back:
    /// the operator resumed on its origin node.
    MigrationAborted {
        /// Simulation time of the rollback.
        time: f64,
        /// The operator that failed to move.
        op: usize,
        /// The node it stayed on.
        from: usize,
        /// The destination it never reached.
        to: usize,
        /// Attempts spent before giving up.
        attempts: u32,
    },
    /// An operator froze and began transferring to another node.
    MigrationStart {
        /// Simulation time the transfer began.
        time: f64,
        /// The migrating operator.
        op: usize,
        /// Node it is leaving.
        from: usize,
        /// Node it is moving to.
        to: usize,
        /// Downtime this transfer will pay (base + per-item term).
        downtime: f64,
        /// True for a table-driven failover move, false for a dynamic
        /// load-manager move.
        failover: bool,
    },
    /// A migrating operator resumed on its destination node.
    MigrationEnd {
        /// Simulation time of resumption.
        time: f64,
        /// The operator that finished moving.
        op: usize,
        /// Its new host.
        dest: usize,
    },
    /// An injected fail-stop outage began.
    OutageStart {
        /// Simulation time the node went down.
        time: f64,
        /// The failed node.
        node: usize,
    },
    /// An injected outage ended; the node resumes draining its queue.
    OutageEnd {
        /// Simulation time the node returned.
        time: f64,
        /// The recovering node.
        node: usize,
    },
    /// The failure monitor noticed a down node and began failover.
    FailureDetected {
        /// Simulation time of detection (outage start + delay).
        time: f64,
        /// The node detected as failed.
        node: usize,
        /// Operators found orphaned on it (still hosted there and not
        /// already mid-migration).
        orphans: usize,
    },
    /// The last orphan of a failed node resumed on its backup.
    RecoveryComplete {
        /// Simulation time recovery finished.
        time: f64,
        /// The recovered (failed) node.
        node: usize,
        /// Operators moved off it.
        moved: usize,
        /// Outage start to full recovery, in seconds.
        latency: f64,
    },
    /// Run totals, emitted once after the last event.
    RunEnd {
        /// Simulation time the run stopped (horizon, or earlier when
        /// saturated).
        time: f64,
        /// Tuples injected by sources.
        tuples_in: u64,
        /// Tuples that left at sinks.
        tuples_out: u64,
        /// Service completions.
        tuples_processed: u64,
        /// Tuples dropped by shedding.
        tuples_shed: u64,
        /// True when the run was cut short by the queue safety cap.
        saturated: bool,
    },
}

/// Why a [`TraceRecord::UtilSample`] was rejected at construction.
///
/// Each variant names the offending field and index so hostile values
/// are diagnosable at the producing end — the consuming end (`rod-ctrl`)
/// classifies the same faults independently, so bad telemetry is caught
/// at both ends of the wire.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SampleError {
    /// The sample timestamp is NaN or infinite.
    NonFiniteTime {
        /// The offending value.
        value: f64,
    },
    /// The sample timestamp is negative.
    NegativeTime {
        /// The offending value.
        value: f64,
    },
    /// A per-stream rate is NaN or infinite.
    NonFiniteRate {
        /// Input-stream index of the offending rate.
        stream: usize,
        /// The offending value.
        value: f64,
    },
    /// A per-stream rate is negative.
    NegativeRate {
        /// Input-stream index of the offending rate.
        stream: usize,
        /// The offending value.
        value: f64,
    },
    /// A per-node utilisation is NaN or infinite.
    NonFiniteUtilisation {
        /// Node index of the offending utilisation.
        node: usize,
        /// The offending value.
        value: f64,
    },
    /// A per-node utilisation is negative.
    NegativeUtilisation {
        /// Node index of the offending utilisation.
        node: usize,
        /// The offending value.
        value: f64,
    },
    /// `utilisations` and `queue_depths` disagree on the node count.
    NodeArityMismatch {
        /// Length of `utilisations`.
        utilisations: usize,
        /// Length of `queue_depths`.
        queue_depths: usize,
    },
}

impl std::fmt::Display for SampleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleError::NonFiniteTime { value } => {
                write!(f, "sample time must be finite (got {value})")
            }
            SampleError::NegativeTime { value } => {
                write!(f, "sample time must be non-negative (got {value})")
            }
            SampleError::NonFiniteRate { stream, value } => {
                write!(f, "rate for stream {stream} must be finite (got {value})")
            }
            SampleError::NegativeRate { stream, value } => {
                write!(
                    f,
                    "rate for stream {stream} must be non-negative (got {value})"
                )
            }
            SampleError::NonFiniteUtilisation { node, value } => {
                write!(
                    f,
                    "utilisation for node {node} must be finite (got {value})"
                )
            }
            SampleError::NegativeUtilisation { node, value } => {
                write!(
                    f,
                    "utilisation for node {node} must be non-negative (got {value})"
                )
            }
            SampleError::NodeArityMismatch {
                utilisations,
                queue_depths,
            } => write!(
                f,
                "utilisations ({utilisations}) and queue_depths ({queue_depths}) \
                 disagree on the node count"
            ),
        }
    }
}

impl std::error::Error for SampleError {}

impl TraceRecord {
    /// Validated [`TraceRecord::UtilSample`] construction: rejects
    /// non-finite or negative times, rates, and utilisations, and node
    /// arity mismatches, with the specific [`SampleError`]. The engine
    /// routes every emitted sample through this, so hostile values never
    /// reach the wire from this end.
    pub fn util_sample(
        time: f64,
        utilisations: Vec<f64>,
        queue_depths: Vec<usize>,
        queued: usize,
        rates: Vec<f64>,
    ) -> Result<TraceRecord, SampleError> {
        if !time.is_finite() {
            return Err(SampleError::NonFiniteTime { value: time });
        }
        if time < 0.0 {
            return Err(SampleError::NegativeTime { value: time });
        }
        if utilisations.len() != queue_depths.len() {
            return Err(SampleError::NodeArityMismatch {
                utilisations: utilisations.len(),
                queue_depths: queue_depths.len(),
            });
        }
        for (stream, &value) in rates.iter().enumerate() {
            if !value.is_finite() {
                return Err(SampleError::NonFiniteRate { stream, value });
            }
            if value < 0.0 {
                return Err(SampleError::NegativeRate { stream, value });
            }
        }
        for (node, &value) in utilisations.iter().enumerate() {
            if !value.is_finite() {
                return Err(SampleError::NonFiniteUtilisation { node, value });
            }
            if value < 0.0 {
                return Err(SampleError::NegativeUtilisation { node, value });
            }
        }
        Ok(TraceRecord::UtilSample {
            time,
            utilisations,
            queue_depths,
            queued,
            rates,
        })
    }
}

/// Receiver of engine trace records.
///
/// The engine calls [`enabled`](TraceSink::enabled) before constructing
/// each record, so a disabled sink costs one (monomorphised,
/// constant-foldable) branch per event.
pub trait TraceSink {
    /// True when the sink wants records. Implementations returning a
    /// compile-time constant let the optimiser erase tracing entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// Accepts one record. Only called when [`enabled`](TraceSink::enabled)
    /// returned true.
    fn record(&mut self, record: &TraceRecord);
}

/// The no-op sink: tracing disabled, near-zero overhead.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _record: &TraceRecord) {}
}

/// Collects records in memory — the test and replay sink.
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    /// Every record received, in emission order.
    pub records: Vec<TraceRecord>,
}

impl VecSink {
    /// An empty collecting sink.
    pub fn new() -> Self {
        VecSink::default()
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, record: &TraceRecord) {
        self.records.push(record.clone());
    }
}

/// Streams records as JSON Lines (one compact JSON object per line) to
/// any writer. Construction order and serde's declaration-order field
/// layout make the output deterministic for a fixed-seed run.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    records_written: u64,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            records_written: 0,
        }
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Flushes and returns the inner writer.
    pub fn into_inner(mut self) -> W {
        self.writer.flush().expect("flush trace sink");
        self.writer
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, record: &TraceRecord) {
        let line = serde_json::to_string(record).expect("trace record serialises");
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .expect("write trace record");
        self.records_written += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        let sink = NullSink;
        assert!(!sink.enabled());
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut sink = VecSink::new();
        assert!(sink.enabled());
        sink.record(&TraceRecord::OutageStart { time: 1.0, node: 0 });
        sink.record(&TraceRecord::OutageEnd { time: 2.0, node: 0 });
        assert_eq!(sink.records.len(), 2);
        assert!(matches!(
            sink.records[0],
            TraceRecord::OutageStart { node: 0, .. }
        ));
    }

    #[test]
    fn jsonl_sink_emits_one_line_per_record() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&TraceRecord::SourceArrival {
            time: 0.5,
            stream: 2,
        });
        sink.record(&TraceRecord::Shed {
            time: 1.5,
            op: 3,
            in_recovery: false,
        });
        assert_eq!(sink.records_written(), 2);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            serde_json::parse_value(line).expect("each line is valid JSON");
        }
        assert!(lines[0].contains("SourceArrival"));
    }

    #[test]
    fn util_sample_accepts_clean_values() {
        let record =
            TraceRecord::util_sample(1.0, vec![0.2, 0.9], vec![3, 0], 3, vec![50.0, 0.0]).unwrap();
        assert!(matches!(record, TraceRecord::UtilSample { queued: 3, .. }));
    }

    #[test]
    fn util_sample_rejects_non_finite_time() {
        let err = TraceRecord::util_sample(f64::NAN, vec![], vec![], 0, vec![]).unwrap_err();
        assert!(matches!(err, SampleError::NonFiniteTime { .. }), "{err}");
    }

    #[test]
    fn util_sample_rejects_negative_time() {
        let err = TraceRecord::util_sample(-1.0, vec![], vec![], 0, vec![]).unwrap_err();
        assert_eq!(err, SampleError::NegativeTime { value: -1.0 });
    }

    #[test]
    fn util_sample_rejects_non_finite_rate_with_index() {
        let err = TraceRecord::util_sample(1.0, vec![0.5], vec![0], 0, vec![10.0, f64::INFINITY])
            .unwrap_err();
        assert!(
            matches!(err, SampleError::NonFiniteRate { stream: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn util_sample_rejects_negative_rate_with_index() {
        let err = TraceRecord::util_sample(1.0, vec![0.5], vec![0], 0, vec![-3.0]).unwrap_err();
        assert_eq!(
            err,
            SampleError::NegativeRate {
                stream: 0,
                value: -3.0
            }
        );
    }

    #[test]
    fn util_sample_rejects_hostile_utilisations() {
        let nan = TraceRecord::util_sample(1.0, vec![f64::NAN], vec![0], 0, vec![]).unwrap_err();
        assert!(
            matches!(nan, SampleError::NonFiniteUtilisation { node: 0, .. }),
            "{nan}"
        );
        let neg =
            TraceRecord::util_sample(1.0, vec![0.2, -0.1], vec![0, 0], 0, vec![]).unwrap_err();
        assert!(
            matches!(neg, SampleError::NegativeUtilisation { node: 1, .. }),
            "{neg}"
        );
    }

    #[test]
    fn util_sample_rejects_node_arity_mismatch() {
        let err = TraceRecord::util_sample(1.0, vec![0.2], vec![0, 1], 0, vec![]).unwrap_err();
        assert_eq!(
            err,
            SampleError::NodeArityMismatch {
                utilisations: 1,
                queue_depths: 2
            }
        );
    }

    #[test]
    fn records_round_trip_through_json() {
        let records = vec![
            TraceRecord::RunStart {
                horizon: 30.0,
                warmup: 5.0,
                seed: 7,
                nodes: 3,
                operators: 10,
            },
            TraceRecord::UtilSample {
                time: 1.0,
                utilisations: vec![0.25, 0.5],
                queue_depths: vec![1, 0],
                queued: 1,
                rates: vec![40.0, 12.5],
            },
            TraceRecord::MigrationRetry {
                time: 2.5,
                op: 4,
                dest: 1,
                attempt: 2,
                backoff: 0.5,
            },
            TraceRecord::MigrationAborted {
                time: 4.0,
                op: 4,
                from: 0,
                to: 1,
                attempts: 3,
            },
            TraceRecord::MigrationStart {
                time: 2.0,
                op: 4,
                from: 0,
                to: 1,
                downtime: 0.25,
                failover: true,
            },
            TraceRecord::RecoveryComplete {
                time: 3.0,
                node: 0,
                moved: 2,
                latency: 0.75,
            },
        ];
        for record in &records {
            let json = serde_json::to_string(record).unwrap();
            let back: TraceRecord = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, record);
        }
    }
}
