//! `BENCH_ctrl.json`: the control-plane trajectory's cell and contract
//! (`perf_ctrl` times the grid).

use serde::{Deserialize, Serialize};

use super::{require, Floor, Scope, Suite};

/// One control-plane cell (medians; columns in `docs/benchmarks.md`).
#[derive(Serialize, Deserialize)]
pub struct Cell {
    /// Grid row name.
    pub name: String,
    /// Telemetry lines in the stream (one per 10k deliberately malformed).
    pub lines: u64,
    /// Stream size.
    pub stream_bytes: u64,
    /// Median line-at-a-time run.
    pub line_seconds: f64,
    /// Median batched run.
    pub batched_seconds: f64,
    /// `lines / line_seconds`.
    pub line_samples_per_sec: f64,
    /// `lines / batched_seconds`.
    pub batched_samples_per_sec: f64,
    /// Line-at-a-time over batched: the headline ratio.
    pub ingest_speedup: f64,
    /// Batch size of the fast path.
    pub max_batch: usize,
}

/// The control-plane suite.
pub struct Ctrl;

impl Suite for Ctrl {
    type Cell = Cell;
    const NAME: &'static str = "ctrl";
    const RATIO_GATES: &'static [&'static str] = &["ingest_speedup"];
    /// The acceptance cell: at 1M samples, the fast path pays at least 5×.
    const FLOORS: &'static [Floor] = &[Floor {
        column: "ingest_speedup",
        min_speedup: 5.0,
        scope: Scope::Cell("ingest_1m"),
    }];

    fn invariants(cells: &[Cell]) -> Vec<String> {
        let mut bad = Vec::new();
        for c in cells {
            let sized = c.lines > 0 && c.stream_bytes > 0 && c.max_batch > 0;
            require(&mut bad, sized, || {
                format!(
                    "{}: lines, stream_bytes and max_batch must be positive",
                    c.name
                )
            });
            require(&mut bad, c.ingest_speedup > 1.0, || {
                format!("{}: ingest_speedup {} not over 1", c.name, c.ingest_speedup)
            });
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(lines: u64, ingest_speedup: f64) -> Cell {
        Cell {
            name: "ingest_1m".into(),
            lines,
            stream_bytes: 100,
            line_seconds: 1.0,
            batched_seconds: 0.2,
            line_samples_per_sec: 1.0,
            batched_samples_per_sec: 1.0,
            ingest_speedup,
            max_batch: 256,
        }
    }

    #[test]
    fn invariants_port_the_ci_checks() {
        assert!(Ctrl::invariants(&[cell(10, 5.0)]).is_empty());
        let bad = Ctrl::invariants(&[cell(0, 0.9)]);
        assert_eq!(
            bad,
            [
                "ingest_1m: lines, stream_bytes and max_batch must be positive",
                "ingest_1m: ingest_speedup 0.9 not over 1",
            ]
        );
    }
}
