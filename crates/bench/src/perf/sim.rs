//! `BENCH_sim.json`: the simulator trajectory's cell and contract
//! (`perf_sim` times the grid).

use serde::{Deserialize, Serialize};

use super::{require, Floor, Scope, Suite};

/// One simulator cell (medians; columns in `docs/benchmarks.md`).
#[derive(Serialize, Deserialize)]
pub struct Cell {
    /// Grid row name.
    pub name: String,
    /// Mean source rate (tuples/s).
    pub rate: f64,
    /// Simulated seconds.
    pub horizon_seconds: f64,
    /// Source tuples within the horizon (identical in both legs).
    pub tuples: u64,
    /// Median exact-mode run.
    pub reference_seconds: f64,
    /// Median batched run.
    pub batched_seconds: f64,
    /// `tuples / reference_seconds`.
    pub reference_tuples_per_sec: f64,
    /// `tuples / batched_seconds`.
    pub batched_tuples_per_sec: f64,
    /// Exact mode over batched: the headline ratio.
    pub batch_speedup: f64,
    /// `BatchConfig::max_batch` of the batched leg.
    pub max_batch: usize,
    /// `BatchConfig::bucket` of the batched leg (simulated seconds).
    pub bucket_seconds: f64,
}

/// The simulator suite.
pub struct Sim;

impl Suite for Sim {
    type Cell = Cell;
    const NAME: &'static str = "sim";
    const RATIO_GATES: &'static [&'static str] = &["batch_speedup"];
    /// The acceptance cell: at 1M tuples/s, batching pays at least 10×.
    const FLOORS: &'static [Floor] = &[Floor {
        column: "batch_speedup",
        min_speedup: 10.0,
        scope: Scope::Cell("chain_1m"),
    }];

    fn invariants(cells: &[Cell]) -> Vec<String> {
        let mut bad = Vec::new();
        for c in cells {
            require(&mut bad, c.tuples > 0, || format!("{}: no tuples", c.name));
            require(&mut bad, c.batch_speedup > 1.0, || {
                format!("{}: batch_speedup {} not over 1", c.name, c.batch_speedup)
            });
            require(&mut bad, c.name != "chain_1m" || c.rate >= 1e6, || {
                format!("chain_1m: rate {} under 1e6 tuples/s", c.rate)
            });
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(name: &str, rate: f64, tuples: u64, batch_speedup: f64) -> Cell {
        Cell {
            name: name.into(),
            rate,
            horizon_seconds: 4.0,
            tuples,
            reference_seconds: 1.0,
            batched_seconds: 0.1,
            reference_tuples_per_sec: 1.0,
            batched_tuples_per_sec: 1.0,
            batch_speedup,
            max_batch: 4096,
            bucket_seconds: 0.002,
        }
    }

    #[test]
    fn invariants_port_the_ci_checks() {
        assert!(Sim::invariants(&[cell("chain_1m", 1e6, 10, 30.0)]).is_empty());
        let bad = Sim::invariants(&[cell("chain_1m", 5e5, 0, 1.0)]);
        assert_eq!(
            bad,
            [
                "chain_1m: no tuples",
                "chain_1m: batch_speedup 1 not over 1",
                "chain_1m: rate 500000 under 1e6 tuples/s",
            ]
        );
    }
}
