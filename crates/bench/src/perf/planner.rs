//! `BENCH_planner.json`: the planner trajectory's cell and contract
//! (`perf_planner` times the grid).

use serde::{Deserialize, Serialize};

use super::{require, Floor, Scope, Suite};

/// Chunk count of the pooled ResilientRod leg; also the fewest cores
/// that arm the thread-scaling floor.
pub const RESILIENT_THREADS: usize = 4;

/// Thread-scaling floor: with at least [`RESILIENT_THREADS`] cores, a
/// cell whose serial climb takes this long (below it, dispatch overhead
/// can dominate) must show the pooled speedup below, which only catches
/// the pool degrading to serial-or-worse.
const SCALING_GATE_MIN_SERIAL_SECONDS: f64 = 0.2;
const SCALING_GATE_MIN_SPEEDUP: f64 = 1.05;

/// Floor on the best `simd_speedup` when any cell ran the AVX2 leg: the
/// 4-lane ymm width over the 2-lane SSE2 code of the scalar loops.
const SIMD_GATE_MIN_SPEEDUP: f64 = 2.0;

/// One planner cell: medians in seconds, `null` for a skipped leg.
/// Columns: `docs/benchmarks.md`.
#[derive(Serialize, Deserialize)]
pub struct Cell {
    /// Grid row name; `sparse_*` cells use the sparse generator.
    pub name: String,
    /// Input streams (d).
    pub inputs: usize,
    /// Operators (m).
    pub ops: usize,
    /// Nodes (n).
    pub nodes: usize,
    /// QMC sample points (P).
    pub samples: usize,
    /// Seed of the QMC point set.
    pub qmc_seed: u64,
    /// Load-matrix nonzeros.
    pub nnz: usize,
    /// One `RodPlanner::place` (pruned Phase-2 scan).
    pub plan_seconds: f64,
    /// Phase-2 probes the pruned scan paid; the full scan pays `ops × nodes`.
    pub candidates_scored: u64,
    /// One `HierarchicalRod::place`, automatic topology.
    pub hier_plan_seconds: f64,
    /// The per-point volume walk.
    pub scalar_estimate_seconds: Option<f64>,
    /// The blocked kernel pinned to its scalar loops.
    pub kernel_estimate_seconds: Option<f64>,
    /// Scalar walk over blocked-scalar kernel.
    pub kernel_speedup: Option<f64>,
    /// The runtime-dispatched kernel, when it selected AVX2.
    pub simd_estimate_seconds: Option<f64>,
    /// Blocked-scalar over SIMD: the pure lane win.
    pub simd_speedup: Option<f64>,
    /// Estimated feasible-set volume over the ideal's.
    pub feasible_ratio: Option<f64>,
    /// Chunk count of the pooled ResilientRod leg.
    pub threads: Option<usize>,
    /// ResilientRod climb with a serial neighborhood scan.
    pub resilient_serial_seconds: Option<f64>,
    /// The same climb with the pooled scan.
    pub resilient_pooled_seconds: Option<f64>,
    /// Serial over pooled.
    pub resilient_speedup: Option<f64>,
}

/// The planner suite.
pub struct Planner;

impl Suite for Planner {
    type Cell = Cell;
    const NAME: &'static str = "planner";
    const RATIO_GATES: &'static [&'static str] =
        &["kernel_speedup", "resilient_speedup", "simd_speedup"];
    const FLOORS: &'static [Floor] = &[
        Floor {
            column: "simd_speedup",
            min_speedup: SIMD_GATE_MIN_SPEEDUP,
            scope: Scope::Best,
        },
        Floor {
            column: "resilient_speedup",
            min_speedup: SCALING_GATE_MIN_SPEEDUP,
            scope: Scope::Where {
                min_cores: RESILIENT_THREADS,
                column: "resilient_serial_seconds",
                at_least: SCALING_GATE_MIN_SERIAL_SECONDS,
            },
        },
    ];

    fn invariants(cells: &[Cell]) -> Vec<String> {
        let mut bad = Vec::new();
        // Whether a leg ran, from which of its columns are present;
        // `None` when only some are.
        let ran = |present: &[bool]| {
            present
                .iter()
                .all(|&p| p == present[0])
                .then_some(present[0])
        };
        let large = cells.iter().any(|c| c.nodes >= 1000 && c.ops >= 50_000);
        require(&mut bad, large, || {
            "the n = 1000 / m = 50k sparse cell is missing".into()
        });
        for c in cells {
            let name = &c.name;
            let nnz = || format!("{name}: nnz {} under ops {}", c.nnz, c.ops);
            require(&mut bad, c.nnz >= c.ops, nnz);
            let scored = c.candidates_scored >= 1;
            require(&mut bad, scored, || format!("{name}: no candidates scored"));
            let qmc = ran(&[
                c.scalar_estimate_seconds.is_some(),
                c.kernel_estimate_seconds.is_some(),
                c.kernel_speedup.is_some(),
                c.feasible_ratio.is_some(),
            ]);
            let simd = ran(&[c.simd_estimate_seconds.is_some(), c.simd_speedup.is_some()]);
            let resilient = ran(&[
                c.threads.is_some_and(|t| t >= 1),
                c.resilient_serial_seconds.is_some(),
                c.resilient_pooled_seconds.is_some(),
                c.resilient_speedup.is_some(),
            ]);
            let sparse = name.starts_with("sparse_");
            let legs_ok = if sparse {
                [qmc, simd, resilient] == [Some(false); 3]
            } else {
                qmc == Some(true) && resilient == Some(true) && simd.is_some()
            };
            require(&mut bad, legs_ok, || {
                format!(
                    "{name}: QMC, SIMD and resilient legs ran {qmc:?}, {simd:?}, {resilient:?} \
                     (None: partly null); a tree cell runs QMC and resilient, a sparse cell none"
                )
            });
            let (probes, full_scan) = (c.candidates_scored as f64, c.ops as f64 * c.nodes as f64);
            require(&mut bad, !sparse || probes < 0.5 * full_scan, || {
                format!("{name}: {probes} probes, not under half the full scan's {full_scan}")
            });
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(name: &str) -> Cell {
        Cell {
            name: name.into(),
            inputs: 2,
            ops: 10,
            nodes: 4,
            samples: 1000,
            qmc_seed: 7,
            nnz: 10,
            plan_seconds: 1e-6,
            candidates_scored: 32,
            hier_plan_seconds: 1e-6,
            scalar_estimate_seconds: Some(1e-3),
            kernel_estimate_seconds: Some(2e-4),
            kernel_speedup: Some(5.0),
            simd_estimate_seconds: None,
            simd_speedup: None,
            feasible_ratio: Some(0.6),
            threads: Some(RESILIENT_THREADS),
            resilient_serial_seconds: Some(0.01),
            resilient_pooled_seconds: Some(0.01),
            resilient_speedup: Some(1.0),
        }
    }

    fn sparse(probes: u64) -> Cell {
        Cell {
            name: "sparse_d200_m50k_n1000".into(),
            ops: 50_000,
            nodes: 1000,
            nnz: 160_000,
            candidates_scored: probes,
            scalar_estimate_seconds: None,
            kernel_estimate_seconds: None,
            kernel_speedup: None,
            feasible_ratio: None,
            threads: None,
            resilient_serial_seconds: None,
            resilient_pooled_seconds: None,
            resilient_speedup: None,
            ..tree("")
        }
    }

    #[test]
    fn a_well_formed_grid_passes() {
        assert!(Planner::invariants(&[tree("d2_n4"), sparse(18_000_000)]).is_empty());
    }

    #[test]
    fn the_large_sparse_cell_is_required() {
        let bad = Planner::invariants(&[tree("d2_n4")]);
        assert_eq!(bad, ["the n = 1000 / m = 50k sparse cell is missing"]);
    }

    #[test]
    fn a_sparse_cell_runs_no_leg_and_prunes_under_half() {
        let mut qmc = sparse(18_000_000);
        qmc.kernel_speedup = Some(1.0);
        assert_eq!(Planner::invariants(&[qmc]).len(), 1);
        let bad = Planner::invariants(&[sparse(25_000_000)]);
        assert_eq!(
            bad,
            ["sparse_d200_m50k_n1000: 25000000 probes, not under half the full scan's 50000000"]
        );
    }

    #[test]
    fn a_tree_cell_runs_whole_qmc_and_resilient_legs() {
        let mut partial = tree("d2_n4");
        partial.resilient_pooled_seconds = None;
        let mut no_threads = tree("d6_n16");
        no_threads.threads = Some(0);
        let mut half_simd = tree("d4_n8");
        half_simd.simd_speedup = Some(2.0);
        let bad = Planner::invariants(&[partial, no_threads, half_simd, sparse(1)]);
        assert_eq!(bad.len(), 3, "{bad:?}");
    }

    #[test]
    fn nnz_and_probes_are_checked() {
        let mut cell = tree("d2_n4");
        cell.nnz = 9;
        cell.candidates_scored = 0;
        let bad = Planner::invariants(&[cell, sparse(1)]);
        assert_eq!(
            bad,
            ["d2_n4: nnz 9 under ops 10", "d2_n4: no candidates scored"]
        );
    }
}
