#!/usr/bin/env bash
# Regenerates every table and figure of the paper plus the extension
# experiments. Console tables land on stdout, machine-readable JSON in
# results/, logs in results/logs/.
set -euo pipefail
cd "$(dirname "$0")/.."

BINARIES=(
  fig02_traces table2_example fig09_plane_distance
  fig14_resiliency fig15_dimensions
  exp_optimal_gap exp_latency exp_lower_bound exp_nonlinear
  exp_clustering exp_sim_crosscheck
  exp_dynamic_vs_static exp_hybrid exp_timescales
  exp_heterogeneous exp_shedding exp_capacity
  exp_failover exp_online exp_ablations
)

mkdir -p results/logs
for bin in "${BINARIES[@]}"; do
  echo "==> $bin"
  cargo run --release -p rod-bench --bin "$bin" | tee "results/logs/$bin.log"
done
echo "All experiments regenerated. See EXPERIMENTS.md for paper-vs-measured."
