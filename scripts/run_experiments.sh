#!/usr/bin/env bash
# Regenerates every experiment table (E1-E28, plus the BENCH_route
# hot-path microbenchmark, whose timings are machine-dependent) into
# results/.
# Usage: scripts/run_experiments.sh [--force] [results-dir]
#   Experiments whose machine-readable results/<exp>.json already exists
#   are skipped, so an interrupted sweep resumes where it left off; pass
#   --force to regenerate everything from scratch.
#   Set SKIP_CI=1 to bypass the scripts/ci.sh preflight.
#   Set OBLIVION_THREADS=N to pin the thread count the parallel benches
#   (exp_online, exp_delays, exp_online_threads) run with; the default is
#   the machine's available parallelism.
# Fail-fast: the first failing experiment aborts the run with its name.
# Each experiment also reports its wall-clock time, and binaries wired to
# oblivion-bench::report drop a machine-readable $out/<exp>.json next to
# the .txt capture (render with `oblivion stats`).
set -euo pipefail
cd "$(dirname "$0")/.."
force=0
out=results
for arg in "$@"; do
  case "$arg" in
    --force) force=1 ;;
    *) out="$arg" ;;
  esac
done
mkdir -p "$out"
export OBLIVION_RESULTS_DIR="$out"

# Regression check: with `set -o pipefail`, a failing producer must fail
# the whole pipeline even though the consumer (tee, below) succeeds. If
# this branch is ever taken, experiment failures would be silently
# swallowed by the capture pipeline.
if (exit 9) | cat; then
  echo "pipefail is not active: experiment failures would be masked" >&2
  exit 1
fi

if [[ "${SKIP_CI:-0}" != "1" ]]; then
  echo "== preflight: scripts/ci.sh (SKIP_CI=1 to skip) =="
  scripts/ci.sh
fi

echo "== building =="
cargo build --release -p oblivion-bench --bins --quiet
cargo build --release --examples --quiet

run() {
  # Binaries wired to oblivion-bench::report write $out/<exp>.json where
  # <exp> is the bin name minus its exp_ prefix (exp_checkpoint overrides
  # this via $2). If that file already exists the experiment is done —
  # skip it unless --force, so an interrupted sweep resumes cheaply.
  local json="${2:-${1#exp_}}"
  if [[ "$force" != 1 && -f "$out/$json.json" ]]; then
    echo "== $1 == skipped ($out/$json.json exists; --force regenerates)"
    return 0
  fi
  echo "== $1 =="
  local start end
  start=$(date +%s)
  # tee keeps a capture in $out while pipefail (verified above) still
  # propagates the experiment's exit code through the pipeline.
  if ! cargo run --release --quiet -p oblivion-bench --bin "$1" | tee "$out/$1.txt" > /dev/null; then
    echo "FAILED: $1 (partial output in $out/$1.txt)" >&2
    exit 1
  fi
  end=$(date +%s)
  echo "   $1 done in $((end - start))s"
}

cargo run --release --quiet --example decomposition_gallery > "$out/e1_e2_figures.txt"
run exp_stretch2d            # E3
run exp_congestion2d         # E4
run exp_stretch_d            # E5
run exp_congestion_d         # E6
run exp_bridge_height        # E7
run exp_randbits             # E8
run exp_lower_bound          # E9
run exp_baselines            # E10
run exp_delivery             # E11
run exp_ablation_bridges     # E12
run exp_concentration        # E13
run exp_torus                # E14
run exp_choices              # E15
run exp_delays               # E16
run exp_scaling              # E17
run exp_online               # E18
run exp_expected_congestion  # E19
run exp_offline_gap          # E20
run exp_online_threads       # E21
run exp_faults               # E22
run exp_checkpoint checkpoint_overhead  # E23
run exp_serve serve_load     # E24
run exp_serve_phases         # E25
run exp_serve_pipeline       # E26
run exp_serve_hedging serve_hedging  # E27
run exp_serve_tenants serve_tenants  # E28
run exp_route_bench BENCH_route  # hot-path ns/path microbenchmark

echo "all experiment outputs written to $out/"
