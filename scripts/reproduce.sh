#!/usr/bin/env bash
# Reproduce every artifact of the paper and collect the outputs.
#
#   ./scripts/reproduce.sh [--quick] [results_dir]
#
# Builds the project, runs the full test suite, then executes every bench
# harness (one per table/figure plus the ablations) and the examples,
# writing each output to its own file under results_dir (default:
# ./results). Sweep harnesses print the parallel engine's SweepStats
# telemetry (tasks, steals, busy/wall time) into their outputs.
#
# --quick: CI only — runs the static checks (opm_analyze + thread-safety
# annotations) and the sanitizer matrix via scripts/ci.sh, skipping the
# artifact sweep.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"

if [[ "${1:-}" == "--quick" ]]; then
  echo "== quick mode: static checks (opm_analyze, thread-safety) + sanitizer matrix"
  exec "$root/scripts/ci.sh" all
fi

results="${1:-$root/results}"
mkdir -p "$results"

echo "== configure & build"
cmake -B "$root/build" -G Ninja -S "$root"
cmake --build "$root/build"

echo "== tests"
ctest --test-dir "$root/build" | tee "$results/tests.txt"

echo "== bench harnesses (tables, figures, ablations)"
for b in "$root"/build/bench/*; do
  name="$(basename "$b")"
  echo "  -> $name"
  "$b" > "$results/$name.txt" 2>&1
done

echo "== examples"
for e in quickstart opm_advisor sparse_structure_study what_if_machine matrix_report; do
  echo "  -> $e"
  "$root/build/examples/$e" > "$results/example_$e.txt" 2>&1
done

echo "done: outputs in $results"
