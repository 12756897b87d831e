#!/usr/bin/env bash
# Reproduces every paper figure and ablation at a chosen averaging scale,
# writing console tables, CSVs, and SVG charts into results/.
#
#   scripts/reproduce_all.sh [trials]      # default 30; paper used 100
set -euo pipefail

TRIALS="${1:-30}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build"
OUT="$ROOT/results"
mkdir -p "$OUT"

if [ ! -d "$BUILD/bench" ]; then
  echo "building first..."
  cmake -B "$BUILD" -G Ninja "$ROOT"
  cmake --build "$BUILD"
fi

FIGS="fig1_network_size fig2_taumax fig3_var_network_size fig4_var_taumax \
      fig5_slot_length fig6_sigma"
ABLS="abl_tour_improvement abl_charger_count abl_rounding abl_fleet \
      abl_charging_time abl_prediction abl_construction abl_optimality"

{
  echo "# libmwc full reproduction run: $(date -u +%Y-%m-%dT%H:%M:%SZ)"
  echo "# trials per point: $TRIALS"
  for b in $FIGS; do
    echo
    "$BUILD/bench/$b" --trials "$TRIALS" \
      --csv "$OUT/$b.csv" --svg "$OUT/$b.svg"
  done
  for b in $ABLS; do
    echo
    "$BUILD/bench/$b" --trials "$TRIALS"
  done
  echo
  scripts/bench_kernels.sh "$OUT/BENCH_kernels.json"
} | tee "$OUT/reproduction_run.txt"

echo
echo "done: tables in $OUT/reproduction_run.txt, CSVs and SVG charts in $OUT/,"
echo "      SIMD kernel grid in $OUT/BENCH_kernels.json"
