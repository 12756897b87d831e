#!/usr/bin/env bash
# Measures the SoA + portable-SIMD distance kernels across the extended
# size grid: runs bench/micro_kernels at n in {10k, 100k} and merges the
# per-size JSON outputs into BENCH_kernels.json.
#
# Recorded per cell (see bench/micro_kernels.cpp):
#   * row   — the raw distance_row kernel, simd vs scalar-fallback vs the
#             seed's per-pair std::hypot kernel;
#   * probe — batched DistanceView::direct probes;
#   * solve — end-to-end q_rooted_tsp, simd on vs off, bit-identical
#             tours required.
#
# Hard gates (exit nonzero): the n = 10k row kernel must be >= 3x faster
# than the seed hypot kernel, every cell's simd/scalar tour delta must
# be within 1% (it is 0 by the bit-exactness contract), the n = 100k
# cell must complete, and the --metrics-out sidecar must validate with
# the geom.simd.rows_vectorized counter engaged. The simd-vs-scalar
# ratios are recorded honestly but not gated: on hosts with one sqrt
# unit (e.g. Skylake Xeons) vector sqrt throughput caps them near 2x.
#
# Usage: scripts/bench_kernels.sh [output.json] [reps]
set -euo pipefail

cd "$(dirname "$0")/.."
OUT="${1:-BENCH_kernels.json}"
REPS="${2:-3}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build build --target micro_kernels -j "$(nproc)" > /dev/null

SIZES=(10000 100000)
for n in "${SIZES[@]}"; do
  ./build/bench/micro_kernels --n "$n" --reps "$REPS" \
      --json "$TMP/kernels_$n.json" --metrics-out "$TMP/metrics_$n.json"
  python3 scripts/validate_metrics.py "$TMP/metrics_$n.json" \
      --require-counter geom.simd.rows_vectorized
done

python3 - "$OUT" "$TMP" "${SIZES[@]}" <<'EOF'
import json, sys
out, tmp, sizes = sys.argv[1], sys.argv[2], sys.argv[3:]
points = [json.load(open(f"{tmp}/kernels_{n}.json")) for n in sizes]
at10k = next(p for p in points if p["n"] == 10000)
at100k = next(p for p in points if p["n"] == 100000)
merged = {
    "bench": "micro_kernels",
    "backend": points[0]["backend"],
    "lanes": points[0]["lanes"],
    "q": points[0]["q"], "reps": points[0]["reps"],
    "points": points,
    "row_speedup_vs_seed_at_10k": at10k["row_speedup_vs_seed"],
    "row_speedup_vs_scalar_at_10k": at10k["row_speedup"],
    "solve_speedup_vs_scalar_at_10k": at10k["solve_speedup"],
    "tour_delta_pct_at_10k": at10k["tour_delta_pct"],
    "solve_100k_ms": at100k["solve_simd_ms"],
    "tour_delta_pct_at_100k": at100k["tour_delta_pct"],
    "target_row_speedup_vs_seed": 3.0,
    "target_tour_delta_pct": 1.0,
    "note": "seed = the per-pair std::hypot AoS row loop the SoA "
            "kernels replaced; scalar = the same sqrt(squared_norm) "
            "pipeline with geom::simd disabled (bit-identical tours, so "
            "the tour delta is exactly 0). simd-vs-scalar ratios are "
            "sqrt-unit-bound on single-sqrt-port hosts and recorded "
            "without a gate; every cell solves over direct geometry "
            "(no O(n^2) matrix).",
}
json.dump(merged, open(out, "w"), indent=2)
open(out, "a").write("\n")
for p in points:
    print(f"n={p['n']:>6}: row {p['row_speedup']:4.2f}x "
          f"({p['row_speedup_vs_seed']:5.2f}x vs seed); solve "
          f"{p['solve_speedup']:4.2f}x, delta {p['tour_delta_pct']:+.4f}%")
ok = (at10k["row_speedup_vs_seed"] >= merged["target_row_speedup_vs_seed"]
      and all(abs(p["tour_delta_pct"]) <= merged["target_tour_delta_pct"]
              for p in points))
print(f"wrote {out} ({'targets met' if ok else 'TARGETS MISSED'})")
sys.exit(0 if ok else 1)
EOF
