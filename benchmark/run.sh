#!/usr/bin/env bash
# mwcbench entry point. Builds the repository (library + mwcd) and the
# benchmark from source into build-bench/, then runs it. Results land in
# build-bench/results/.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run. Its summary object is the last line on stdout: the
#       end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
#   benchmark/run.sh --layers [--seed N] [--seconds S]
#       Untraced then traced run of every workload, and the per-layer
#       table with tracing overhead and the [W] sum identity.
#   benchmark/run.sh --sets K [--seed N] [--seconds S]
#       Repeatability: K sets of 10 runs per workload (seeds N..N+9),
#       interleaved. Prints each end-to-end metric's median and IQR per
#       set; exits nonzero unless every spread and every set-to-set
#       median shift stays within BENCHMARK.json's bounds.
#   benchmark/run.sh --smoke [--seed N]
#       Every workload at 1/20 of the run length with one set-up.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-bench"
workloads=(cold_2k cold_10k warm_pipelined mixed_open)

mode=run workload="" seed=1 seconds=20 trace=0 sets=2 reps=10
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --sets) mode=sets; sets="$2"; shift 2 ;;
    --layers) mode=layers; shift ;;
    --smoke) mode=smoke; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

mkdir -p "$build"
if ! { cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j "$(nproc)"; } > "$build/build.log" 2>&1; then
  tail -n 30 "$build/build.log" >&2
  echo "run.sh: build failed (log: $build/build.log)" >&2
  exit 1
fi

commit=unknown dirty=0
if git -C "$root" rev-parse --git-dir > /dev/null 2>&1; then
  commit="$(git -C "$root" rev-parse HEAD)"
  [[ -z "$(git -C "$root" status --porcelain --untracked-files=no)" ]] || dirty=1
fi

# bench W SEED SECONDS TRACE [extra mwcbench flags]: one run; the results
# document goes to build-bench/results/, the summary line to stdout.
bench() {
  mkdir -p "$build/results"
  "$build/mwcbench" --workload "$1" --seed "$2" --seconds "$3" --trace "$4" \
    --out "$build/results/$1-seed$2-trace$4.json" \
    --commit "$commit" --dirty "$dirty" "${@:5}"
}

case "$mode" in
  run)
    [[ -n "$workload" ]] || { echo "run.sh: --workload is required" >&2; exit 2; }
    bench "$workload" "$seed" "$seconds" "$trace"
    ;;
  smoke)
    smoke_seconds="$(awk -v s="$seconds" 'BEGIN { print s / 20 }')"
    for w in "${workloads[@]}"; do
      bench "$w" "$seed" "$smoke_seconds" 0 --setups 1 | tail -n 1
    done
    ;;
  layers)
    for w in "${workloads[@]}"; do
      bench "$w" "$seed" "$seconds" 0 > /dev/null
      bench "$w" "$seed" "$seconds" 1 > /dev/null
    done
    python3 "$root/benchmark/report.py" layers "$build/results" "$seed"
    ;;
  sets)
    rm -rf "$build/sets"
    for ((r = 0; r < reps; r++)); do
      for ((k = 1; k <= sets; k++)); do
        for w in "${workloads[@]}"; do
          s=$((seed + r))
          mkdir -p "$build/sets/$k/$w"
          bench "$w" "$s" "$seconds" 0 2> "$build/sets/$k/$w/$s.log" |
            tail -n 1 > "$build/sets/$k/$w/$s.json" || {
            echo "run.sh: $w seed $s failed, see $build/sets/$k/$w/$s.log" >&2
            exit 1
          }
        done
      done
    done
    python3 "$root/benchmark/report.py" sets "$root/BENCHMARK.json" \
      "$build/sets"
    ;;
esac
