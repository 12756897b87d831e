#!/usr/bin/env python3
"""Aggregates mwcbench results for run.sh.

  report.py sets BENCHMARK.json SETS_DIR
      SETS_DIR/<set>/<workload>/<seed>.json hold the summary lines of a
      `run.sh --sets` run. For each workload and end-to-end metric,
      prints every set's median and its spread: the distance between
      the first and third quartile (statistics.quantiles, n=4) as a
      share of the median. Exits 1 when a run failed its checks, a
      spread other than setup_s exceeds the metric's bound, or a later
      set's median is worse than the first set's by more than the bound.

  report.py layers RESULTS_DIR SEED
      Prints the per-layer table from each workload's traced run, the
      [W] sum identity (stage means + svc.net.other_ms.mean = mean
      client latency) and the tracing overhead (traced minus untraced
      latency_p50_ms). Exits 1 when the identity fails or a cold
      workload's coverage ratio leaves [0.9, 1.1].
"""
import json
import math
import statistics
import sys
from pathlib import Path

WORKLOADS = ["cold_2k", "cold_10k", "warm_pipelined", "mixed_open"]
STAGE_MEANS = ["svc.wire.parse_ms.mean", "svc.server.queue_ms.mean",
               "svc.engine.cache_ms.mean", "svc.engine.solve_ms.mean",
               "svc.net.other_ms.mean"]
COVERAGE = ["sim.solve_coverage", "svc.engine.coverage"]


def worse_by(first, later, lower_is_better):
    """Share by which `later` is worse than `first` (negative = better)."""
    change = (later - first) / first
    return change if lower_is_better else -change


def sets(bench_path, sets_dir):
    bench = json.loads(Path(bench_path).read_text())
    set_dirs = sorted((p for p in Path(sets_dir).iterdir() if p.is_dir()),
                      key=lambda p: int(p.name))
    ok = True
    for w in WORKLOADS:
        print(w)
        runs = {d.name: [json.loads(f.read_text())
                         for f in sorted((d / w).glob("*.json"))]
                for d in set_dirs}
        for name, docs in runs.items():
            bad = [d for d in docs if not d["correct"] or d["failed"] != 0]
            if bad:
                ok = False
                print(f"  set {name}: {len(bad)} run(s) failed checks")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            medians, cells = [], []
            for set_name, docs in runs.items():
                values = [d["metrics"][name]["value"] for d in docs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                spread = (q3 - q1) / median
                medians.append(median)
                flag = ""
                if name != "setup_s" and spread > bound:
                    ok = False
                    flag = " OVER BOUND"
                elif spread > bound / 3:
                    flag = " (above bound/3)"
                cells.append(f"set {set_name}: median {median:.6g} "
                             f"IQR {100 * spread:.2f}%{flag}")
            shifts = [worse_by(medians[0], m, lower) for m in medians[1:]]
            agree = all(s <= bound for s in shifts)
            ok = ok and agree
            shift_text = ", ".join(f"{100 * s:+.2f}%" for s in shifts)
            print(f"  {name:<16} bound {100 * bound:g}%  " + "; ".join(cells)
                  + f"; later sets worse by {shift_text}: "
                  + ("agree" if agree else "DISAGREE"))
    print("sets agree within BENCHMARK.json bounds" if ok
          else "sets DO NOT agree within BENCHMARK.json bounds")
    return 0 if ok else 1


def layers(results_dir, seed):
    results = Path(results_dir)
    traced, untraced = {}, {}
    for w in WORKLOADS:
        traced[w] = json.loads(
            (results / f"{w}-seed{seed}-trace1.json").read_text())
        untraced[w] = json.loads(
            (results / f"{w}-seed{seed}-trace0.json").read_text())
    ok = all(traced[w]["correct"] and untraced[w]["correct"]
             for w in WORKLOADS)
    names = list(traced[WORKLOADS[0]]["per_layer"])
    print(f"{'per-layer metric':<32} {'unit':<8}"
          + "".join(f"{w:>16}" for w in WORKLOADS))
    for name in names:
        unit = traced[WORKLOADS[0]]["per_layer"][name]["unit"]
        row = [traced[w]["per_layer"][name]["value"] for w in WORKLOADS]
        print(f"{name:<32} {unit:<8}"
              + "".join(f"{v:>16.6g}" if v is not None else f"{'-':>16}"
                        for v in row))
    print()
    print(f"{'sum identity and overhead':<41}"
          + "".join(f"{w:>16}" for w in WORKLOADS))
    sums, means, overheads = [], [], []
    for w in WORKLOADS:
        layer = traced[w]["per_layer"]
        stage_sum = sum(layer[n]["value"] for n in STAGE_MEANS)
        mean = layer["trace.latency_ms.mean"]["value"]
        sums.append(stage_sum)
        means.append(mean)
        if not math.isclose(stage_sum, mean, rel_tol=1e-9, abs_tol=1e-9):
            ok = False
        overheads.append(layer["trace.latency_ms.p50"]["value"]
                         - untraced[w]["end_to_end"]["latency_p50_ms"]["value"])
    for label, row in [("[W] stage means + other (ms)", sums),
                       ("mean client latency, traced (ms)", means),
                       ("tracing overhead, p50 (ms)", overheads)]:
        print(f"{label:<41}" + "".join(f"{v:>16.6g}" for v in row))
    for w in ["cold_2k", "cold_10k"]:
        for name in COVERAGE:
            value = traced[w]["per_layer"][name]["value"]
            if not 0.9 <= value <= 1.1:
                ok = False
                print(f"{w}: {name} = {value:.3f} outside [0.9, 1.1]")
    print("layer table checks passed" if ok else "layer table checks FAILED")
    return 0 if ok else 1


def main(argv):
    if len(argv) == 4 and argv[1] == "sets":
        return sets(argv[2], argv[3])
    if len(argv) == 4 and argv[1] == "layers":
        return layers(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
