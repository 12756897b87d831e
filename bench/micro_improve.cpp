// Head-to-head of the exhaustive O(n²) tour polish against the
// candidate-list O(n·k) path (2-opt/Or-opt with don't-look bits plus the
// candidate-pruned q-rooted MSF).
//
//   ./micro_improve [--n 800] [--q 4] [--k 12] [--trials 3]
//                   [--threads 0] [--exhaustive-cap 3000] [--json PATH]
//                   [--metrics-out PATH] [--trace-out PATH]
//
// Above --exhaustive-cap the O(n²) exhaustive arm is skipped (its sweeps
// take hours at n = 10k+).
//
// Both arms run the full q_rooted_tsp pipeline (MSF → double-tree →
// polish) on the identical direct-geometry instance; the candidate arm's
// timing includes building the CandidateGraph, since that is part of its
// pipeline cost. --threads > 1 additionally reports the candidate arm
// with per-charger polish fanned out over a ThreadPool (bit-identical
// tours, see tests/tsp/candidates_test.cpp).
//
// scripts/bench_improve.sh loops n in {100, 800, 2000} and merges the
// --json outputs into BENCH_improve.json (target: >= 5x at n=800 with
// <= 1% longer tours). CI runs `--trials 1 --n 100` and validates the
// --metrics-out sidecar, pinning the tsp.cand.* / tsp.improve.* counter
// schema.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "tsp/candidates.hpp"
#include "tsp/qrooted.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace mwc;
  CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int_or("n", 800));
  const auto q = static_cast<std::size_t>(args.get_int_or("q", 4));
  const auto k = static_cast<std::size_t>(args.get_int_or("k", 12));
  const auto trials = static_cast<std::size_t>(args.get_int_or("trials", 3));
  const auto threads =
      static_cast<std::size_t>(args.get_int_or("threads", 0));
  const auto exhaustive_cap =
      static_cast<std::size_t>(args.get_int_or("exhaustive-cap", 3000));
  const bool run_exhaustive = n <= exhaustive_cap;
  const std::string json_path = args.get_or("json", "");
  const std::string metrics_path = args.get_or("metrics-out", "");
  const std::string trace_path = args.get_or("trace-out", "");
  if (!trace_path.empty()) obs::set_trace_enabled(true);

  // Deterministic instance, read through direct geometry by both arms.
  Rng rng(20140917 + n);
  tsp::QRootedInstance instance;
  instance.depots.reserve(q);
  for (std::size_t l = 0; l < q; ++l)
    instance.depots.push_back(
        {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  instance.sensors.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    instance.sensors.push_back(
        {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  const auto view = instance.distances();
  double checksum = 0.0;

  tsp::QRootedOptions exhaustive;
  exhaustive.improve = true;
  exhaustive.improve_options.exhaustive = true;

  tsp::QRootedOptions candidate;
  candidate.improve = true;
  candidate.candidate_options.k = k;

  const auto combined = instance.points().materialize();

  double exhaustive_ms = 0.0;
  double candidate_ms = 0.0;
  double parallel_ms = 0.0;
  double exhaustive_length = 0.0;
  double candidate_length = 0.0;
  Timer timer;
  for (std::size_t t = 0; t < trials; ++t) {
    double e_ms = 0.0;
    if (run_exhaustive) {
      timer.reset();
      const auto ref = tsp::q_rooted_tsp(view, q, exhaustive);
      e_ms = timer.elapsed_ms();
      exhaustive_length = ref.total_length;
      checksum += ref.total_length;
    }

    // Graph construction is inside the timed region on purpose: the
    // candidate arm pays for its own index.
    timer.reset();
    const auto graph = tsp::CandidateGraph::build(
        combined, candidate.candidate_options);
    tsp::QRootedOptions with_graph = candidate;
    with_graph.candidates = &graph;
    const auto acc = tsp::q_rooted_tsp(view, q, with_graph);
    const double c_ms = timer.elapsed_ms();
    candidate_length = acc.total_length;
    checksum += acc.total_length;

    double p_ms = c_ms;
    if (threads != 1) {
      ThreadPool pool(threads);
      timer.reset();
      const auto par = tsp::q_rooted_tsp(view, q, with_graph, &pool);
      p_ms = timer.elapsed_ms();
      checksum += par.total_length;
    }

    if (t == 0) {
      exhaustive_ms = e_ms;
      candidate_ms = c_ms;
      parallel_ms = p_ms;
    } else {
      exhaustive_ms = std::min(exhaustive_ms, e_ms);
      candidate_ms = std::min(candidate_ms, c_ms);
      parallel_ms = std::min(parallel_ms, p_ms);
    }
  }

  const double speedup = candidate_ms > 0.0 ? exhaustive_ms / candidate_ms
                                            : 0.0;
  const double quality_pct =
      exhaustive_length > 0.0
          ? (candidate_length / exhaustive_length - 1.0) * 100.0
          : 0.0;
  std::printf("micro_improve: n=%zu q=%zu k=%zu trials=%zu\n", n, q, k,
              trials);
  if (run_exhaustive) {
    std::printf("  exhaustive polish %10.3f ms  length %12.3f\n",
                exhaustive_ms, exhaustive_length);
  } else {
    std::printf("  exhaustive polish skipped (n > cap %zu)\n", exhaustive_cap);
  }
  std::printf("  candidate polish  %10.3f ms  length %12.3f\n",
              candidate_ms, candidate_length);
  std::printf("  parallel polish   %10.3f ms\n", parallel_ms);
  std::printf("  speedup %.2fx, tour delta %+.3f%%  (checksum %.3f)\n",
              speedup, quality_pct, checksum);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"micro_improve\",\n"
                 "  \"n\": %zu,\n"
                 "  \"q\": %zu,\n"
                 "  \"k\": %zu,\n"
                 "  \"trials\": %zu,\n"
                 "  \"exhaustive_ran\": %s,\n"
                 "  \"exhaustive_ms\": %.6f,\n"
                 "  \"candidate_ms\": %.6f,\n"
                 "  \"parallel_ms\": %.6f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"exhaustive_length\": %.6f,\n"
                 "  \"candidate_length\": %.6f,\n"
                 "  \"quality_delta_pct\": %.4f\n"
                 "}\n",
                 n, q, k, trials, run_exhaustive ? "true" : "false",
                 exhaustive_ms, candidate_ms, parallel_ms, speedup,
                 exhaustive_length, candidate_length, quality_pct);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!metrics_path.empty()) {
    if (obs::Registry::global().write_json(metrics_path)) {
      std::printf("wrote %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 1;
    }
  }
  if (!trace_path.empty()) {
    if (obs::write_chrome_trace(trace_path)) {
      std::printf("wrote %s (%zu events)\n", trace_path.c_str(),
                  obs::trace_event_count());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  return 0;
}
