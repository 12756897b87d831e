// micro_service — in-process svc::Server benchmark.
//
// Three measurements over one paper-sized instance family:
//   * cold latency  — every request a fresh topology seed (cache miss,
//     full resolve + solve), closed loop at concurrency 1;
//   * warm latency  — one instance repeated (PlanCache hit after the
//     priming solve), closed loop at concurrency 1;
//   * throughput    — warm requests at queue depths {1, 8, 64}: the
//     service-pipeline ceiling (admission, dispatch, cache probe,
//     response) with solving amortized away.
//
// Percentiles come from obs::Histogram + HistogramSnapshot::quantile —
// the same estimator the service's own svc.request_latency_ms uses.
//
// Flags: --n 800, --q 5, --policy MinTotalDistance, --horizon 1000,
//        --cold 12, --warm 200, --per-depth 256, --depths 1,8,64,
//        --seed 1, --threads 0, --json FILE
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "svc/json.hpp"
#include "svc/server.hpp"
#include "svc/wire.hpp"
#include "util/cli.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using mwc::svc::Request;
using mwc::svc::Response;
using mwc::svc::Server;

constexpr double kBucketsMs[] = {0.01, 0.025, 0.05, 0.1,  0.25, 0.5,
                                 1.0,  2.5,   5.0,  10.0, 25.0, 50.0,
                                 100.0, 250.0, 500.0, 1000.0, 2500.0,
                                 5000.0, 10000.0, 30000.0};

struct LoopResult {
  double elapsed_s = 0.0;
  std::size_t answered = 0;
  std::size_t errors = 0;
  std::size_t cached = 0;
};

/// Closed loop: keeps at most `depth` requests outstanding until `count`
/// have been answered; per-request latency lands in `latency`.
LoopResult closed_loop(Server& server, const Request& base,
                       std::size_t count, std::size_t depth,
                       std::uint64_t seed0, std::uint64_t seed_stride,
                       mwc::obs::Histogram& latency) {
  LoopResult result;
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t outstanding = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    Request request = base;
    request.id = "b" + std::to_string(i);
    request.network.seed = seed0 + seed_stride * i;
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return outstanding < depth; });
      ++outstanding;
    }
    const auto sent = Clock::now();
    server.submit(std::move(request), [&, sent](const Response& r) {
      latency.observe(std::chrono::duration<double, std::milli>(
                          Clock::now() - sent)
                          .count());
      std::lock_guard<std::mutex> lock(mutex);
      --outstanding;
      ++result.answered;
      if (!r.ok) ++result.errors;
      if (r.cached) ++result.cached;
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return outstanding == 0; });
  }
  result.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

double quantile_of(const mwc::obs::Registry& registry,
                   const std::string& name, double q) {
  return registry.snapshot().histograms.at(name).quantile(q);
}

}  // namespace

int main(int argc, char** argv) {
  mwc::CliArgs args(argc, argv);
  args.allow_only({"n", "q", "policy", "horizon", "cold", "warm", "per-depth",
                   "depths", "seed", "threads", "json"});

  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int_or("seed", 1, 0));
  const Request base =
      mwc::svc::RequestBuilder("template")
          .policy(args.get_or("policy", "MinTotalDistance"))
          .preset(static_cast<std::size_t>(
                      args.get_int_or("n", 800, 1, 1 << 20)),
                  static_cast<std::size_t>(args.get_int_or("q", 5, 1, 1 << 20)),
                  /*field_side=*/1000.0, seed)
          .cycle_model({}, seed)
          .horizon(args.get_double_or("horizon", 1000.0))
          .build();

  const std::size_t cold_count =
      static_cast<std::size_t>(args.get_int_or("cold", 12, 1, 1 << 20));
  const std::size_t warm_count =
      static_cast<std::size_t>(args.get_int_or("warm", 200, 1, 1 << 20));
  const std::size_t per_depth =
      static_cast<std::size_t>(args.get_int_or("per-depth", 256, 1, 1 << 20));
  std::vector<std::size_t> depths;
  {
    const std::string spec = args.get_or("depths", "1,8,64");
    std::size_t pos = 0;
    while (pos < spec.size()) {
      const auto comma = spec.find(',', pos);
      depths.push_back(static_cast<std::size_t>(
          std::stoul(spec.substr(pos, comma - pos))));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  mwc::svc::ServerOptions options;
  options.queue_capacity = 1024;  // sized so the sweep never rejects
  options.threads =
      static_cast<std::size_t>(args.get_int_or("threads", 0, 0, 1024));
  if (!args.error().empty()) {
    std::fprintf(stderr, "micro_service: %s\n", args.error().c_str());
    return 2;
  }
  options.cache_capacity = 2048;
  Server server(options);

  mwc::obs::Registry local;
  auto& cold_hist = local.histogram("svc.bench.cold_ms", kBucketsMs);
  auto& warm_hist = local.histogram("svc.bench.warm_ms", kBucketsMs);

  // Cold: fresh seed per request, nothing shares a cache entry.
  const auto cold = closed_loop(server, base, cold_count, 1, seed, 1,
                                cold_hist);
  const double cold_p50 = quantile_of(local, "svc.bench.cold_ms", 0.5);
  const double cold_p95 = quantile_of(local, "svc.bench.cold_ms", 0.95);
  std::printf("cold  n=%zu  count=%zu  p50 %.3f ms  p95 %.3f ms  "
              "(%zu cached, %zu errors)\n",
              base.network.deployment.n, cold_count, cold_p50, cold_p95,
              cold.cached, cold.errors);

  // Warm: one fixed seed; the priming request above (seed) already
  // populated its entry, so every request here is a PlanCache hit.
  const auto warm = closed_loop(server, base, warm_count, 1, seed, 0,
                                warm_hist);
  const double warm_p50 = quantile_of(local, "svc.bench.warm_ms", 0.5);
  const double warm_p95 = quantile_of(local, "svc.bench.warm_ms", 0.95);
  std::printf("warm  count=%zu  p50 %.3f ms  p95 %.3f ms  "
              "(%zu/%zu cached)  speedup p50 %.1fx\n",
              warm_count, warm_p50, warm_p95, warm.cached, warm.answered,
              warm_p50 > 0.0 ? cold_p50 / warm_p50 : 0.0);

  mwc::svc::Json sweep = mwc::svc::Json::array();
  for (const std::size_t depth : depths) {
    auto& hist = local.histogram(
        "svc.bench.depth" + std::to_string(depth) + "_ms", kBucketsMs);
    const auto run =
        closed_loop(server, base, per_depth, depth, seed, 0, hist);
    const double rps = run.elapsed_s > 0.0
                           ? static_cast<double>(run.answered) / run.elapsed_s
                           : 0.0;
    std::printf("depth %-3zu  %zu reqs in %.3f s  %.0f req/s\n", depth,
                run.answered, run.elapsed_s, rps);
    mwc::svc::Json row = mwc::svc::Json::object();
    row.set("depth", mwc::svc::Json(depth));
    row.set("requests", mwc::svc::Json(run.answered));
    row.set("req_per_s", mwc::svc::Json(rps));
    sweep.push_back(std::move(row));
  }

  const bool failed = cold.errors + warm.errors > 0 ||
                      warm.cached != warm.answered;
  if (const auto json_path = args.get("json")) {
    mwc::svc::Json doc = mwc::svc::Json::object();
    doc.set("bench", mwc::svc::Json("micro_service"));
    doc.set("n", mwc::svc::Json(base.network.deployment.n));
    doc.set("q", mwc::svc::Json(base.network.deployment.q));
    doc.set("policy", mwc::svc::Json(base.policy));
    doc.set("horizon", mwc::svc::Json(base.horizon));
    doc.set("cold_count", mwc::svc::Json(cold_count));
    doc.set("cold_p50_ms", mwc::svc::Json(cold_p50));
    doc.set("cold_p95_ms", mwc::svc::Json(cold_p95));
    doc.set("warm_count", mwc::svc::Json(warm_count));
    doc.set("warm_p50_ms", mwc::svc::Json(warm_p50));
    doc.set("warm_p95_ms", mwc::svc::Json(warm_p95));
    doc.set("warm_speedup_p50",
            mwc::svc::Json(warm_p50 > 0.0 ? cold_p50 / warm_p50 : 0.0));
    doc.set("depth_sweep", std::move(sweep));
    doc.set("cache_hits",
            mwc::svc::Json(server.cache().hits()));
    doc.set("cache_misses",
            mwc::svc::Json(server.cache().misses()));
    std::FILE* f = std::fopen(json_path->c_str(), "w");
    if (f == nullptr) {
      std::perror("fopen --json");
      return 1;
    }
    const std::string text = doc.dump() + "\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  server.shutdown();
  return failed ? 1 : 0;
}
