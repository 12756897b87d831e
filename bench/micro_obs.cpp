// Micro-benchmark for the mwc::obs instrumentation overhead.
//
//   ./micro_obs [--n 400] [--q 5] [--reps 20] [--svc-batch 256]
//               [--json PATH]
//
// Times the hottest instrumented path — q_rooted_tsp with 2-opt/Or-opt
// polish over a direct dispatch view (MWC_OBS_SCOPE spans, probe-count
// flushes, gauge adds) — plus one Simulator::run over the same network
// (per-dispatch counters + the residual-margin histogram), plus the
// service warm-request path: cache-hit requests over a socketpair to an
// mwcd-style serve loop, measured plain and then with the full
// observability plane active (client trace id on the wire, per-stage
// timing echo, access log). Built
// twice by scripts/bench_obs.sh, once with -DMWC_OBS=ON and once with
// -DMWC_OBS=OFF, the two --json outputs quantify the telemetry overhead
// (budget: within 2%, 3% for the traced service path); the merged result
// is committed as BENCH_obs.json.
//
// The JSON records which configuration produced it ("obs_enabled") so the
// merge script can't mix the arms up.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "charging/min_total_distance.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "svc/access_log.hpp"
#include "svc/server.hpp"
#include "svc/wire.hpp"
#include "tsp/oracle.hpp"
#include "tsp/qrooted.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "wsn/deployment.hpp"

namespace {

/// mwcd-style dispatch loop over one connection: split `fd`'s byte
/// stream into JSONL lines, submit each, write response lines back
/// under a mutex. Returns when the peer half-closes.
void serve_fd(mwc::svc::Server& server, int fd) {
  std::mutex write_mutex;
  std::string pending;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    std::size_t newline;
    while ((newline = pending.find('\n', start)) != std::string::npos) {
      const std::string line = pending.substr(start, newline - start);
      start = newline + 1;
      if (line.empty()) continue;
      server.submit_line(
          line,
          [fd, &write_mutex](const mwc::svc::Response& response) {
            const std::string out = mwc::svc::to_jsonl(response);
            std::lock_guard<std::mutex> lock(write_mutex);
            (void)!::write(fd, out.data(), out.size());
          },
          "bench");
    }
    pending.erase(0, start);
  }
}

/// One arm of the service comparison: an in-process server behind a
/// socketpair running an mwcd-style serve loop, so every round trip
/// pays what a daemon client pays — socket write, line split, wire
/// parse, queue, cache probe, response serialization, socket read —
/// minus only the network.
class SvcArm {
 public:
  SvcArm(bool traced, std::size_t n, std::size_t q,
         const std::string& access_path)
      : log_(access_path) {
    using namespace mwc;
    svc::RequestBuilder builder("warm");
    builder.preset(n, q, 1000.0, 11).horizon(100.0);
    if (traced) builder.trace_id("bench-warm-request");
    line_ = builder.to_json_line() + "\n";

    svc::ServerOptions options;
    options.threads = 1;
    options.cache_capacity = 4;
    if (traced) options.access_log = &log_;
    server_ = std::make_unique<svc::Server>(options);

    ok_ = ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) == 0;
    if (!ok_) return;
    serve_thread_ = std::thread(
        [server = server_.get(), fd = fds_[1]] { serve_fd(*server, fd); });
  }

  ~SvcArm() {
    if (!ok_) return;
    ::shutdown(fds_[0], SHUT_WR);  // serve loop sees EOF and returns
    serve_thread_.join();
    ::close(fds_[1]);
    ::close(fds_[0]);
    server_->shutdown();
  }

  bool ok() const { return ok_; }

  /// One request/response round trip; returns response bytes.
  std::size_t round_trip() {
    if (::write(fds_[0], line_.data(), line_.size()) !=
        static_cast<ssize_t>(line_.size()))
      return 0;
    // Sequential round trips: one response line, possibly split across
    // reads, never interleaved with another.
    char buf[1 << 16];
    std::size_t total = 0;
    for (;;) {
      const ssize_t r = ::read(fds_[0], buf, sizeof buf);
      if (r <= 0) return 0;
      total += static_cast<std::size_t>(r);
      if (std::memchr(buf, '\n', static_cast<std::size_t>(r)) != nullptr)
        return total;
    }
  }

 private:
  mwc::svc::AccessLog log_;
  std::unique_ptr<mwc::svc::Server> server_;
  std::string line_;
  int fds_[2] = {-1, -1};
  bool ok_ = false;
  std::thread serve_thread_;
};

/// Microseconds per warm (cache-hit) request for both arms of the
/// observability comparison — [0] plain, [1] traced (client trace id on
/// the wire forcing the stage-timing echo, plus a JSONL access log).
/// The arms run interleaved, batch by batch, so machine-level drift
/// (frequency scaling, noisy neighbours) hits both equally; each arm
/// reports its min over `reps` batches of `batch` round trips. `sink`
/// accumulates response bytes to defeat dead-code elimination.
std::array<double, 2> svc_warm_us_per_request(std::size_t n, std::size_t q,
                                              std::size_t reps,
                                              std::size_t batch,
                                              const std::string& access_path,
                                              double* sink) {
  using namespace mwc;
  SvcArm plain(false, n, q, access_path);
  SvcArm traced(true, n, q, access_path);
  if (!plain.ok() || !traced.ok()) return {-1.0, -1.0};
  SvcArm* arms[2] = {&plain, &traced};

  std::array<double, 2> best_ms = {0.0, 0.0};
  Timer timer;
  for (SvcArm* arm : arms)
    *sink += static_cast<double>(arm->round_trip());  // prime the caches
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t a = 0; a < 2; ++a) {
      timer.reset();
      for (std::size_t i = 0; i < batch; ++i)
        *sink += static_cast<double>(arms[a]->round_trip());
      const double ms = timer.elapsed_ms();
      if (r == 0 || ms < best_ms[a]) best_ms[a] = ms;
    }
  }
  return {best_ms[0] * 1000.0 / static_cast<double>(batch),
          best_ms[1] * 1000.0 / static_cast<double>(batch)};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mwc;
  CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int_or("n", 400));
  const auto q = static_cast<std::size_t>(args.get_int_or("q", 5));
  const auto reps = static_cast<std::size_t>(args.get_int_or("reps", 20));
  const std::string json_path = args.get_or("json", "");

  // Deterministic instance shared by both arms of the comparison.
  wsn::DeploymentConfig deploy;
  deploy.n = n;
  deploy.q = q;
  deploy.field_side = 1000.0;
  Rng rng(20140917);
  const wsn::Network network = wsn::deploy_random(deploy, rng);

  const tsp::DistanceOracle oracle(network.depots(), network.sensor_points());
  std::vector<std::size_t> all_ids(n);
  for (std::size_t i = 0; i < n; ++i) all_ids[i] = i;

  tsp::QRootedOptions options;
  options.improve = true;  // polish loops are the probe-heaviest path

  double checksum = 0.0;  // defeats dead-code elimination
  // One untimed warm-up run (allocator, caches) before the timed reps.
  checksum += tsp::q_rooted_tsp(oracle.dispatch_view(all_ids), q, options)
                  .total_length;

  std::vector<double> tour_times(reps);
  Timer timer;
  for (std::size_t r = 0; r < reps; ++r) {
    timer.reset();
    const auto view = oracle.dispatch_view(all_ids);
    checksum += tsp::q_rooted_tsp(view, q, options).total_length;
    tour_times[r] = timer.elapsed_ms();
  }

  // One short simulated horizon: dispatch counters, cache counters, and
  // the residual-margin histogram on every executed dispatch.
  wsn::CycleModelConfig cycle_config;
  cycle_config.tau_min = 1.0;
  cycle_config.tau_max = 20.0;
  const wsn::CycleModel cycles(network, cycle_config, 7);
  sim::SimOptions sim_options;
  sim_options.horizon = 50.0;
  std::vector<double> sim_times(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    sim::Simulator simulator(network, cycles, sim_options);
    charging::MinTotalDistancePolicy policy;
    timer.reset();
    const auto result = simulator.run(policy);
    sim_times[r] = timer.elapsed_ms();
    checksum += result.service_cost;
  }

  // Service warm path: cache-hit requests through an in-process server,
  // plain vs the full observability plane (trace ids + access log). Both
  // arms run in THIS binary, so the plain/traced delta isolates the
  // per-request cost of tracing + logging from the build-level
  // MWC_OBS=ON/OFF delta that the tour/sim sections measure.
  const auto svc_batch =
      static_cast<std::size_t>(args.get_int_or("svc-batch", 256));
  const std::string access_path = json_path.empty()
                                      ? "micro_obs_access.jsonl"
                                      : json_path + ".access.jsonl";
  const std::array<double, 2> svc_us = svc_warm_us_per_request(
      n, q, reps, svc_batch, access_path, &checksum);
  const double svc_plain_us = svc_us[0];
  const double svc_traced_us = svc_us[1];
  std::remove(access_path.c_str());

  const auto min_of = [](const std::vector<double>& v) {
    double m = v.front();
    for (double t : v) m = std::min(m, t);
    return m;
  };
  const auto mean_of = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double t : v) s += t;
    return s / static_cast<double>(v.size());
  };

  const double tour_ms = min_of(tour_times);
  const double sim_ms = min_of(sim_times);
  std::printf("micro_obs: n=%zu q=%zu reps=%zu obs_enabled=%d\n", n, q,
              reps, MWC_OBS_ENABLED);
  std::printf("  q_rooted_tsp+improve %9.3f ms/rep (min; mean %.3f)\n",
              tour_ms, mean_of(tour_times));
  std::printf("  simulator run        %9.3f ms/rep (min; mean %.3f)\n",
              sim_ms, mean_of(sim_times));
  std::printf("  svc warm plain       %9.3f us/req (min over %zu x %zu)\n",
              svc_plain_us, reps, svc_batch);
  std::printf("  svc warm traced+log  %9.3f us/req (min over %zu x %zu)\n",
              svc_traced_us, reps, svc_batch);
  std::printf("  (checksum %.3f)\n", checksum);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"micro_obs\",\n"
                 "  \"obs_enabled\": %d,\n"
                 "  \"n\": %zu,\n"
                 "  \"q\": %zu,\n"
                 "  \"reps\": %zu,\n"
                 "  \"tour_ms_per_rep\": %.6f,\n"
                 "  \"tour_ms_per_rep_mean\": %.6f,\n"
                 "  \"sim_ms_per_rep\": %.6f,\n"
                 "  \"sim_ms_per_rep_mean\": %.6f,\n"
                 "  \"svc_batch\": %zu,\n"
                 "  \"svc_plain_us_per_req\": %.6f,\n"
                 "  \"svc_traced_us_per_req\": %.6f\n"
                 "}\n",
                 MWC_OBS_ENABLED, n, q, reps, tour_ms, mean_of(tour_times),
                 sim_ms, mean_of(sim_times), svc_batch, svc_plain_us,
                 svc_traced_us);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
