// micro_stream — streaming-session replan latency (mwc.svc.stream.v1).
//
// For every instance size in --grid, measures
//   * cold p50         — handle_request on a fresh topology seed per
//     repeat (full resolve + solve + horizon simulation, no cache), and
//   * replan push p50  — one surge observation through a live
//     svc::SessionManager: wall time from handing the observe frame to
//     the manager until the unsolicited plan push lands in the client's
//     push callback (feasibility monitor + update_cycles synthesis +
//     Server queue + handle_delta repair + push serialization).
// Each repeat opens a fresh session and surges a different sensor set,
// so every replan derives a distinct plan (no derived-plan cache hits).
// The headline number is the cold/replan p50 ratio at the largest n:
// a deadline-triggered replan must beat re-solving from scratch, or
// pushing revised plans mid-session buys nothing.
//
// Flags: --grid 200,800,2000, --q 5, --horizon 200, --cold 5,
//        --reps 16, --surge 8, --seed 1, --json FILE
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/engine.hpp"
#include "svc/json.hpp"
#include "svc/server.hpp"
#include "svc/session.hpp"
#include "svc/wire.hpp"
#include "util/cli.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * double(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - double(lo)) * (samples[hi] - samples[lo]);
}

std::vector<std::size_t> parse_list(const std::string& spec) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const auto comma = spec.find(',', pos);
    out.push_back(static_cast<std::size_t>(
        std::stoul(spec.substr(pos, comma - pos))));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Collects unsolicited plan pushes from the manager's worker threads.
class PushMailbox {
 public:
  mwc::svc::StreamHub::PushFn fn() {
    return [this](std::string) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++count_;
      }
      cv_.notify_all();
      return true;
    };
  }

  bool wait_count(std::size_t target, std::chrono::milliseconds budget) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, budget, [&] { return count_ >= target; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t count_ = 0;
};

std::string observe_frame(std::uint64_t sid, double t,
                          const std::vector<double>& rates) {
  std::string out =
      "{\"v\":\"mwc.svc.stream.v1\",\"op\":\"observe\",\"id\":\"o\","
      "\"session\":";
  out += std::to_string(sid);
  out += ",\"t\":";
  mwc::svc::append_json_number(out, t);
  out += ",\"rates\":[";
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (i > 0) out += ',';
    mwc::svc::append_json_number(out, rates[i]);
  }
  out += "]}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  mwc::CliArgs args(argc, argv);
  args.allow_only(
      {"grid", "q", "horizon", "cold", "reps", "surge", "seed", "json"});

  const std::vector<std::size_t> grid =
      parse_list(args.get_or("grid", "200,800,2000"));
  const std::size_t q =
      static_cast<std::size_t>(args.get_int_or("q", 5, 1, 1 << 20));
  const double horizon = args.get_double_or("horizon", 200.0);
  const std::size_t cold_reps =
      static_cast<std::size_t>(args.get_int_or("cold", 5, 1, 1 << 20));
  const std::size_t reps =
      static_cast<std::size_t>(args.get_int_or("reps", 16, 1, 1 << 20));
  const std::size_t surge_sensors =
      static_cast<std::size_t>(args.get_int_or("surge", 8, 1, 1 << 20));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int_or("seed", 1, 0));
  if (!args.error().empty()) {
    std::fprintf(stderr, "micro_stream: %s\n", args.error().c_str());
    return 2;
  }
  const double field = 1000.0;

  bool failed = false;
  mwc::svc::Json rows = mwc::svc::Json::array();
  for (const std::size_t n : grid) {
    // Base cycles on a {10,20,30,40} grid: the first charging round is
    // V_0 (tau in [10,20]), so slow-cycle sensors live on the plan's
    // recharge promise — exactly what the deadline trigger watches.
    std::vector<double> tau(n);
    for (std::size_t i = 0; i < n; ++i)
      tau[i] = 10.0 + double(i % 4) * 10.0;
    const auto request_for = [&](const std::string& id,
                                 std::uint64_t topology_seed) {
      return mwc::svc::RequestBuilder(id)
          .preset(n, q, field, topology_seed)
          .cycle_values(tau)
          .horizon(horizon)
          .build();
    };

    // Cold reference: distinct topologies, no cache in sight.
    std::vector<double> cold_ms;
    for (std::size_t r = 0; r < cold_reps; ++r) {
      const auto start = Clock::now();
      const mwc::svc::Response response =
          handle_request(request_for("cold", seed + 1000 + r), nullptr);
      cold_ms.push_back(std::chrono::duration<double, std::milli>(
                            Clock::now() - start)
                            .count());
      if (!response.ok) {
        std::fprintf(stderr, "cold solve failed: %s\n",
                     response.message.c_str());
        failed = true;
      }
    }
    const double cold_p50 = quantile(cold_ms, 0.5);

    mwc::svc::ServerOptions server_options;
    server_options.threads = 2;
    mwc::svc::Server server(server_options);
    mwc::svc::SessionOptions session_options;
    session_options.max_sessions = reps + 1;
    mwc::svc::SessionManager manager(server, session_options);

    // Base plan the sessions stream against.
    mwc::svc::Response base;
    {
      std::mutex mutex;
      std::condition_variable cv;
      bool done = false;
      server.submit(request_for("base", seed),
                    [&](const mwc::svc::Response& r) {
                      std::lock_guard<std::mutex> lock(mutex);
                      base = r;
                      done = true;
                      cv.notify_all();
                    });
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return done; });
    }
    if (!base.ok) {
      std::fprintf(stderr, "base solve failed: %s\n", base.message.c_str());
      return 1;
    }
    const std::string open_line =
        "{\"v\":\"mwc.svc.stream.v1\",\"op\":\"open\",\"id\":\"o\","
        "\"base\":\"" +
        mwc::svc::fingerprint_hex(base.plan->fingerprint) + "\"}";

    std::vector<double> calm(n);
    for (std::size_t i = 0; i < n; ++i) calm[i] = 1.0 / tau[i];

    std::vector<double> replan_ms;
    std::size_t push_failures = 0;
    PushMailbox mailbox;
    for (std::size_t r = 0; r < reps; ++r) {
      bool streaming = false;
      const mwc::svc::Json ack = mwc::svc::Json::parse(
          manager.handle_frame(r + 1, open_line, mailbox.fn(),
                               &streaming));
      if (!ack.at("ok").as_bool()) {
        std::fprintf(stderr, "open failed: %s\n", ack.dump().c_str());
        return 1;
      }
      const std::uint64_t sid =
          static_cast<std::uint64_t>(ack.at("session").as_int());

      // Surge a sliding window of sensors 8x past plan, observed early
      // enough (t = 0.25) that nobody has died yet. Each repeat's
      // window differs, so each update_cycles patch derives a distinct
      // plan fingerprint.
      std::vector<double> rates = calm;
      for (std::size_t k = 0; k < surge_sensors; ++k)
        rates[(r * 131 + k) % n] *= 8.0;

      const auto start = Clock::now();
      const mwc::svc::Json observe_ack = mwc::svc::Json::parse(
          manager.handle_frame(r + 1, observe_frame(sid, 0.25, rates),
                               mailbox.fn(), &streaming));
      const bool triggered = observe_ack.at("ok").as_bool() &&
                             observe_ack.at("replan").as_bool();
      if (!triggered || !mailbox.wait_count(
                            replan_ms.size() + push_failures + 1,
                            std::chrono::seconds(30))) {
        ++push_failures;
        continue;
      }
      replan_ms.push_back(std::chrono::duration<double, std::milli>(
                              Clock::now() - start)
                              .count());
      manager.drop_connection(r + 1);
    }
    failed = failed || push_failures > 0 || replan_ms.empty();

    const double replan_p50 = quantile(replan_ms, 0.5);
    const double replan_p95 = quantile(replan_ms, 0.95);
    const double speedup = replan_p50 > 0.0 ? cold_p50 / replan_p50 : 0.0;
    // The manager counts a push *after* the client callback returns;
    // give the last worker a beat to finish bookkeeping.
    mwc::svc::StreamStats stats = manager.stats();
    for (int spin = 0; spin < 200 && stats.pushes < replan_ms.size();
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      stats = manager.stats();
    }
    std::printf("n=%-5zu cold p50 %9.3f ms  replan push p50 %8.3f ms  "
                "p95 %8.3f ms  speedup %7.1fx  (%zu pushes, %zu failures)\n",
                n, cold_p50, replan_p50, replan_p95, speedup,
                static_cast<std::size_t>(stats.pushes), push_failures);

    mwc::svc::Json row = mwc::svc::Json::object();
    row.set("n", mwc::svc::Json(n));
    row.set("q", mwc::svc::Json(q));
    row.set("surge_sensors", mwc::svc::Json(surge_sensors));
    row.set("cold_p50_ms", mwc::svc::Json(cold_p50));
    row.set("replan_push_p50_ms", mwc::svc::Json(replan_p50));
    row.set("replan_push_p95_ms", mwc::svc::Json(replan_p95));
    row.set("speedup_p50", mwc::svc::Json(speedup));
    row.set("replans", mwc::svc::Json(std::size_t(stats.replans)));
    row.set("pushes", mwc::svc::Json(std::size_t(stats.pushes)));
    row.set("failures", mwc::svc::Json(push_failures));
    rows.push_back(std::move(row));
  }

  if (const auto json_path = args.get("json")) {
    mwc::svc::Json doc = mwc::svc::Json::object();
    doc.set("bench", mwc::svc::Json("micro_stream"));
    doc.set("horizon", mwc::svc::Json(horizon));
    doc.set("cold_reps", mwc::svc::Json(cold_reps));
    doc.set("reps", mwc::svc::Json(reps));
    doc.set("rows", std::move(rows));
    std::FILE* f = std::fopen(json_path->c_str(), "w");
    if (f == nullptr) {
      std::perror("fopen --json");
      return 1;
    }
    const std::string text = doc.dump() + "\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  return failed ? 1 : 0;
}
