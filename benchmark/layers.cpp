#include "layers.hpp"

#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>

#include "exp/runner.hpp"
#include "obs/span.hpp"
#include "sim/simulator.hpp"
#include "sim/solve.hpp"
#include "svc/delta.hpp"
#include "svc/engine.hpp"
#include "svc/plan_cache.hpp"
#include "tsp/candidates.hpp"
#include "tsp/construct.hpp"
#include "tsp/improve.hpp"
#include "tsp/oracle.hpp"
#include "tsp/qrooted.hpp"

namespace mwcbench {

namespace {

namespace svc = mwc::svc;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kCold2kInstances = 50;
constexpr std::size_t kCold10kInstances = 4;
constexpr std::size_t kMixedDeltas = 200;
constexpr std::size_t kMixedColds = 20;
/// Repeats of each microsecond-scale call, timed as one block.
constexpr int kReps = 20;

template <typename F>
double time_ms(F&& f) {
  const auto start = Clock::now();
  f();
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Mean microseconds per call of `f` over kReps back-to-back calls.
template <typename F>
double time_us_per_call(F&& f) {
  return time_ms([&] {
           for (int i = 0; i < kReps; ++i) f();
         }) *
         1000.0 / kReps;
}

/// Per-call means of one request class (hit, delta or cold).
class Table {
 public:
  void add(const std::string& name, double value) {
    auto& [sum, n] = sums_[name];
    sum += value;
    ++n;
  }
  bool has(const std::string& name) const { return sums_.count(name) > 0; }
  double mean(const std::string& name) const {
    const auto& [sum, n] = sums_.at(name);
    return sum / static_cast<double>(n);
  }
  double sum(const std::string& name) const {
    return has(name) ? sums_.at(name).first : 0.0;
  }

 private:
  std::map<std::string, std::pair<double, std::size_t>> sums_;
};

/// Summed duration of the library's own spans named `name` since the
/// last obs::reset_trace() (layers whose inputs only exist inside one
/// public call; 0 under MWC_OBS=OFF builds).
double span_ms(const std::vector<mwc::obs::TraceEvent>& events,
               const char* name) {
  double us = 0.0;
  for (const auto& e : events)
    if (std::strcmp(e.name, name) == 0) us += e.dur_us;
  return us / 1000.0;
}

void require_ok(const svc::Response& response, const char* what) {
  if (!response.ok)
    throw std::runtime_error(std::string(what) + " failed: " +
                             response.message);
}

/// Simulator::run on a fresh oracle, the first round's tours on the
/// oracle it warmed, and the simulator's teardown: together what
/// solve_network does. In between, the MSF, tour construction and polish
/// over each distinct dispatch set, on the warm oracle so row fills stay
/// out of them. Returns the distinct sets.
std::set<std::vector<std::size_t>> replay_simulator(
    const svc::Request& request, const svc::ResolvedInstance& instance,
    Table& t) {
  mwc::sim::SimOptions options = instance.sim;
  options.record_dispatches = true;
  auto policy = mwc::exp::make_policy(request.policy, instance.config);
  auto simulator = std::make_unique<mwc::sim::Simulator>(
      instance.network, *instance.cycles, options);
  mwc::sim::SimResult result;
  const double run_ms = time_ms([&] { result = simulator->run(*policy); });
  if (result.dispatch_log.empty())
    throw std::runtime_error("replayed instance never dispatched");
  const std::size_t q = instance.network.q();
  const mwc::tsp::DistanceOracle& oracle = simulator->oracle();
  const double first_tsp_ms = time_ms([&] {
    (void)mwc::tsp::q_rooted_tsp(
        oracle.dispatch_view(result.dispatch_log.front().sensors), q,
        options.tour_options);
  });
  t.add("sim.run_ms", run_ms);
  t.add("sim.first_round_tsp_ms", first_tsp_ms);
  t.add("sim.dispatches", static_cast<double>(result.num_dispatches));
  t.add("sim.tour_cache_hit_ratio",
        static_cast<double>(result.tour_cache_hits) /
            static_cast<double>(result.tour_cache_hits +
                                result.tour_cache_misses));
  // Computed bytes: materialized rows x row length x sizeof(double).
  const double rows = static_cast<double>(oracle.rows_materialized());
  t.add("tsp.oracle.rows", rows);
  t.add("tsp.oracle.mbytes",
        rows * static_cast<double>(oracle.size()) * 8.0 / (1024.0 * 1024.0));

  std::set<std::vector<std::size_t>> sets;
  for (const auto& d : result.dispatch_log) sets.insert(d.sensors);
  const bool improve = options.tour_options.improve;
  double msf_ms = 0.0, build_ms = 0.0, polish_ms = 0.0, cand_ms = 0.0;
  for (const auto& s : sets) {
    const auto view = oracle.dispatch_view(s);
    mwc::tsp::QRootedForest forest;
    msf_ms += time_ms([&] { forest = mwc::tsp::q_rooted_msf(view, q); });
    // Algorithm 2's construction step, as q_rooted_tsp runs it per tree.
    std::vector<mwc::tsp::Tour> tours;
    build_ms += time_ms([&] {
      for (const auto& tree : forest.trees)
        tours.push_back(mwc::tsp::tree_to_tour(tree.edges(), tree.root()));
    });
    if (!improve) continue;
    // Candidate-mode polish over the set's own k-NN graph, as the
    // simulator builds and applies it.
    std::vector<mwc::geom::Point> points(instance.network.depots());
    for (const std::size_t id : s)
      points.push_back(instance.network.sensor_points()[id]);
    mwc::tsp::CandidateGraph graph;
    cand_ms += time_ms([&] {
      graph = mwc::tsp::CandidateGraph::build(
          points, options.tour_options.candidate_options);
    });
    mwc::tsp::ImproveOptions polish = options.tour_options.improve_options;
    polish.candidates = &graph;
    polish_ms += time_ms([&] {
      for (auto& tour : tours)
        if (tour.size() >= 4) (void)mwc::tsp::improve_tour(tour, view, polish);
    });
  }
  t.add("tsp.msf_ms", msf_ms);
  t.add("tsp.msf_calls", static_cast<double>(sets.size()));
  t.add("tsp.tour_build_ms", build_ms);
  if (improve) {
    t.add("tsp.polish_ms", polish_ms);
    t.add("tsp.candidates.build_ms", cand_ms);
  }
  // Releasing the oracle's rows: 800 MB at n=10k.
  t.add("sim.teardown_ms", time_ms([&] { simulator.reset(); }));
  return sets;
}

/// A full request that reaches the solver: engine steps one by one, the
/// whole handle_request, then the simulator and tour layers underneath.
void replay_cold(const svc::Request& request, Table& t) {
  const std::string line = svc::to_json(request);
  t.add("svc.wire.parse_any_request_us",
        time_us_per_call([&] { (void)svc::parse_any_request(line); }));
  t.add("svc.engine.spec_fingerprint_us",
        time_us_per_call([&] { (void)svc::spec_fingerprint(request); }));

  svc::ResolvedInstance instance;
  const double resolve_ms =
      time_ms([&] { instance = svc::resolve(request); });
  std::uint64_t key = 0;
  const double fingerprint_us = time_us_per_call(
      [&] { key = svc::fingerprint(request, instance); });
  auto policy = mwc::exp::make_policy(request.policy, instance.config);
  mwc::sim::SolveOutcome outcome;
  const double solve_ms = time_ms([&] {
    outcome = mwc::sim::solve_network(instance.network, *instance.cycles,
                                      instance.sim, *policy);
  });
  const double base_state_ms = time_ms([&] {
    (void)svc::make_base_state(request, instance, outcome, nullptr);
  });

  svc::PlanCache cache(4, 1);
  t.add("svc.plan_cache.get_us",
        time_us_per_call([&] { (void)cache.get(key); }));  // the miss
  svc::Response response;
  const double handle_ms =
      time_ms([&] { response = svc::handle_request(request, &cache); });
  require_ok(response, "handle_request");
  t.add("svc.wire.to_jsonl_us",
        time_us_per_call([&] { (void)svc::to_jsonl(response); }));

  t.add("svc.engine.resolve_ms", resolve_ms);
  t.add("svc.engine.fingerprint_us", fingerprint_us);
  t.add("sim.solve_network_ms", solve_ms);
  t.add("svc.delta.make_base_state_ms", base_state_ms);
  t.add("svc.engine.handle_request_ms", handle_ms);
  t.add("engine.covered_ms",
        resolve_ms + fingerprint_us / 1000.0 + solve_ms + base_state_ms);

  // Row fills: the MSFs of every distinct dispatch set on a fresh oracle,
  // minus the same MSFs again on the oracle they filled.
  const auto sets = replay_simulator(request, instance, t);
  const std::size_t q = instance.network.q();
  const mwc::tsp::DistanceOracle fresh(instance.network.depots(),
                                       instance.network.sensor_points());
  const auto all_msfs = [&] {
    return time_ms([&] {
      for (const auto& s : sets)
        (void)mwc::tsp::q_rooted_msf(fresh.dispatch_view(s), q);
    });
  };
  const double filling = all_msfs();
  t.add("tsp.oracle.fill_ms", filling - all_msfs());
}

/// A warm request line: parse, the fast-lane probe, the hit, the reply.
void replay_hit(const svc::Request& request, svc::PlanCache& cache,
                Table& t) {
  const std::string line = svc::to_json(request);
  t.add("svc.wire.parse_any_request_us",
        time_us_per_call([&] { (void)svc::parse_any_request(line); }));
  t.add("svc.engine.spec_fingerprint_us",
        time_us_per_call([&] { (void)svc::spec_fingerprint(request); }));
  svc::Response response;
  t.add("svc.engine.handle_request_ms", time_us_per_call([&] {
          response = svc::handle_request(request, &cache);
        }) / 1000.0);
  require_ok(response, "warm handle_request");
  if (!response.cached) throw std::runtime_error("warm replay missed");
  const std::uint64_t key = response.plan->fingerprint;
  t.add("svc.plan_cache.get_us",
        time_us_per_call([&] { (void)cache.get(key); }));
  t.add("svc.wire.to_jsonl_us",
        time_us_per_call([&] { (void)svc::to_jsonl(response); }));
}

/// A v2 delta: parse, fold, and the whole handle_delta, whose repair
/// steps are read from the library's spans inside it.
void replay_delta(const svc::DeltaRequest& request, svc::PlanCache& cache,
                  Table& t) {
  const std::string line = svc::to_json(request);
  t.add("svc.wire.parse_any_request_us",
        time_us_per_call([&] { (void)svc::parse_any_request(line); }));
  const auto base = cache.get_state(request.base_fingerprint);
  if (base == nullptr) throw std::runtime_error("delta base not cached");
  t.add("svc.delta.fold_patch_us", time_us_per_call([&] {
          (void)svc::fold_patch(request.patch, base->network.n(),
                                base->network.q(), base->charger_active);
        }));
  mwc::obs::reset_trace();
  mwc::obs::set_trace_enabled(true);
  svc::Response response;
  const double handle_ms =
      time_ms([&] { response = svc::handle_delta(request, &cache); });
  mwc::obs::set_trace_enabled(false);
  require_ok(response, "handle_delta");
  if (!response.derived || response.cached)
    throw std::runtime_error("delta replay was not a fresh derivation");
  const auto events = mwc::obs::trace_events();
  t.add("svc.delta.handle_delta_ms", handle_ms);
  t.add("sim.replan_round_ms", span_ms(events, "sim.replan_round"));
  t.add("tsp.cand_repair_ms", span_ms(events, "tsp.cand_repair"));
  t.add("tsp.msf_repair_ms", span_ms(events, "tsp.msf_repair"));
  t.add("svc.wire.to_jsonl_us",
        time_us_per_call([&] { (void)svc::to_jsonl(response); }));
}

void prime_warm(std::uint64_t seed, svc::PlanCache& cache) {
  for (std::size_t w = 0; w < kWarmInstances; ++w)
    require_ok(svc::handle_request(warm_request(seed, w), &cache), "priming");
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      // [W] traced TCP run.
      {"trace.latency_ms.mean", "ms"},
      {"trace.latency_ms.p50", "ms"},
      {"svc.net.other_ms.mean", "ms"},
      {"svc.net.other_ms.p50", "ms"},
      {"svc.net.other_ms.tail", "ms"},
      {"svc.net.responses_per_wakeup", "count"},
      {"svc.net.bytes_per_response", "B"},
      {"svc.wire.parse_ms.mean", "ms"},
      {"svc.wire.parse_ms.p50", "ms"},
      {"svc.server.queue_ms.mean", "ms"},
      {"svc.server.queue_ms.p50", "ms"},
      {"svc.server.queue_ms.tail", "ms"},
      {"svc.server.rejected", "count"},
      {"svc.engine.cache_ms.mean", "ms"},
      {"svc.engine.cache_ms.p50", "ms"},
      {"svc.engine.solve_ms.mean", "ms"},
      {"svc.engine.solve_ms.p50", "ms"},
      {"svc.plan_cache.hit_ratio", "fraction"},
      {"svc.plan_cache.evictions", "count"},
      {"svc.delta.replan_ratio", "fraction"},
      // [P] in-process replay.
      {"svc.wire.parse_any_request_us", "us"},
      {"svc.wire.to_jsonl_us", "us"},
      {"svc.engine.spec_fingerprint_us", "us"},
      {"svc.engine.resolve_ms", "ms"},
      {"svc.engine.fingerprint_us", "us"},
      {"svc.engine.handle_request_ms", "ms"},
      {"svc.plan_cache.get_us", "us"},
      {"svc.delta.make_base_state_ms", "ms"},
      {"svc.delta.fold_patch_us", "us"},
      {"svc.delta.handle_delta_ms", "ms"},
      {"sim.solve_network_ms", "ms"},
      {"sim.run_ms", "ms"},
      {"sim.first_round_tsp_ms", "ms"},
      {"sim.teardown_ms", "ms"},
      {"sim.dispatches", "count"},
      {"sim.tour_cache_hit_ratio", "fraction"},
      {"sim.replan_round_ms", "ms"},
      {"tsp.oracle.rows", "count"},
      {"tsp.oracle.mbytes", "MiB"},
      {"tsp.oracle.fill_ms", "ms"},
      {"tsp.msf_ms", "ms"},
      {"tsp.msf_calls", "count"},
      {"tsp.tour_build_ms", "ms"},
      {"tsp.polish_ms", "ms"},
      {"tsp.candidates.build_ms", "ms"},
      {"tsp.cand_repair_ms", "ms"},
      {"tsp.msf_repair_ms", "ms"},
      {"sim.solve_coverage", "fraction"},
      {"svc.engine.coverage", "fraction"},
  };
  return metrics;
}

LayerValues replay_layers(const WorkloadSpec& spec, std::uint64_t seed) {
  // Per class: the calls of that request class and its share of the
  // workload's requests, which weights a call several classes make.
  struct Class {
    Table table;
    double share = 0.0;
  };
  Class hit, delta, cold;
  switch (spec.id) {
    case Workload::kCold2k:
    case Workload::kCold10k: {
      const bool small = spec.id == Workload::kCold2k;
      cold.share = 1.0;
      for (std::size_t k = 0; k < (small ? kCold2kInstances : kCold10kInstances);
           ++k)
        replay_cold(cold_request(seed, small ? 2000 : 10000, k), cold.table);
      break;
    }
    case Workload::kWarmPipelined: {
      hit.share = 1.0;
      svc::PlanCache cache(64, 8);
      prime_warm(seed, cache);
      for (std::size_t w = 0; w < kWarmInstances; ++w)
        replay_hit(warm_request(seed, w), cache, hit.table);
      break;
    }
    case Workload::kMixedOpen: {
      hit.share = kMixedHitShare;
      delta.share = kMixedDeltaShare;
      cold.share = 1.0 - kMixedHitShare - kMixedDeltaShare;
      svc::PlanCache cache(1024, 8);
      prime_warm(seed, cache);
      std::vector<std::uint64_t> base_fp;
      for (std::size_t b = 0; b < kDeltaBases; ++b) {
        const svc::Response base =
            svc::handle_request(delta_base_request(seed, b), &cache);
        require_ok(base, "priming a delta base");
        base_fp.push_back(base.plan->fingerprint);
      }
      for (std::size_t w = 0; w < kWarmInstances; ++w)
        replay_hit(warm_request(seed, w), cache, hit.table);
      for (std::size_t d = 0; d < kMixedDeltas; ++d) {
        const std::size_t b = base_of_delta(seed, d);
        const auto base = cache.get_state(base_fp[b]);
        svc::DeltaRequest request = svc::DeltaBuilder("p", base_fp[b]).build();
        request.patch = delta_patch(seed, d, base->network.n());
        replay_delta(request, cache, delta.table);
      }
      for (std::size_t k = 0; k < kMixedColds; ++k)
        replay_cold(mixed_cold_request(seed, k), cold.table);
      break;
    }
  }

  LayerValues out;
  for (const auto& [name, unit] : layer_metrics()) {
    double weighted = 0.0, weights = 0.0;
    for (const Class* c : {&hit, &delta, &cold}) {
      if (!c->table.has(name)) continue;
      weighted += c->share * c->table.mean(name);
      weights += c->share;
    }
    if (weights > 0.0) out[name] = weighted / weights;
  }
  // Coverage ratios over the replayed cold solves (sums, not means of
  // ratios): how much of each enclosing call its timed parts explain.
  const Table& t = cold.table;
  if (t.has("sim.solve_network_ms")) {
    out["sim.solve_coverage"] =
        (t.sum("sim.run_ms") + t.sum("sim.first_round_tsp_ms") +
         t.sum("sim.teardown_ms")) /
        t.sum("sim.solve_network_ms");
    out["svc.engine.coverage"] =
        t.sum("engine.covered_ms") / t.sum("svc.engine.handle_request_ms");
  }
  return out;
}

}  // namespace mwcbench
