#include "svc/engine.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "geom/bbox.hpp"
#include "obs/obs.hpp"
#include "sim/solve.hpp"
#include "svc/delta.hpp"
#include "util/rng.hpp"
#include "wsn/deployment.hpp"
#include "wsn/sensor.hpp"
#include "wsn/trace.hpp"

namespace mwc::svc {

namespace {

constexpr double kCoordQuantum = 1e-6;  ///< metres; below survey accuracy
constexpr double kValueQuantum = 1e-9;  ///< cycles / times / options

wsn::Network build_network(const NetworkSpec& spec) {
  if (!spec.inline_points) {
    Rng deploy_rng(spec.seed, 0);
    return wsn::deploy_random(spec.deployment, deploy_rng);
  }
  std::vector<wsn::Sensor> sensors;
  sensors.reserve(spec.sensors.size());
  for (std::size_t i = 0; i < spec.sensors.size(); ++i)
    sensors.push_back(wsn::Sensor{i, spec.sensors[i], 1.0});
  // The field box only feeds candidate-graph construction; make sure it
  // covers every point even when the caller's coordinates stray outside
  // the nominal square.
  geom::BBox field = geom::BBox::square(spec.deployment.field_side);
  for (const auto& p : spec.sensors) field.expand(p);
  for (const auto& p : spec.depots) field.expand(p);
  field.expand(spec.base_station);
  return wsn::Network(std::move(sensors), spec.base_station, spec.depots,
                      field);
}

std::unique_ptr<wsn::CycleProcess> build_cycles(const CycleSpec& spec,
                                                const wsn::Network& network) {
  if (spec.inline_values) {
    if (spec.values.size() != network.n())
      throw WireError("cycles.values size != deployed sensor count");
    // One recorded slot, held for the whole horizon: the fixed-τ setting.
    return std::make_unique<wsn::TraceCycleProcess>(
        std::vector<std::vector<double>>{spec.values});
  }
  return std::make_unique<wsn::CycleModel>(network, spec.model, spec.seed);
}

exp::ExperimentConfig build_config(const Request& request,
                                   const ResolvedInstance& instance) {
  exp::ExperimentConfig config;
  config.deployment = request.network.deployment;
  config.deployment.n = instance.network.n();
  config.deployment.q = instance.network.q();
  if (request.cycles.inline_values) {
    // Synthesize the τ band the factories read (the paper's greedy uses
    // Δl = τ_min) from the explicit assignment; no jitter.
    double lo = request.cycles.values.front();
    double hi = lo;
    for (double tau : request.cycles.values) {
      if (tau < lo) lo = tau;
      if (tau > hi) hi = tau;
    }
    config.cycles.tau_min = lo;
    config.cycles.tau_max = hi;
    config.cycles.sigma = 0.0;
  } else {
    config.cycles = request.cycles.model;
  }
  config.sim = instance.sim;
  config.trials = 1;
  config.seed = request.network.seed;
  return config;
}

}  // namespace

ResolvedInstance resolve(const Request& request) {
  ResolvedInstance instance;
  instance.network = build_network(request.network);
  instance.cycles = build_cycles(request.cycles, instance.network);
  instance.sim.horizon = request.horizon;
  instance.sim.slot_length = request.slot_length;
  instance.sim.tour_options.improve = request.improve;
  instance.config = build_config(request, instance);
  return instance;
}

std::uint64_t fingerprint(const Request& request,
                          const ResolvedInstance& instance) {
  Fnv1a h;
  h.str(request.policy);
  h.quantized(request.horizon, kValueQuantum);
  h.quantized(request.slot_length, kValueQuantum);
  h.u64(request.improve ? 1 : 0);

  const wsn::Network& network = instance.network;
  h.u64(network.q());
  h.u64(network.n());
  for (const auto& p : network.depots()) {
    h.quantized(p.x, kCoordQuantum);
    h.quantized(p.y, kCoordQuantum);
  }
  h.quantized(network.base_station().x, kCoordQuantum);
  h.quantized(network.base_station().y, kCoordQuantum);
  for (const auto& p : network.sensor_points()) {
    h.quantized(p.x, kCoordQuantum);
    h.quantized(p.y, kCoordQuantum);
  }

  for (std::size_t i = 0; i < network.n(); ++i)
    h.quantized(instance.cycles->cycle_at_slot(i, 0), kValueQuantum);
  if (request.slot_length > 0.0 && !request.cycles.inline_values) {
    // Per-slot redraws: slot 0 does not pin the whole trajectory, the
    // model parameters and seed do.
    const auto& model = request.cycles.model;
    h.u64(static_cast<std::uint64_t>(model.distribution));
    h.quantized(model.tau_min, kValueQuantum);
    h.quantized(model.tau_max, kValueQuantum);
    h.quantized(model.sigma, kValueQuantum);
    h.u64(request.cycles.seed);
  }
  return h.value();
}

std::uint64_t spec_fingerprint(const Request& request) {
  Fnv1a h;
  h.str("spec");  // domain-separate from instance fingerprints
  h.str(request.policy);
  h.quantized(request.horizon, kValueQuantum);
  h.quantized(request.slot_length, kValueQuantum);
  h.u64(request.improve ? 1 : 0);

  const NetworkSpec& net = request.network;
  h.u64(net.inline_points ? 1 : 0);
  h.quantized(net.deployment.field_side, kValueQuantum);
  if (!net.inline_points) {
    h.u64(net.deployment.n);
    h.u64(net.deployment.q);
    h.u64(net.deployment.depot_at_base_station ? 1 : 0);
    h.quantized(net.deployment.battery_capacity, kValueQuantum);
    h.u64(net.seed);
  } else {
    h.u64(net.sensors.size());
    for (const auto& p : net.sensors) {
      h.quantized(p.x, kCoordQuantum);
      h.quantized(p.y, kCoordQuantum);
    }
    h.u64(net.depots.size());
    for (const auto& p : net.depots) {
      h.quantized(p.x, kCoordQuantum);
      h.quantized(p.y, kCoordQuantum);
    }
    h.quantized(net.base_station.x, kCoordQuantum);
    h.quantized(net.base_station.y, kCoordQuantum);
  }

  const CycleSpec& cycles = request.cycles;
  h.u64(cycles.inline_values ? 1 : 0);
  if (cycles.inline_values) {
    h.u64(cycles.values.size());
    for (double tau : cycles.values) h.quantized(tau, kValueQuantum);
  } else {
    h.u64(static_cast<std::uint64_t>(cycles.model.distribution));
    h.quantized(cycles.model.tau_min, kValueQuantum);
    h.quantized(cycles.model.tau_max, kValueQuantum);
    h.quantized(cycles.model.sigma, kValueQuantum);
    h.u64(cycles.seed);
  }
  return h.value();
}

namespace {

/// The answer to `request` that serves `plan` (latency left unset).
Response plan_response(const Request& request,
                       std::shared_ptr<const Plan> plan, bool cached) {
  Response response;
  response.id = request.id;
  response.trace_id = request.trace_id;
  response.version = request.version;
  response.policy = request.policy;
  response.ok = true;
  response.cached = cached;
  response.plan = std::move(plan);
  return response;
}

}  // namespace

std::optional<Response> spec_memo_hit(const Request& request,
                                      PlanCache& cache) {
  // A spec is remembered only after it resolved and fingerprinted
  // successfully, and resolution is deterministic, so the plan found
  // here is the one the resolving path would have found.
  auto plan = cache.get_by_spec(spec_fingerprint(request));
  if (plan == nullptr) return std::nullopt;
  MWC_OBS_COUNT("svc.cache.spec_fast_hits");
  return plan_response(request, std::move(plan), /*cached=*/true);
}

Response handle_request(const Request& request, PlanCache* cache,
                        StageTimings* stages) {
  MWC_OBS_SCOPE("svc.handle_request");
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&start] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  const auto with_version = [&](Response response) {
    response.version = request.version;
    response.trace_id = request.trace_id;
    response.policy = request.policy;
    return response;
  };
  const auto cache_hit = [&](Response response) {
    if (stages != nullptr) stages->cache_ms = elapsed_ms();
    response.latency_ms = elapsed_ms();
    return response;
  };

  if (cache != nullptr) {
    if (auto hit = spec_memo_hit(request, *cache))
      return cache_hit(std::move(*hit));
  }

  ResolvedInstance instance;
  try {
    instance = resolve(request);
  } catch (const std::exception& e) {
    return with_version(error_response(request.id, ErrorCode::kBadRequest,
                                       e.what(), elapsed_ms()));
  }

  std::unique_ptr<charging::Policy> policy;
  try {
    policy = exp::make_policy(request.policy, instance.config);
  } catch (const std::invalid_argument& e) {
    return with_version(error_response(request.id, ErrorCode::kUnknownPolicy,
                                       e.what(), elapsed_ms()));
  }

  const std::uint64_t key = fingerprint(request, instance);
  if (stages != nullptr) stages->cache_ms = elapsed_ms();
  if (cache != nullptr) {
    cache->spec_remember(spec_fingerprint(request), key);
    if (auto hit = cache->get(key))
      return cache_hit(plan_response(request, std::move(hit), true));
  }

  try {
    MWC_OBS_SCOPE("svc.solve");
    const double solve_start_ms = elapsed_ms();
    const sim::SolveOutcome outcome = sim::solve_network(
        instance.network, *instance.cycles, instance.sim, *policy);
    if (stages != nullptr) stages->solve_ms = elapsed_ms() - solve_start_ms;
    Plan solved = plan_from_round(outcome.first_round, instance.network.q(),
                                  key);
    solved.total_distance = outcome.result.service_cost;
    solved.num_dispatches = outcome.result.num_dispatches;
    solved.num_sensor_charges = outcome.result.num_sensor_charges;
    solved.dead_sensors = outcome.result.dead_sensors;
    auto plan = seal_plan(std::move(solved));
    if (cache != nullptr) {
      // The solver state rides along so this plan can serve as the base
      // of v2 delta requests.
      cache->put(key, plan, make_base_state(request, instance, outcome, plan));
    }
    Response response = plan_response(request, std::move(plan), false);
    response.latency_ms = elapsed_ms();
    return response;
  } catch (const std::exception& e) {
    return with_version(error_response(request.id, ErrorCode::kInternal,
                                       e.what(), elapsed_ms()));
  }
}

}  // namespace mwc::svc
