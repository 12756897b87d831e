#include "exp/runner.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "charging/baselines.hpp"
#include "charging/greedy.hpp"
#include "charging/min_total_distance.hpp"
#include "charging/var_heuristic.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace mwc::exp {

PolicyRegistry& PolicyRegistry::global() {
  static PolicyRegistry* registry = [] {
    auto* r = new PolicyRegistry();
    r->add("MinTotalDistance", [](const ExperimentConfig&) {
      return std::make_unique<charging::MinTotalDistancePolicy>();
    });
    r->add("MinTotalDistance-var", [](const ExperimentConfig&) {
      return std::make_unique<charging::MinTotalDistanceVarPolicy>();
    });
    r->add("Greedy", [](const ExperimentConfig& config) {
      // The paper's greedy: request threshold Δl = τ_min of the cycle
      // distribution, requests batched at the same granularity.
      charging::GreedyOptions options;
      options.threshold = config.cycles.tau_min;
      return std::make_unique<charging::GreedyPolicy>(options);
    });
    r->add("PeriodicAll", [](const ExperimentConfig&) {
      return std::make_unique<charging::PeriodicAllPolicy>();
    });
    r->add("PerSensorPeriodic", [](const ExperimentConfig&) {
      return std::make_unique<charging::PerSensorPeriodicPolicy>();
    });
    return r;
  }();
  return *registry;
}

void PolicyRegistry::add(std::string name, PolicyFactory factory) {
  std::lock_guard<std::mutex> lock(mutex_);
  factories_[std::move(name)] = std::move(factory);
}

std::unique_ptr<charging::Policy> PolicyRegistry::make(
    const std::string& name, const ExperimentConfig& config) const {
  PolicyFactory factory;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = factories_.find(name);
    if (it != factories_.end()) factory = it->second;
  }
  // Diagnose outside the lock: unknown_name_message() re-enters names().
  if (!factory) throw std::invalid_argument(unknown_name_message(name));
  auto policy = factory(config);
  MWC_ASSERT_MSG(policy != nullptr, "policy factory returned null");
  return policy;
}

std::string PolicyRegistry::unknown_name_message(
    const std::string& name) const {
  std::string message = "unknown policy \"" + name + "\"; registered: ";
  const auto known = names();  // sorted
  for (std::size_t i = 0; i < known.size(); ++i) {
    if (i > 0) message += ", ";
    message += known[i];
  }
  if (known.empty()) message += "(none)";
  return message;
}

bool PolicyRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return factories_.contains(name);
}

std::vector<std::string> PolicyRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

std::unique_ptr<charging::Policy> make_policy(const std::string& name,
                                              const ExperimentConfig& config) {
  return PolicyRegistry::global().make(name, config);
}

std::unique_ptr<charging::Policy> make_policy(const std::string& name) {
  return make_policy(name, ExperimentConfig{});
}

std::string policy_name(const std::string& name) {
  const auto& registry = PolicyRegistry::global();
  if (!registry.contains(name)) {
    throw std::invalid_argument(registry.unknown_name_message(name));
  }
  return name;
}

sim::SimResult run_trial(const ExperimentConfig& config,
                         const std::string& policy,
                         std::size_t trial_index) {
  // Stream ids: deployment uses (seed, 2k), cycles use (seed, 2k+1), so
  // topology and cycle draws are independent but shared across policies.
  Rng deploy_rng(config.seed, 2 * trial_index);
  const wsn::Network network = wsn::deploy_random(config.deployment,
                                                  deploy_rng);
  const wsn::CycleModel cycles(network, config.cycles,
                               mix64(config.seed, 2 * trial_index + 1));
  sim::Simulator simulator(network, cycles, config.sim);
  auto p = make_policy(policy, config);
  return simulator.run(*p);
}

std::vector<AggregateOutcome> run_policies(
    const ExperimentConfig& config, std::span<const std::string> policies,
    ThreadPool* pool) {
  MWC_OBS_SCOPE("exp.run_policies");
  for (const auto& name : policies) (void)policy_name(name);  // validate

  // results[p][trial]
  std::vector<std::vector<sim::SimResult>> results(
      policies.size(), std::vector<sim::SimResult>(config.trials));

  const auto body = [&](std::size_t trial) {
    // One topology + candidate graph + cost cache per trial, shared by all
    // policies (paired comparison on identical geometry; identical
    // dispatch sets cost the same tours either way, so sharing the
    // cache cannot change any result).
    MWC_OBS_SCOPE("exp.trial");
    MWC_OBS_COUNT("exp.trials");
    Rng deploy_rng(config.seed, 2 * trial);
    const wsn::Network network = wsn::deploy_random(config.deployment,
                                                    deploy_rng);
    const wsn::CycleModel cycles(network, config.cycles,
                                 mix64(config.seed, 2 * trial + 1));
    sim::Simulator simulator(network, cycles, config.sim);
    for (std::size_t p = 0; p < policies.size(); ++p) {
      auto policy = make_policy(policies[p], config);
      results[p][trial] = simulator.run(*policy);
    }
  };
  if (pool != nullptr && config.trials > 1) {
    parallel_for(*pool, 0, config.trials, body);
  } else {
    serial_for(0, config.trials, body);
  }

  std::vector<AggregateOutcome> outcomes;
  outcomes.reserve(policies.size());
  for (std::size_t p = 0; p < policies.size(); ++p) {
    AggregateOutcome outcome;
    outcome.name = policies[p];
    outcome.trials = config.trials;
    std::vector<double> costs;
    costs.reserve(results[p].size());
    for (const auto& r : results[p]) {
      costs.push_back(r.service_cost);
      outcome.mean_dispatches +=
          static_cast<double>(r.num_dispatches) / double(config.trials);
      outcome.mean_charges +=
          static_cast<double>(r.num_sensor_charges) / double(config.trials);
      outcome.total_dead += r.dead_sensors;
      outcome.wall_seconds += r.wall_seconds;
    }
    outcome.cost = summarize(costs);
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

AggregateOutcome run_policy(const ExperimentConfig& config,
                            const std::string& policy, ThreadPool* pool) {
  const std::string names[] = {policy};
  return std::move(run_policies(config, names, pool).front());
}

}  // namespace mwc::exp
