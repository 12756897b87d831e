// Multi-trial experiment runner.
//
// One "data point" = `trials` independent random topologies, each simulated
// once per policy; trials run in parallel on a ThreadPool. Determinism:
// trial k derives every random stream from (seed, k), so results are
// bitwise independent of thread count and of which policies run together,
// and all policies face the *same* topologies and cycle draws (paired
// comparison, like the paper's "same 100 topologies" protocol).
//
// Policies are selected by *registry name* (see PolicyRegistry below), so
// examples, benches, and scripts/reproduce_all.sh can pick policies from
// the command line without recompiling. The runner is trial-major: each
// trial builds its topology, cycle draws, and Simulator once and runs
// every requested policy against them, so the per-network candidate graph
// and the tour-cost cache are shared across policies instead of being
// rebuilt per (policy, trial) pair.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "charging/schedule.hpp"
#include "exp/config.hpp"
#include "sim/metrics.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace mwc::exp {

/// Builds a fresh policy instance configured from the experiment
/// parameters (e.g. the paper's greedy uses Δl = τ_min of the cycle
/// distribution).
using PolicyFactory =
    std::function<std::unique_ptr<charging::Policy>(const ExperimentConfig&)>;

/// String-keyed policy registry. Keys are the display names the paper's
/// figure legends use ("MinTotalDistance", "MinTotalDistance-var",
/// "Greedy", "PeriodicAll", "PerSensorPeriodic"); the global() instance
/// comes pre-seeded with those five built-ins, and libraries/tests may
/// add their own factories (re-registering a name replaces it).
class PolicyRegistry {
 public:
  /// The process-wide registry (thread-safe).
  static PolicyRegistry& global();

  /// Registers (or replaces) a factory under `name`.
  void add(std::string name, PolicyFactory factory);

  /// Builds a fresh policy; throws std::invalid_argument (whose message
  /// lists every registered name) on unknown names.
  std::unique_ptr<charging::Policy> make(const std::string& name,
                                         const ExperimentConfig& config) const;

  bool contains(const std::string& name) const;

  /// All registered names, sorted.
  std::vector<std::string> names() const;

  /// Diagnostic for unknown-name errors: names the offending key and
  /// lists every registered name.
  std::string unknown_name_message(const std::string& name) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, PolicyFactory> factories_;
};

/// Fresh policy instance from the global registry, configured from
/// `config`. Throws std::invalid_argument on unknown names.
std::unique_ptr<charging::Policy> make_policy(const std::string& name,
                                              const ExperimentConfig& config);

/// Fresh policy instance with default experiment parameters.
std::unique_ptr<charging::Policy> make_policy(const std::string& name);

/// Display name of a registered policy (registry keys coincide with
/// Policy::name(), so this validates the name and echoes it). Throws
/// std::invalid_argument on unknown names.
std::string policy_name(const std::string& name);

struct AggregateOutcome {
  std::string name;            ///< registry / display name
  Summary cost;                ///< service cost across trials
  double mean_dispatches = 0.0;
  double mean_charges = 0.0;   ///< sensor-charges per trial
  std::size_t total_dead = 0;  ///< dead sensors summed over trials (0 = ok)
  std::size_t trials = 0;
  double wall_seconds = 0.0;   ///< total simulation wall time
};

/// Simulates one trial (topology `trial_index`) of `config` under a fresh
/// policy built from the registry. Exposed for tests and examples.
sim::SimResult run_trial(const ExperimentConfig& config,
                         const std::string& policy, std::size_t trial_index);

/// Runs all `config.trials` trials of one policy. A null pool runs
/// serially.
AggregateOutcome run_policy(const ExperimentConfig& config,
                            const std::string& policy,
                            ThreadPool* pool = nullptr);

/// Runs several policies over the same trials (paired comparison).
/// Trial-major: each trial's network, cycle draws, and Simulator are
/// built once and shared by every policy, so all policies read the same
/// candidate graph and tour-cost cache.
std::vector<AggregateOutcome> run_policies(
    const ExperimentConfig& config, std::span<const std::string> policies,
    ThreadPool* pool = nullptr);

}  // namespace mwc::exp
