// Event-driven network simulator.
//
// Time is continuous. Per-sensor state is the residual lifetime — the time
// left until depletion at the current consumption rate; this is exact for
// piecewise-constant rates, which is what the slot model produces:
//   * advancing by δ subtracts δ,
//   * a full charge resets it to the current cycle τ_i(t),
//   * a slot redraw rescales it by τ_new/τ_old (the *energy fraction* is
//     what carries over when the consumption rate changes).
//
// The simulator alternates between the policy's next planned dispatch and
// the next slot boundary (variable-cycle runs only), executes whichever
// comes first, and charges each dispatch's service cost as the total
// length of the q closed tours that Algorithm 2 (tsp::q_rooted_tsp) builds
// over the dispatch set — identical costing for every policy. Costs are
// memoized by dispatch set, which collapses the K+1 distinct round classes
// of MinTotalDistance to K+1 tour constructions per run. The first round
// it costs is kept whole (tours, forest, candidate graph): that is the
// round sim::solve_network serves, so no caller builds it a second time.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "charging/schedule.hpp"
#include "obs/registry.hpp"
#include "sim/metrics.hpp"
#include "tsp/candidates.hpp"
#include "tsp/oracle.hpp"
#include "tsp/qrooted.hpp"
#include "wsn/cycles.hpp"
#include "wsn/network.hpp"

namespace mwc::sim {

struct SimOptions {
  double horizon = 1000.0;     ///< monitoring period T
  /// Slot length ΔT for cycle redraws; <= 0 freezes cycles at slot 0
  /// (the fixed-maximum-charging-cycle setting).
  double slot_length = 0.0;
  /// How each round's q tours are built (construction heuristic +
  /// optional 2-opt/Or-opt polish). Defaults match the paper. Unless the
  /// options already carry a graph, the simulator gives every round a
  /// k-NN candidate graph over the round's own points (depots, then the
  /// dispatch set in order), so the MSF runs candidate-pruned Prim and
  /// non-exhaustive polish scans candidates. The graph is built with the
  /// memoized cost, so each distinct set builds one.
  tsp::QRootedOptions tour_options;
  /// Per-trip travel budget of each charger (metres); > 0 splits every
  /// round's tours via tsp::split_tour_capacity, adding the
  /// return legs a range-limited vehicle actually drives. <= 0 matches
  /// the paper's unlimited-range model.
  double trip_capacity = 0.0;
  /// Record every executed dispatch into SimResult::dispatch_log (for
  /// replay validation and debugging). The log grows with the horizon.
  bool record_dispatches = false;
  /// Hard cap on dispatches per run (guards against a runaway policy);
  /// exceeding it throws DispatchCapExceeded.
  std::size_t max_dispatches = 10'000'000;
};

/// Thrown by Simulator::run when a policy executes more than
/// SimOptions::max_dispatches dispatches in one run.
class DispatchCapExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A round's own point space, in which its tours, forest and candidate
/// graph are labelled: the q depots, then `sensors` in order.
std::vector<geom::Point> round_points(const wsn::Network& network,
                                      const std::vector<std::size_t>& sensors);

/// The first round a simulator costed, kept as Algorithm 2 built it.
struct CostedRound {
  std::vector<std::size_t> sensors;  ///< the dispatch set, in round order
  /// Tours and forest in the labels of oracle().dispatch_view(sensors):
  /// depot l is node l, sensors[j] is node q + j. Never split by
  /// trip_capacity (the split only changes what the round is charged).
  tsp::QRootedTours tours;
  /// The k-NN graph the tours were built over, in the same labels. Null
  /// when SimOptions::tour_options.candidates supplied the graph.
  std::shared_ptr<const tsp::CandidateGraph> candidates;
};

class Simulator {
 public:
  Simulator(const wsn::Network& network, const wsn::CycleProcess& cycles,
            const SimOptions& options);

  /// Runs one full monitoring period under `policy`. Restartable: each
  /// call re-initializes all state (the tour-cost cache persists across
  /// runs; it depends only on the network geometry and options). Throws
  /// DispatchCapExceeded when the policy outruns max_dispatches.
  SimResult run(charging::Policy& policy);

  /// The first dispatch set this simulator costed — the first executed
  /// dispatch of its first run — with the tours it was charged for
  /// (their total is the logged cost unless trip_capacity splits the
  /// round). Empty until a dispatch is costed.
  const std::optional<CostedRound>& first_round() const noexcept {
    return first_round_;
  }

  const SimOptions& options() const noexcept { return options_; }

  /// The network's q depots plus all n sensors in the combined index
  /// space (depot l at l, sensor i at q + i); every round is costed on
  /// one of its direct dispatch views.
  const tsp::DistanceOracle& oracle() const noexcept { return oracle_; }

  /// Tour-cache statistics since construction, read from the simulator's
  /// metrics registry (run() snapshots the per-run delta into SimResult).
  std::size_t tour_cache_hits() const noexcept {
    return cache_hits_c_.value();
  }
  std::size_t tour_cache_misses() const noexcept {
    return cache_misses_c_.value();
  }

  /// Per-instance telemetry registry: the authoritative source of
  /// SimResult::tour_cache_hits/misses and wall_seconds. Instance-local
  /// (not obs::Registry::global()) so per-run deltas stay exact when
  /// many simulators run concurrently; the global registry receives the
  /// same events through MWC_OBS_* macros for process-wide aggregation.
  const obs::Registry& metrics() const noexcept { return metrics_; }
  obs::Registry& metrics() noexcept { return metrics_; }

 private:
  class View;

  struct TourCost {
    double total = 0.0;
    std::vector<double> per_depot;
  };

  /// The memoized cost of one dispatch set; a miss builds the set's
  /// tours (and keeps them if they are the first round).
  const TourCost& dispatch_cost(const std::vector<std::size_t>& sensors);
  static std::uint64_t set_hash(const std::vector<std::size_t>& sensors);

  const wsn::Network& network_;
  const wsn::CycleProcess& cycle_model_;
  SimOptions options_;
  tsp::DistanceOracle oracle_;
  std::unordered_map<std::uint64_t, TourCost> cost_cache_;
  std::optional<CostedRound> first_round_;
  obs::Registry metrics_;
  obs::Counter& cache_hits_c_;    ///< metrics_ "sim.tour_cache_hits"
  obs::Counter& cache_misses_c_;  ///< metrics_ "sim.tour_cache_misses"
};

}  // namespace mwc::sim
