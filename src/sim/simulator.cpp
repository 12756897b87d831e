#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "obs/obs.hpp"
#include "tsp/split.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace mwc::sim {

namespace {
constexpr double kTimeTolerance = 1e-9;
}  // namespace

/// StateView implementation backed by the simulator's live arrays.
class Simulator::View final : public charging::StateView {
 public:
  View(const wsn::Network& network, double horizon)
      : network_(network), horizon_(horizon) {}

  const wsn::Network& network() const override { return network_; }
  double horizon() const override { return horizon_; }
  double now() const override { return now_; }
  double residual_life(std::size_t i) const override {
    return residual_[i];
  }
  double cycle(std::size_t i) const override { return cycles_[i]; }

  // Simulator-side mutators.
  double now_ = 0.0;
  std::vector<double> residual_;
  std::vector<double> cycles_;

 private:
  const wsn::Network& network_;
  double horizon_;
};

Simulator::Simulator(const wsn::Network& network,
                     const wsn::CycleProcess& cycles,
                     const SimOptions& options)
    : network_(network),
      cycle_model_(cycles),
      options_(options),
      oracle_(network.depots(), network.sensor_points()),
      cache_hits_c_(metrics_.counter("sim.tour_cache_hits")),
      cache_misses_c_(metrics_.counter("sim.tour_cache_misses")) {
  MWC_ASSERT(options.horizon > 0.0);
  MWC_ASSERT(cycles.n() == network.n());
}

std::vector<geom::Point> round_points(const wsn::Network& network,
                                      const std::vector<std::size_t>& sensors) {
  std::vector<geom::Point> points;
  points.reserve(network.q() + sensors.size());
  points.insert(points.end(), network.depots().begin(),
                network.depots().end());
  for (const std::size_t id : sensors) {
    MWC_ASSERT_MSG(id < network.n(), "round sensor id out of range");
    points.push_back(network.sensor_points()[id]);
  }
  return points;
}

std::uint64_t Simulator::set_hash(const std::vector<std::size_t>& sensors) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL + sensors.size();
  for (std::size_t id : sensors) h = mix64(h, id);
  return h;
}

const Simulator::TourCost& Simulator::dispatch_cost(
    const std::vector<std::size_t>& sensors) {
  const std::uint64_t key = set_hash(sensors);
  if (const auto it = cost_cache_.find(key); it != cost_cache_.end()) {
    cache_hits_c_.add(1);
    MWC_OBS_COUNT("sim.tour_cache_hits");
    return it->second;
  }
  cache_misses_c_.add(1);
  MWC_OBS_COUNT("sim.tour_cache_misses");
  MWC_OBS_SCOPE("sim.compute_tour_cost");

  // Candidate indices must coincide with view-local indices, so the set
  // gets a graph over its own round points.
  tsp::QRootedOptions topts = options_.tour_options;
  std::shared_ptr<const tsp::CandidateGraph> graph;
  if (topts.candidates == nullptr) {
    graph = std::make_shared<const tsp::CandidateGraph>(
        tsp::CandidateGraph::build(round_points(network_, sensors),
                                   topts.candidate_options));
    topts.candidates = graph.get();
  }
  const auto distances = oracle_.dispatch_view(sensors);
  tsp::QRootedTours tours =
      tsp::q_rooted_tsp(distances, network_.q(), topts);

  TourCost cost;
  cost.per_depot.reserve(tours.tours.size());
  for (std::size_t l = 0; l < tours.tours.size(); ++l) {
    // Range-limited vehicles split each tour into capacity-respecting
    // trips; each depot's trip lengths accumulate on its charger.
    const double depot_cost =
        options_.trip_capacity > 0.0
            ? tsp::split_tour_capacity(distances, tours.tours[l], l,
                                       options_.trip_capacity)
                  .total_length
            : tours.tours[l].length_with(distances);
    cost.per_depot.push_back(depot_cost);
    cost.total += depot_cost;  // unsplit: the same sum as total_length
  }

  if (!first_round_)
    first_round_ = CostedRound{sensors, std::move(tours), std::move(graph)};
  return cost_cache_.emplace(key, std::move(cost)).first->second;
}

SimResult Simulator::run(charging::Policy& policy) {
  MWC_OBS_SCOPE("sim.run");
  Timer timer;
  SimResult result;
  const std::size_t hits_before = cache_hits_c_.value();
  const std::size_t misses_before = cache_misses_c_.value();
  const std::size_t n = network_.n();
  const double T = options_.horizon;

  View view(network_, T);
  view.now_ = 0.0;
  view.cycles_ = cycle_model_.cycles_at_slot(0);
  view.residual_ = view.cycles_;  // all sensors fully charged at t = 0

  result.per_charger_cost.assign(network_.q(), 0.0);
  std::vector<bool> currently_dead(n, false);
  std::vector<bool> ever_dead(n, false);

  policy.reset(view);

  std::size_t slot = 0;
  const bool variable = options_.slot_length > 0.0;

  // Advances the clock to `target`, recording depletion events.
  const auto advance_to = [&](double target) {
    const double delta = target - view.now_;
    MWC_DEBUG_ASSERT(delta >= -kTimeTolerance);
    if (delta <= 0.0) {
      view.now_ = target;
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!currently_dead[i] && view.residual_[i] < delta - kTimeTolerance) {
        currently_dead[i] = true;
        if (!ever_dead[i]) {
          ever_dead[i] = true;
          ++result.dead_sensors;
        }
        result.deaths.push_back(DeathEvent{i, view.now_ + view.residual_[i]});
      }
      view.residual_[i] = std::max(0.0, view.residual_[i] - delta);
    }
    view.now_ = target;
  };

  while (view.now_ < T) {
    const double next_slot_time =
        variable ? static_cast<double>(slot + 1) * options_.slot_length
                 : std::numeric_limits<double>::infinity();

    auto dispatch = policy.next_dispatch(view);
    double dispatch_time = std::numeric_limits<double>::infinity();
    if (dispatch) {
      MWC_ASSERT_MSG(dispatch->time >= view.now_ - kTimeTolerance,
                     "policy scheduled a dispatch in the past");
      MWC_ASSERT_MSG(!dispatch->sensors.empty(),
                     "policy scheduled an empty dispatch");
      dispatch_time = std::max(dispatch->time, view.now_);
    }

    const double t_next = std::min({next_slot_time, dispatch_time, T});
    advance_to(t_next);
    if (view.now_ >= T) break;

    if (dispatch && dispatch_time <= t_next + kTimeTolerance &&
        dispatch_time <= next_slot_time) {
      // Execute the dispatch.
      MWC_OBS_SCOPE("sim.dispatch");
      const TourCost& cost = dispatch_cost(dispatch->sensors);
      result.service_cost += cost.total;
      for (std::size_t l = 0; l < cost.per_depot.size(); ++l)
        result.per_charger_cost[l] += cost.per_depot[l];
      ++result.num_dispatches;
      result.num_sensor_charges += dispatch->sensors.size();
      if (options_.record_dispatches) {
        result.dispatch_log.push_back(
            DispatchRecord{dispatch_time, dispatch->sensors, cost.total});
      }
      double dispatch_margin = std::numeric_limits<double>::infinity();
      for (std::size_t id : dispatch->sensors) {
        dispatch_margin = std::min(dispatch_margin, view.residual_[id]);
        view.residual_[id] = view.cycles_[id];
        currently_dead[id] = false;
      }
      result.min_residual_at_charge =
          std::min(result.min_residual_at_charge, dispatch_margin);
      MWC_OBS_COUNT("sim.dispatches");
      MWC_OBS_COUNT_N("sim.sensor_charges", dispatch->sensors.size());
      MWC_OBS_GAUGE_ADD("sim.service_cost_total", cost.total);
      // Tightest residual lifetime among this round's sensors: the margin
      // by which the policy beat depletion (time units of the cycle τ).
      MWC_OBS_HISTOGRAM("sim.residual_margin", dispatch_margin, 0.5, 1.0,
                        2.0, 5.0, 10.0, 20.0, 50.0);
      policy.on_dispatch_executed(view, *dispatch);
      if (result.num_dispatches > options_.max_dispatches)
        throw DispatchCapExceeded(
            "dispatch cap exceeded (runaway policy?): more than " +
            std::to_string(options_.max_dispatches) + " dispatches");
      continue;
    }

    if (variable && view.now_ + kTimeTolerance >= next_slot_time) {
      // Slot boundary: redraw cycles; residual energy *fraction* carries
      // over, so residual lifetime rescales by τ_new / τ_old.
      ++slot;
      const auto new_cycles = cycle_model_.cycles_at_slot(slot);
      for (std::size_t i = 0; i < n; ++i) {
        const double old_tau = view.cycles_[i];
        if (old_tau > 0.0) {
          view.residual_[i] *= new_cycles[i] / old_tau;
        }
        view.cycles_[i] = new_cycles[i];
      }
      policy.on_cycles_updated(view);
    }
  }

  // SimResult's cache counters and wall time are sourced from the
  // per-instance metrics registry (fields kept, values identical to the
  // pre-registry hand-threaded members).
  result.tour_cache_hits = cache_hits_c_.value() - hits_before;
  result.tour_cache_misses = cache_misses_c_.value() - misses_before;
  obs::Gauge& wall = metrics_.gauge("sim.run_wall_seconds");
  wall.set(timer.elapsed_seconds());
  result.wall_seconds = wall.value();
  return result;
}

}  // namespace mwc::sim
