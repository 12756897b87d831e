#include "sim/solve.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "charging/min_total_distance.hpp"
#include "geom/point.hpp"
#include "util/rng.hpp"
#include "wsn/cycles.hpp"
#include "wsn/deployment.hpp"

namespace mwc::sim {
namespace {

wsn::Network small_network(std::uint64_t seed = 3) {
  wsn::DeploymentConfig config;
  config.n = 30;
  config.q = 3;
  config.field_side = 400.0;
  Rng rng(seed, 0);
  return wsn::deploy_random(config, rng);
}

/// Solves and checks that the served first round is the round the
/// simulator costed.
void expect_first_round_matches_log(const wsn::Network& network,
                                    const wsn::CycleProcess& cycles,
                                    SimOptions options) {
  options.record_dispatches = true;
  charging::MinTotalDistancePolicy policy;
  const SolveOutcome outcome =
      solve_network(network, cycles, options, policy);

  ASSERT_FALSE(outcome.result.dispatch_log.empty());
  const auto& first = outcome.result.dispatch_log.front();
  const RoundPlan& round = outcome.first_round;
  EXPECT_EQ(round.sensors, first.sensors);
  EXPECT_EQ(round.tours.size(), network.q());
  ASSERT_EQ(round.tour_lengths.size(), round.tours.size());

  // The rebuilt tours cost exactly what the simulator charged the round.
  EXPECT_DOUBLE_EQ(round.total_length, first.cost);
  double sum = 0.0;
  for (double len : round.tour_lengths) sum += len;
  EXPECT_NEAR(sum, round.total_length, 1e-9);

  // Tours are in combined labels and partition the dispatch set: every
  // listed sensor appears in exactly one tour.
  std::vector<std::size_t> covered;
  for (const auto& tour : round.tours) {
    for (std::size_t node : tour.order()) {
      if (node >= network.q()) covered.push_back(node - network.q());
    }
  }
  std::vector<std::size_t> expected = first.sensors;
  std::sort(covered.begin(), covered.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(covered, expected);
}

TEST(SolveNetwork, FirstRoundMatchesDispatchLog) {
  {
    SCOPED_TRACE("n=30, improve off");
    const wsn::Network network = small_network();
    const wsn::CycleModel cycles(network, wsn::CycleModelConfig{}, 11);
    SimOptions options;
    options.horizon = 300.0;
    expect_first_round_matches_log(network, cycles, options);
  }
  {
    // Tours well above candidate_min_nodes, so the costing polished them
    // in candidate mode; the served round must be polished the same way.
    SCOPED_TRACE("n=400, improve on");
    wsn::DeploymentConfig config;
    config.n = 400;
    config.q = 3;
    Rng rng(5, 0);
    const wsn::Network network = wsn::deploy_random(config, rng);
    wsn::CycleModelConfig fixed;
    fixed.tau_min = fixed.tau_max = 5.0;
    const wsn::CycleModel cycles(network, fixed, 5);
    SimOptions options;
    options.horizon = 20.0;
    options.tour_options.improve = true;
    expect_first_round_matches_log(network, cycles, options);
  }
}

TEST(SolveNetwork, KeepsNoDispatchLogByDefault) {
  // The service solves with default options: the horizon's dispatch log
  // is not kept, yet the first round is served whole.
  const wsn::Network network = small_network();
  const wsn::CycleModel cycles(network, wsn::CycleModelConfig{}, 11);
  SimOptions options;
  options.horizon = 300.0;
  charging::MinTotalDistancePolicy policy;
  const SolveOutcome outcome =
      solve_network(network, cycles, options, policy);
  EXPECT_GT(outcome.result.num_dispatches, 1u);
  EXPECT_TRUE(outcome.result.dispatch_log.empty());
  const RoundPlan& round = outcome.first_round;
  EXPECT_FALSE(round.sensors.empty());
  EXPECT_EQ(round.tours.size(), network.q());
  EXPECT_EQ(round.tour_lengths.size(), network.q());
  EXPECT_EQ(round.forest.trees.size(), network.q());
  ASSERT_NE(round.candidates, nullptr);
  EXPECT_EQ(round.candidates->size(), network.q() + round.sensors.size());
  EXPECT_GT(round.total_length, 0.0);
}

TEST(SolveNetwork, TripCapacityServesUnsplitTours) {
  // Splitting changes what a round is charged, not the Algorithm-2
  // tours the fleet is handed: the served round equals the uncapped one.
  // Constant cycles make every round the full set.
  const wsn::Network network = small_network(5);
  wsn::CycleModelConfig fixed;
  fixed.tau_min = fixed.tau_max = 5.0;
  const wsn::CycleModel cycles(network, fixed, 5);
  SimOptions uncapped;
  uncapped.horizon = 20.0;
  uncapped.record_dispatches = true;
  charging::MinTotalDistancePolicy p1, p2;
  const SolveOutcome a = solve_network(network, cycles, uncapped, p1);
  ASSERT_EQ(a.first_round.tours.size(), network.q());

  // The longest depot round trip: the least capacity every sensor fits
  // in, short of what the tours themselves need.
  double round_trip = 0.0;
  for (std::size_t t = 0; t < network.q(); ++t)
    for (const std::size_t node : a.first_round.tours[t].order())
      if (node >= network.q())
        round_trip = std::max(
            round_trip,
            2.0 * geom::distance(network.depots()[t],
                                 network.sensor_points()[node - network.q()]));
  SimOptions capped = uncapped;
  capped.trip_capacity = round_trip + 1.0;
  const SolveOutcome b = solve_network(network, cycles, capped, p2);

  ASSERT_FALSE(b.result.dispatch_log.empty());
  EXPECT_GT(b.result.dispatch_log.front().cost, b.first_round.total_length);
  EXPECT_EQ(b.first_round.sensors, a.first_round.sensors);
  EXPECT_EQ(b.first_round.total_length, a.first_round.total_length);
  EXPECT_EQ(b.first_round.tour_lengths, a.first_round.tour_lengths);
  ASSERT_EQ(b.first_round.tours.size(), a.first_round.tours.size());
  for (std::size_t t = 0; t < a.first_round.tours.size(); ++t) {
    const auto& order = b.first_round.tours[t].order();
    EXPECT_EQ(order, a.first_round.tours[t].order());
    // One closed tour per depot: the depot appears once, at the start.
    EXPECT_EQ(order.front(), t);
    EXPECT_EQ(std::count(order.begin(), order.end(), t), 1);
  }
}

TEST(SolveNetwork, DeterministicAcrossCalls) {
  const wsn::Network network = small_network(7);
  const wsn::CycleModel cycles(network, wsn::CycleModelConfig{}, 5);
  SimOptions options;
  options.horizon = 200.0;

  charging::MinTotalDistancePolicy p1, p2;
  const SolveOutcome a = solve_network(network, cycles, options, p1);
  const SolveOutcome b = solve_network(network, cycles, options, p2);
  EXPECT_DOUBLE_EQ(a.result.service_cost, b.result.service_cost);
  ASSERT_EQ(a.first_round.tours.size(), b.first_round.tours.size());
  for (std::size_t t = 0; t < a.first_round.tours.size(); ++t)
    EXPECT_EQ(a.first_round.tours[t].order(),
              b.first_round.tours[t].order());
}

TEST(SolveNetwork, EmptyRoundPlanWhenPolicyNeverDispatches) {
  const wsn::Network network = small_network();
  const wsn::CycleModel cycles(network, wsn::CycleModelConfig{}, 11);
  SimOptions options;
  options.horizon = 300.0;

  // A policy that never schedules anything.
  class Idle final : public charging::Policy {
   public:
    std::string name() const override { return "Idle"; }
    void reset(const charging::StateView&) override {}
    std::optional<charging::Dispatch> next_dispatch(
        const charging::StateView&) override {
      return std::nullopt;
    }
    void on_dispatch_executed(const charging::StateView&,
                              const charging::Dispatch&) override {}
  };
  Idle idle;
  const SolveOutcome outcome =
      solve_network(network, cycles, options, idle);
  EXPECT_TRUE(outcome.result.dispatch_log.empty());
  EXPECT_TRUE(outcome.first_round.tours.empty());
  EXPECT_DOUBLE_EQ(outcome.first_round.total_length, 0.0);
}

}  // namespace
}  // namespace mwc::sim
