// Quickstart: deploy a small sensor network, compute a MinTotalDistance
// charging schedule, inspect its rounds and tours, and verify it in the
// simulator. Start here to learn the public API.
//
//   ./quickstart [--n 30] [--q 3] [--horizon 64] [--seed 7]
#include <cstdio>

#include "charging/min_total_distance.hpp"
#include "exp/runner.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "wsn/cycles.hpp"
#include "wsn/deployment.hpp"

int main(int argc, char** argv) {
  using namespace mwc;
  CliArgs args(argc, argv);

  // 1. Deploy a network: n sensors uniform in a 1 km^2 field, a base
  //    station at the centre, q depots each hosting one mobile charger.
  wsn::DeploymentConfig deployment;
  deployment.n = static_cast<std::size_t>(args.get_int_or("n", 30));
  deployment.q = static_cast<std::size_t>(args.get_int_or("q", 3));
  Rng rng(static_cast<std::uint64_t>(args.get_int_or("seed", 7)));
  const wsn::Network network = wsn::deploy_random(deployment, rng);
  std::printf("deployed %zu sensors, %zu chargers, base station (%.0f, %.0f)\n",
              network.n(), network.q(), network.base_station().x,
              network.base_station().y);

  // 2. Assign maximum charging cycles: sensors near the base station
  //    relay more traffic and drain faster (the "linear" model).
  wsn::CycleModelConfig cycle_config;
  cycle_config.tau_min = 1.0;
  cycle_config.tau_max = 16.0;
  const wsn::CycleModel cycle_model(network, cycle_config, /*seed=*/11);
  const auto cycles = cycle_model.fixed_cycles();

  // 3. Build the MinTotalDistance schedule (Algorithm 3) offline.
  const double T = args.get_double_or("horizon", 64.0);
  const auto schedule =
      mwc::charging::build_min_total_distance_schedule(network, cycles, T);
  std::printf("\ncycle classes (K=%zu):\n", schedule.partition.K);
  for (std::size_t k = 0; k <= schedule.partition.K; ++k) {
    std::printf("  V_%zu: %3zu sensors, charged every %5.1f — round tour %.0f m\n",
                k, schedule.partition.groups[k].size(),
                schedule.partition.class_cycle(k),
                schedule.tours_by_depth[k].total_length);
  }
  std::printf("schedule: %zu dispatches over T=%.0f, total cost %.1f km\n",
              schedule.dispatches.size(), T, schedule.total_cost / 1000.0);

  // Peek at the first few rounds.
  std::printf("\nfirst rounds:\n");
  for (std::size_t j = 0; j < schedule.dispatches.size() && j < 4; ++j) {
    const auto& d = schedule.dispatches[j];
    std::printf("  t=%5.1f charge %zu sensors\n", d.time,
                d.sensors.size());
  }

  // 4. Verify feasibility by simulation: the policy form of the same
  //    algorithm drives an event simulator that tracks every battery.
  //    All tour-construction knobs live in one place — sim.tour_options
  //    (a tsp::QRootedOptions): construction algorithm, 2-opt/Or-opt
  //    polish, and their iteration caps.
  sim::SimOptions sim_options;
  sim_options.horizon = T;
  sim_options.tour_options.improve = false;  // flip on for polished tours
  sim::Simulator simulator(network, cycle_model, sim_options);
  charging::MinTotalDistancePolicy policy;
  const auto result = simulator.run(policy);
  std::printf("\nsimulated: cost %.1f km over %zu dispatches, %zu dead sensors%s\n",
              result.service_cost / 1000.0, result.num_dispatches,
              result.dead_sensors,
              result.feasible() ? " (feasible)" : " (INFEASIBLE!)");

  // Identical dispatch sets are costed once: the simulator memoizes tour
  // costs per dispatch set, so only the K+1 round classes ever miss.
  std::printf("tour cache: %zu hits, %zu misses\n", result.tour_cache_hits,
              result.tour_cache_misses);

  // 5. Compare against the greedy on-demand baseline. Policies are
  //    registered by name in exp::PolicyRegistry — list them with
  //    exp::PolicyRegistry::global().names().
  const auto greedy = exp::make_policy("Greedy");
  const auto greedy_result = simulator.run(*greedy);
  std::printf("greedy baseline: cost %.1f km (MinTotalDistance saves %.0f%%)\n",
              greedy_result.service_cost / 1000.0,
              100.0 * (1.0 - result.service_cost /
                                 greedy_result.service_cost));
  return result.feasible() ? 0 : 1;
}
