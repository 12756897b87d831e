#include "charging/fleet.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mwc::charging {

namespace {

tsp::QRootedInstance make_instance(
    const wsn::Network& network,
    const std::vector<std::size_t>& sensor_ids) {
  tsp::QRootedInstance instance;
  instance.depots = network.depots();
  instance.sensors.reserve(sensor_ids.size());
  for (std::size_t id : sensor_ids)
    instance.sensors.push_back(network.sensor(id).position);
  return instance;
}

void accumulate(FleetPlan& plan, const tsp::DistanceView& distances,
                tsp::SplitResult&& split, std::size_t depot) {
  for (auto& tour : split.tours) {
    Trip trip;
    trip.length = tour.length_with(distances);
    trip.sensors = tour.size() > 0 ? tour.size() - 1 : 0;
    trip.tour = std::move(tour);
    if (trip.sensors > 0) ++plan.num_trips;
    plan.total_length += trip.length;
    plan.max_trip_length = std::max(plan.max_trip_length, trip.length);
    plan.trips[depot].push_back(std::move(trip));
  }
}

}  // namespace

FleetPlan plan_capacitated_round(const wsn::Network& network,
                                 const std::vector<std::size_t>& sensor_ids,
                                 double capacity) {
  MWC_ASSERT(capacity > 0.0);
  const tsp::QRootedInstance instance = make_instance(network, sensor_ids);
  const tsp::DistanceView distances = instance.distances();
  const auto tours = tsp::q_rooted_tsp(distances, network.q());

  FleetPlan plan;
  plan.vehicles_per_depot = 1;
  plan.trips.resize(network.q());
  for (std::size_t l = 0; l < tours.tours.size(); ++l) {
    accumulate(
        plan, distances,
        tsp::split_tour_capacity(distances, tours.tours[l], l, capacity), l);
  }
  return plan;
}

FleetPlan plan_minmax_round(const wsn::Network& network,
                            const std::vector<std::size_t>& sensor_ids,
                            std::size_t chargers_per_depot) {
  MWC_ASSERT(chargers_per_depot >= 1);
  const tsp::QRootedInstance instance = make_instance(network, sensor_ids);
  const tsp::DistanceView distances = instance.distances();
  const auto tours = tsp::q_rooted_tsp(distances, network.q());

  FleetPlan plan;
  plan.vehicles_per_depot = chargers_per_depot;
  plan.trips.resize(network.q());
  for (std::size_t l = 0; l < tours.tours.size(); ++l) {
    accumulate(plan, distances,
               tsp::split_tour_minmax(distances, tours.tours[l], l,
                                      chargers_per_depot),
               l);
  }
  return plan;
}

double round_duration_seconds(const FleetPlan& plan,
                              const DurationModel& model) {
  MWC_ASSERT(model.travel_speed > 0.0);
  MWC_ASSERT(model.charge_seconds >= 0.0);
  double makespan = 0.0;
  for (const auto& depot_trips : plan.trips) {
    double depot_time = 0.0;
    for (const auto& trip : depot_trips) {
      const double seconds =
          trip.length / model.travel_speed +
          static_cast<double>(trip.sensors) * model.charge_seconds;
      if (plan.vehicles_per_depot == 1) {
        depot_time += seconds;  // one vehicle, back-to-back trips
      } else {
        depot_time = std::max(depot_time, seconds);  // trip per vehicle
      }
    }
    makespan = std::max(makespan, depot_time);
  }
  return makespan;
}

}  // namespace mwc::charging
