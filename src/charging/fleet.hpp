// Fleet-level extensions on top of the q-rooted TSP (library extras, from
// the paper's related-work axis):
//
//  * capacity-limited chargers (Liang et al. [7]): each vehicle can travel
//    at most `capacity` per trip; a depot's workload is served by several
//    trips flown back-to-back whose tours each fit the budget.
//  * min-max fleets (Xu et al. [16]): each depot hosts `chargers_per_depot`
//    vehicles and the goal is the earliest completion of a charging round,
//    i.e. minimize the longest single tour.
//  * dispatch duration model: the paper *assumes* the time a charging
//    round takes is negligible versus sensor lifetimes; `round_duration`
//    computes the actual makespan of a round given travel speed and
//    per-sensor charging time, so the assumption can be validated (see
//    bench/abl_charging_time).
#pragma once

#include <cstddef>
#include <vector>

#include "tsp/qrooted.hpp"
#include "tsp/split.hpp"
#include "wsn/network.hpp"

namespace mwc::charging {

struct Trip {
  /// Closed tour in the combined indexing of the instance that produced
  /// it (0..q-1 depots, then sensors in sensor_ids order).
  tsp::Tour tour;
  double length = 0.0;
  std::size_t sensors = 0;  ///< sensors visited (tour size minus depot)
};

struct FleetPlan {
  std::vector<std::vector<Trip>> trips;  ///< per depot
  double total_length = 0.0;
  double max_trip_length = 0.0;
  std::size_t num_trips = 0;  ///< trips that actually visit sensors
  /// 1 for capacitated plans (one vehicle flies its depot's trips back to
  /// back); k for min-max plans (each trip has its own vehicle).
  std::size_t vehicles_per_depot = 1;
};

/// Plans one charging round over `sensor_ids` with per-trip length budget
/// `capacity`: Algorithm 2 tours, each split by split_tour_capacity.
/// Requires capacity to cover every sensor's round trip from its serving
/// depot (asserted).
FleetPlan plan_capacitated_round(const wsn::Network& network,
                                 const std::vector<std::size_t>& sensor_ids,
                                 double capacity);

/// Plans one charging round with `chargers_per_depot` vehicles at every
/// depot, minimizing the longest tour: Algorithm 2 tours, each split by
/// split_tour_minmax. chargers_per_depot == 1 reproduces the plain
/// q-rooted round.
FleetPlan plan_minmax_round(const wsn::Network& network,
                            const std::vector<std::size_t>& sensor_ids,
                            std::size_t chargers_per_depot);

struct DurationModel {
  double travel_speed = 5.0;     ///< metres per second (a slow UGV)
  double charge_seconds = 60.0;  ///< time to fully charge one sensor
};

/// Wall-clock duration of one charging round under `model`. Depots work
/// in parallel; within a depot, a single vehicle flies its trips
/// back-to-back (vehicles_per_depot == 1) while a min-max fleet flies
/// them concurrently (one trip per vehicle).
double round_duration_seconds(const FleetPlan& plan,
                              const DurationModel& model);

}  // namespace mwc::charging
