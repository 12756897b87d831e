// Charging schedulings and the policy interface the simulator drives.
//
// A charging scheduling (C_j, t_j) in the paper dispatches all q chargers
// at time t_j on tours jointly covering a sensor set. In this library a
// policy emits `Dispatch` records (time + sensor set); the simulator turns
// each set into q closed tours with Algorithm 2 (tsp::q_rooted_tsp), so
// every policy's travelled distance is measured by exactly the same tour
// constructor and the comparison isolates *scheduling* quality.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "wsn/network.hpp"

namespace mwc::charging {

/// One charging scheduling: at `time`, the q chargers jointly visit
/// `sensors` (sensor ids; kept sorted for deterministic tours & hashing).
struct Dispatch {
  double time = 0.0;
  std::vector<std::size_t> sensors;
};

/// Read-only view of the live simulation state offered to policies. The
/// base station's knowledge: current cycles (updated at slot boundaries)
/// and residual lifetimes.
class StateView {
 public:
  virtual ~StateView() = default;

  virtual const wsn::Network& network() const = 0;
  /// Monitoring period T.
  virtual double horizon() const = 0;
  /// Current simulation time.
  virtual double now() const = 0;
  /// Time until sensor i dies at its current consumption rate.
  virtual double residual_life(std::size_t i) const = 0;
  /// Current maximum charging cycle τ_i(t) of sensor i.
  virtual double cycle(std::size_t i) const = 0;
};

/// Scheduling policy. The simulator calls, in order: reset() once at t=0,
/// then repeatedly next_dispatch() / on_dispatch_executed(); at every slot
/// boundary of a variable-cycle run it calls on_cycles_updated() after
/// refreshing the state.
class Policy {
 public:
  virtual ~Policy() = default;

  virtual std::string name() const = 0;

  virtual void reset(const StateView& view) = 0;

  /// Earliest planned dispatch at time >= view.now(), or nullopt when the
  /// policy plans nothing more before the horizon.
  virtual std::optional<Dispatch> next_dispatch(const StateView& view) = 0;

  /// The simulator executed `dispatch` (all listed sensors recharged).
  virtual void on_dispatch_executed(const StateView& view,
                                    const Dispatch& dispatch) = 0;

  /// Cycle values changed (variable-τ runs; called after the state
  /// reflects the new cycles).
  virtual void on_cycles_updated(const StateView& view) { (void)view; }
};

/// Sorts and deduplicates a dispatch's sensor set (normal form).
void normalize(Dispatch& dispatch);

}  // namespace mwc::charging
