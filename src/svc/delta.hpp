// svc delta engine — the mwc.svc.v2 incremental re-planning path.
//
// A v2 delta request names a previously solved base plan by fingerprint
// and a list of patch ops (add/remove/move sensors, update cycles, flip
// charger availability). Instead of re-solving the patched instance from
// scratch, the engine resolves the base's cached solver state, folds the
// ordered ops into a canonical PatchState, and repairs the base plan:
// candidate-graph repair, dirty-region q-rooted MSF repair, and selective
// tour rebuild / localized re-polish (sim::replan_round). Horizon
// aggregates (total distance, dispatch counts) are inherited from the
// base plan; only the first charging round is re-planned.
//
// Derivation is itself cached: derived_fingerprint(base, patch) keys the
// derived plan in the same PlanCache, so a repeated or re-ordered-but-
// commuting patch is a cache hit, and a derived plan can serve as the
// base of a further delta (chaining).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "geom/point.hpp"
#include "sim/solve.hpp"
#include "svc/engine.hpp"
#include "svc/plan_cache.hpp"
#include "svc/wire.hpp"
#include "wsn/network.hpp"

namespace mwc::svc {

/// The canonical fold of an ordered patch list: per-sensor final state.
/// Two op sequences that commute (touch disjoint state, or reach the
/// same final state) fold identically and therefore share a derived
/// fingerprint; genuinely order-sensitive sequences (two moves of the
/// same sensor) fold to their last-writer state and differ.
struct PatchState {
  std::vector<std::size_t> removed;         ///< base sensor ids, sorted
  std::map<std::size_t, geom::Point> moved; ///< base id -> final position
  std::map<std::size_t, double> retau;      ///< base id -> final τ
  /// Additions in arrival order (order assigns the new ids, so it is
  /// semantically significant and hashes as-is).
  std::vector<std::pair<geom::Point, double>> added;
  /// Chargers whose final availability differs from the base's.
  std::map<std::size_t, bool> charger;
};

/// Everything the delta path needs to repair a plan without re-running
/// the simulation. Built after each successful full solve (and after
/// each delta, so deltas chain) and cached beside the Plan.
struct BaseState {
  wsn::Network network;
  std::vector<double> tau;           ///< slot-0 cycles, one per sensor
  std::vector<char> charger_active;  ///< empty = all active
  std::string policy;
  double horizon = 0.0;
  double slot_length = 0.0;
  bool improve = false;
  sim::SimOptions sim;               ///< options the round was built with
  /// First round; forest and shared candidate graph round-local.
  sim::RoundPlan round;
  std::vector<geom::Point> round_points;  ///< q depots + round sensors
  std::shared_ptr<const Plan> plan;  ///< horizon aggregates to inherit
};

/// Folds the ordered op list into canonical per-entity final state,
/// validating every reference against the base instance (n sensors, q
/// chargers, current charger availability). Throws WireError on an op
/// referencing an out-of-range id, a sensor already removed by this
/// patch, or a patch that downs every charger.
PatchState fold_patch(const std::vector<PatchOp>& patch, std::size_t n,
                      std::size_t q,
                      const std::vector<char>& base_charger_active);

/// Order-insensitive (up to commutation) hash of the folded patch.
std::uint64_t patch_fingerprint(const PatchState& state);

/// Cache key of the derived plan: base fingerprint x patch fingerprint.
std::uint64_t derived_fingerprint(std::uint64_t base_fingerprint,
                                  const PatchState& state);

/// The wire plan of a solved round: its tours relabeled from combined
/// node labels to depot and sensor ids, `fingerprint` = key, horizon
/// totals left at zero. Callers fill the totals, then seal_plan() it.
Plan plan_from_round(const sim::RoundPlan& round, std::size_t q,
                     std::uint64_t key);

/// Builds the cacheable solver state after a successful full solve. It
/// shares the solve's own round and candidate graph; nothing is rebuilt.
/// Returns null when the policy never dispatched (nothing to repair) or
/// the round carries no graph of its own (a caller-supplied
/// tour_options.candidates).
std::shared_ptr<const BaseState> make_base_state(
    const Request& request, const ResolvedInstance& instance,
    const sim::SolveOutcome& outcome, std::shared_ptr<const Plan> plan);

/// Serves one v2 delta request: resolve the base state from the cache,
/// fold + validate the patch, probe the derived-plan cache, and on a
/// miss repair the base plan through sim::replan_round. Never throws;
/// failures come back as structured errors (`unknown_base` when the
/// base fingerprint is not cached or was stored without solver state,
/// `bad_request` on invalid patches). `cache` may be null, which always
/// answers `unknown_base` — the delta path requires a cache. When
/// `stages` is non-null, fills `cache_ms` (base resolve + fold + derived
/// probe) and `solve_ms` (the sim::replan_round repair).
Response handle_delta(const DeltaRequest& request, PlanCache* cache,
                      StageTimings* stages = nullptr);

}  // namespace mwc::svc
