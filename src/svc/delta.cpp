#include "svc/delta.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <utility>

#include "geom/bbox.hpp"
#include "obs/obs.hpp"
#include "wsn/sensor.hpp"

namespace mwc::svc {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
constexpr double kCoordQuantum = 1e-6;  ///< metres; below survey accuracy
constexpr double kValueQuantum = 1e-9;  ///< cycles / times / options

}  // namespace

PatchState fold_patch(const std::vector<PatchOp>& patch, std::size_t n,
                      std::size_t q,
                      const std::vector<char>& base_charger_active) {
  PatchState state;
  std::vector<char> removed(n, 0);
  std::vector<char> active(q, 1);
  if (!base_charger_active.empty())
    for (std::size_t l = 0; l < q; ++l)
      active[l] = base_charger_active[l] != 0 ? 1 : 0;

  const auto check_sensor = [&](std::size_t id) {
    if (id >= n)
      throw WireError("patch references sensor " + std::to_string(id) +
                      " but the base instance has " + std::to_string(n) +
                      " sensors");
    if (removed[id] != 0)
      throw WireError("patch references sensor " + std::to_string(id) +
                      " after removing it");
  };
  const auto check_charger = [&](std::size_t id) {
    if (id >= q)
      throw WireError("patch references charger " + std::to_string(id) +
                      " but the base instance has " + std::to_string(q) +
                      " chargers");
  };

  for (const PatchOp& op : patch) {
    switch (op.kind) {
      case PatchOpKind::kAddSensor:
        if (!(op.tau > 0.0)) throw WireError("add_sensor needs tau > 0");
        state.added.emplace_back(op.pos, op.tau);
        break;
      case PatchOpKind::kRemoveSensor:
        check_sensor(op.target);
        removed[op.target] = 1;
        // A prior move/update of this sensor is moot once it is gone.
        state.moved.erase(op.target);
        state.retau.erase(op.target);
        break;
      case PatchOpKind::kMoveSensor:
        check_sensor(op.target);
        state.moved[op.target] = op.pos;  // last writer wins
        break;
      case PatchOpKind::kUpdateCycles:
        check_sensor(op.target);
        if (!(op.tau > 0.0)) throw WireError("update_cycles needs tau > 0");
        state.retau[op.target] = op.tau;
        break;
      case PatchOpKind::kChargerDown:
        check_charger(op.target);
        active[op.target] = 0;
        break;
      case PatchOpKind::kChargerUp:
        check_charger(op.target);
        active[op.target] = 1;
        break;
    }
  }

  for (std::size_t i = 0; i < n; ++i)
    if (removed[i] != 0) state.removed.push_back(i);
  if (state.removed.size() == n && state.added.empty())
    throw WireError("patch removes every sensor");

  std::size_t num_active = 0;
  for (std::size_t l = 0; l < q; ++l) {
    const bool base_up = base_charger_active.empty() ||
                         base_charger_active[l] != 0;
    if (static_cast<bool>(active[l]) != base_up)
      state.charger[l] = active[l] != 0;
    if (active[l] != 0) ++num_active;
  }
  if (num_active == 0)
    throw WireError("patch downs every charger; at least one must stay up");
  return state;
}

std::uint64_t patch_fingerprint(const PatchState& state) {
  Fnv1a h;
  h.str("removed");
  for (const std::size_t id : state.removed) h.u64(id);
  h.str("moved");
  for (const auto& [id, pos] : state.moved) {
    h.u64(id);
    h.quantized(pos.x, kCoordQuantum);
    h.quantized(pos.y, kCoordQuantum);
  }
  h.str("retau");
  for (const auto& [id, tau] : state.retau) {
    h.u64(id);
    h.quantized(tau, kValueQuantum);
  }
  h.str("added");
  for (const auto& [pos, tau] : state.added) {
    h.quantized(pos.x, kCoordQuantum);
    h.quantized(pos.y, kCoordQuantum);
    h.quantized(tau, kValueQuantum);
  }
  h.str("chargers");
  for (const auto& [id, up] : state.charger) {
    h.u64(id);
    h.u64(up ? 1 : 0);
  }
  return h.value();
}

std::uint64_t derived_fingerprint(std::uint64_t base_fingerprint,
                                  const PatchState& state) {
  Fnv1a h;
  h.str("mwc.svc.delta");
  h.u64(base_fingerprint);
  h.u64(patch_fingerprint(state));
  return h.value();
}

std::shared_ptr<const BaseState> make_base_state(
    const Request& request, const ResolvedInstance& instance,
    const sim::SolveOutcome& outcome, std::shared_ptr<const Plan> plan) {
  const sim::RoundPlan& round = outcome.first_round;
  if (round.tours.empty() || round.candidates == nullptr) return nullptr;

  auto state = std::make_shared<BaseState>();
  state->network = instance.network;
  const std::size_t n = instance.network.n();
  state->tau.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    state->tau.push_back(instance.cycles->cycle_at_slot(i, 0));
  state->policy = request.policy;
  state->horizon = request.horizon;
  state->slot_length = request.slot_length;
  state->improve = request.improve;
  state->sim = instance.sim;
  state->round = round;
  state->round_points = sim::round_points(instance.network, round.sensors);
  state->plan = std::move(plan);
  return state;
}

Plan plan_from_round(const sim::RoundPlan& round, std::size_t q,
                     std::uint64_t key) {
  Plan plan;
  plan.first_round_tours.reserve(round.tours.size());
  for (std::size_t t = 0; t < round.tours.size(); ++t) {
    PlanTour tour;
    tour.depot = t;
    for (const std::size_t node : round.tours[t].order()) {
      if (node < q)
        tour.depot = node;  // combined label l < q is depot l
      else
        tour.sensors.push_back(node - q);
    }
    tour.length = round.tour_lengths[t];
    plan.first_round_length += tour.length;
    plan.first_round_tours.push_back(std::move(tour));
  }
  plan.fingerprint = key;
  return plan;
}

Response handle_delta(const DeltaRequest& request, PlanCache* cache,
                      StageTimings* stages) {
  MWC_OBS_SCOPE("svc.handle_delta");
  MWC_OBS_COUNT("svc.delta.requests");
  MWC_OBS_COUNT_N("svc.delta.patch_ops", request.patch.size());
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&start] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  const auto fail = [&](ErrorCode code, const std::string& message) {
    Response response =
        error_response(request.id, code, message, elapsed_ms());
    response.version = WireVersion::kV2;
    response.trace_id = request.trace_id;
    response.base_fingerprint = request.base_fingerprint;
    return response;
  };

  const std::shared_ptr<const BaseState> base =
      cache != nullptr ? cache->get_state(request.base_fingerprint) : nullptr;
  if (base == nullptr) {
    MWC_OBS_COUNT("svc.delta.base_misses");
    return fail(ErrorCode::kUnknownBase,
                "unknown base plan \"" +
                    fingerprint_hex(request.base_fingerprint) +
                    "\"; re-send the full request");
  }

  PatchState fold;
  try {
    fold = fold_patch(request.patch, base->network.n(), base->network.q(),
                      base->charger_active);
  } catch (const WireError& e) {
    return fail(ErrorCode::kBadRequest, e.what());
  }

  const std::uint64_t key =
      derived_fingerprint(request.base_fingerprint, fold);
  if (stages != nullptr) stages->cache_ms = elapsed_ms();
  if (auto hit = cache->get(key)) {
    MWC_OBS_COUNT("svc.delta.cache_hits");
    Response response;
    response.id = request.id;
    response.trace_id = request.trace_id;
    response.version = WireVersion::kV2;
    response.ok = true;
    response.cached = true;
    response.derived = true;
    response.base_fingerprint = request.base_fingerprint;
    response.plan = std::move(hit);
    response.latency_ms = elapsed_ms();
    response.policy = base->policy;
    return response;
  }
  MWC_OBS_COUNT("svc.delta.cache_misses");

  try {
    MWC_OBS_SCOPE("svc.delta.replan");
    const wsn::Network& bn = base->network;
    const std::size_t n0 = bn.n();
    const std::size_t q = bn.q();

    // Materialize the patched instance: surviving base sensors keep their
    // relative order under index compaction, additions append.
    std::vector<char> is_removed(n0, 0);
    for (const std::size_t id : fold.removed) is_removed[id] = 1;
    std::vector<std::size_t> new_id(n0, kNpos);
    std::vector<wsn::Sensor> sensors;
    std::vector<double> tau;
    sensors.reserve(n0 - fold.removed.size() + fold.added.size());
    tau.reserve(sensors.capacity());
    geom::BBox field = bn.field();
    for (std::size_t i = 0; i < n0; ++i) {
      if (is_removed[i] != 0) continue;
      geom::Point pos = bn.sensor_points()[i];
      if (const auto it = fold.moved.find(i); it != fold.moved.end())
        pos = it->second;
      new_id[i] = sensors.size();
      sensors.push_back(
          wsn::Sensor{sensors.size(), pos, bn.sensor(i).battery_capacity});
      double t = base->tau[i];
      if (const auto it = fold.retau.find(i); it != fold.retau.end())
        t = it->second;
      tau.push_back(t);
      field.expand(pos);
    }
    std::vector<std::size_t> added_ids;
    added_ids.reserve(fold.added.size());
    for (const auto& [pos, t] : fold.added) {
      added_ids.push_back(sensors.size());
      sensors.push_back(wsn::Sensor{sensors.size(), pos, 1.0});
      tau.push_back(t);
      field.expand(pos);
    }
    wsn::Network network(std::move(sensors), bn.base_station(), bn.depots(),
                         field);

    std::vector<char> charger_active(q, 1);
    if (!base->charger_active.empty())
      for (std::size_t l = 0; l < q; ++l)
        charger_active[l] = base->charger_active[l] != 0 ? 1 : 0;
    for (const auto& [l, up] : fold.charger) charger_active[l] = up ? 1 : 0;
    bool all_active = true;
    for (const char a : charger_active) all_active = all_active && a != 0;

    // Round membership: the base dispatch set minus removals plus every
    // addition (a new sensor needs charging in the upcoming rollout).
    sim::RoundPatch rpatch;
    if (!all_active) rpatch.charger_active = charger_active;
    for (std::size_t slot = 0; slot < base->round.sensors.size(); ++slot) {
      const std::size_t s = base->round.sensors[slot];
      if (is_removed[s] != 0) continue;
      const std::size_t j = rpatch.sensors.size();
      rpatch.sensors.push_back(new_id[s]);
      rpatch.base_slot.push_back(slot);
      if (fold.moved.find(s) != fold.moved.end())
        rpatch.touched.push_back(q + j);
    }
    // Deadline-driven admission (Rao et al.): a surviving sensor whose
    // cycle was shortened below the round's urgency bar — it now needs
    // charging at least as soon as some sensor already dispatched —
    // joins the round as a fresh insertion. This is what lets a
    // streaming session's update_cycles replan actually visit a sensor
    // the storm pushed toward death instead of only relabeling its τ.
    {
      const std::size_t n0 = base->network.n();
      std::vector<char> in_round(n0, 0);
      double round_tau_max = 0.0;
      for (const std::size_t s : base->round.sensors) {
        in_round[s] = 1;
        if (base->tau[s] > round_tau_max) round_tau_max = base->tau[s];
      }
      for (const auto& [s, t] : fold.retau) {
        if (in_round[s] != 0 || is_removed[s] != 0) continue;
        if (t > round_tau_max) continue;
        // The bar alone is not enough: a τ that grew (or stayed put
        // within the value quantum) was not shortened, so it must not
        // perturb the dispatched round even when it sits below the bar.
        if (t >= base->tau[s] - kValueQuantum * std::max(1.0, base->tau[s]))
          continue;
        rpatch.touched.push_back(q + rpatch.sensors.size());
        rpatch.sensors.push_back(new_id[s]);
        rpatch.base_slot.push_back(kNpos);
      }
    }
    for (const std::size_t id : added_ids) {
      rpatch.touched.push_back(q + rpatch.sensors.size());
      rpatch.sensors.push_back(id);
      rpatch.base_slot.push_back(kNpos);
    }
    for (const auto& [l, up] : fold.charger) {
      (void)up;
      rpatch.touched.push_back(l);
    }

    const double replan_start_ms = elapsed_ms();
    sim::ReplanOutcome outcome =
        sim::replan_round(network, base->round, base->round_points, rpatch,
                          base->sim.tour_options);
    if (stages != nullptr)
      stages->solve_ms = elapsed_ms() - replan_start_ms;
    MWC_OBS_COUNT("svc.delta.replans");

    Plan derived = plan_from_round(outcome.round, q, key);
    if (base->plan != nullptr) {
      // Horizon aggregates are inherited: the delta path re-plans the
      // next rollout, not the whole monitoring period.
      derived.total_distance = base->plan->total_distance;
      derived.num_dispatches = base->plan->num_dispatches;
      derived.num_sensor_charges = base->plan->num_sensor_charges;
      derived.dead_sensors = base->plan->dead_sensors;
    }
    auto plan = seal_plan(std::move(derived));

    // The derived plan is a full-fledged base for further deltas.
    auto state = std::make_shared<BaseState>();
    state->network = std::move(network);
    state->tau = std::move(tau);
    if (!all_active) state->charger_active = charger_active;
    state->policy = base->policy;
    state->horizon = base->horizon;
    state->slot_length = base->slot_length;
    state->improve = base->improve;
    state->sim = base->sim;
    state->round = std::move(outcome.round);
    state->round_points =
        sim::round_points(state->network, state->round.sensors);
    state->plan = plan;
    cache->put(key, plan, std::move(state));

    Response response;
    response.id = request.id;
    response.trace_id = request.trace_id;
    response.version = WireVersion::kV2;
    response.ok = true;
    response.derived = true;
    response.base_fingerprint = request.base_fingerprint;
    response.plan = std::move(plan);
    response.latency_ms = elapsed_ms();
    response.policy = base->policy;
    return response;
  } catch (const std::exception& e) {
    return fail(ErrorCode::kInternal, e.what());
  }
}

}  // namespace mwc::svc
