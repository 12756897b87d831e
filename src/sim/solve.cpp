#include "sim/solve.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "obs/obs.hpp"
#include "tsp/construct.hpp"
#include "tsp/qrooted.hpp"
#include "util/assert.hpp"

namespace mwc::sim {

SolveOutcome solve_network(const wsn::Network& network,
                           const wsn::CycleProcess& cycles,
                           const SimOptions& options,
                           charging::Policy& policy) {
  MWC_OBS_SCOPE("sim.solve_network");
  Simulator simulator(network, cycles, options);

  SolveOutcome outcome;
  outcome.result = simulator.run(policy);
  const auto& costed = simulator.first_round();
  if (!costed) return outcome;

  // The fresh simulator's first costed round is its first executed one:
  // serve it as built, so the tours' total is the charged round cost bit
  // for bit (when no trip-capacity splitting rewrites the round).
  const std::size_t q = network.q();
  RoundPlan& round = outcome.first_round;
  round.sensors = costed->sensors;
  const auto view = simulator.oracle().dispatch_view(round.sensors);
  round.total_length = costed->tours.total_length;
  round.tours.reserve(costed->tours.tours.size());
  round.tour_lengths.reserve(costed->tours.tours.size());
  for (const auto& tour : costed->tours.tours) {
    round.tour_lengths.push_back(tour.length_with(view));
    // Dispatch-view locals -> global combined labels (depot l stays l;
    // local q + j becomes q + sensors[j]).
    std::vector<std::size_t> order = tour.order();
    for (std::size_t& node : order)
      if (node >= q) node = q + round.sensors[node - q];
    round.tours.emplace_back(std::move(order));
  }
  // The forest and graph stay round-local; the delta path repairs them
  // in place of re-deriving the MSF.
  round.forest = costed->tours.forest;
  round.candidates = costed->candidates;
  return outcome;
}

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Unordered edge-set equality on endpoints (weights follow endpoints
/// under identical geometry).
bool same_edge_set(std::vector<graph::Edge> a, std::vector<graph::Edge> b) {
  if (a.size() != b.size()) return false;
  const auto norm = [](std::vector<graph::Edge>& es) {
    for (auto& e : es)
      if (e.u > e.v) std::swap(e.u, e.v);
    std::sort(es.begin(), es.end(),
              [](const graph::Edge& x, const graph::Edge& y) {
                return x.u != y.u ? x.u < y.u : x.v < y.v;
              });
  };
  norm(a);
  norm(b);
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].u != b[i].u || a[i].v != b[i].v) return false;
  return true;
}

}  // namespace

ReplanOutcome replan_round(const wsn::Network& network, const RoundPlan& base,
                           std::span<const geom::Point> base_points,
                           const RoundPatch& patch,
                           const tsp::QRootedOptions& options) {
  MWC_OBS_SCOPE("sim.replan_round");
  MWC_OBS_COUNT("sim.replans");
  const std::size_t q = network.q();
  const std::size_t m0 = base.sensors.size();
  const std::size_t m1 = patch.sensors.size();
  MWC_ASSERT_MSG(base_points.size() == q + m0, "base_points size mismatch");
  MWC_ASSERT_MSG(patch.base_slot.size() == m1, "base_slot size mismatch");
  MWC_ASSERT_MSG(base.forest.trees.size() == q, "base forest missing");
  MWC_ASSERT_MSG(base.tours.size() == q, "base tours missing");
  MWC_ASSERT_MSG(base.candidates != nullptr, "base candidate graph missing");

  ReplanOutcome outcome;

  // The new round-local combined geometry: depots, then patch.sensors.
  const std::vector<geom::Point> new_points =
      round_points(network, patch.sensors);
  const auto view = tsp::DistanceView::direct(new_points);

  // Base-slot <-> new-slot maps. Survivors must appear in base round
  // order: index-order compaction keeps remapped candidate rows sorted,
  // which CandidateGraph::repair's exactness argument relies on.
  std::vector<std::size_t> slot_to_new(m0, kNpos);
  {
    bool seen = false;
    std::size_t prev = 0;
    for (std::size_t j = 0; j < m1; ++j) {
      const std::size_t slot = patch.base_slot[j];
      if (slot == kNpos) continue;
      MWC_ASSERT_MSG(slot < m0 && slot_to_new[slot] == kNpos,
                     "base_slot out of range or duplicated");
      MWC_ASSERT_MSG(!seen || slot > prev,
                     "surviving sensors must keep base round order");
      slot_to_new[slot] = j;
      prev = slot;
      seen = true;
    }
  }

  // 1. Repair the candidate graph over the new space.
  tsp::CandidateRemap remap;
  remap.old_to_new.assign(q + m0, tsp::CandidateRemap::kRemoved);
  for (std::size_t l = 0; l < q; ++l) remap.old_to_new[l] = l;
  for (std::size_t i = 0; i < m0; ++i)
    if (slot_to_new[i] != kNpos) remap.old_to_new[q + i] = q + slot_to_new[i];
  remap.new_size = q + m1;
  for (const std::size_t t : patch.touched) {
    MWC_ASSERT_MSG(t < q + m1, "touched id out of range");
    if (t >= q) remap.fresh.push_back(t);
  }
  outcome.round.candidates =
      std::make_shared<const tsp::CandidateGraph>(tsp::CandidateGraph::repair(
          *base.candidates, new_points, remap, options.candidate_options));
  const tsp::CandidateGraph& candidates = *outcome.round.candidates;

  // 2. Dirty-tree selection: trees losing a sensor, trees owning a
  // touched node or one of its candidate neighbors, and flipped chargers.
  std::vector<std::size_t> base_owner(q + m0, kNpos);
  for (std::size_t l = 0; l < q; ++l)
    for (const std::size_t v : base.forest.trees[l].nodes()) base_owner[v] = l;

  const auto root_active = [&](std::size_t l) {
    return patch.charger_active.empty() || patch.charger_active[l] != 0;
  };

  std::vector<char> tree_dirty(q, 0);
  for (std::size_t i = 0; i < m0; ++i)
    if (slot_to_new[i] == kNpos && base_owner[q + i] != kNpos)
      tree_dirty[base_owner[q + i]] = 1;
  const auto mark = [&](std::size_t new_local) {
    std::size_t base_local = new_local;
    if (new_local >= q) {
      const std::size_t slot = patch.base_slot[new_local - q];
      if (slot == kNpos) return;  // an addition owns no base tree
      base_local = q + slot;
    }
    if (base_owner[base_local] != kNpos) tree_dirty[base_owner[base_local]] = 1;
  };
  for (const std::size_t t : patch.touched) {
    mark(t);
    for (const std::size_t c : candidates.neighbors(t)) mark(c);
    if (t < q && !root_active(t)) tree_dirty[t] = 1;
  }

  // 3. Remap the base forest into the new space. Clean trees carry their
  // edges; dirty trees contribute membership only (their survivors plus
  // all additions become the repair's re-span set). For dirty trees whose
  // nodes all survived, keep the remapped edge list around to detect
  // "repair re-derived the identical tree" below.
  tsp::QRootedForest base_local;
  base_local.trees.reserve(q);
  tsp::MsfRepairPlan plan;
  plan.tree_dirty = tree_dirty;
  plan.root_active = patch.charger_active;
  const auto to_new = [&](std::size_t v) {
    if (v < q) return v;
    const std::size_t j = slot_to_new[v - q];
    return j == kNpos ? kNpos : q + j;
  };
  std::vector<std::vector<graph::Edge>> dirty_base_edges(q);
  std::vector<char> dirty_comparable(q, 0);
  for (std::size_t l = 0; l < q; ++l) {
    const auto& tree = base.forest.trees[l];
    if (!tree_dirty[l]) {
      std::vector<graph::Edge> edges;
      edges.reserve(tree.edges().size());
      for (const auto& e : tree.edges())
        edges.push_back(graph::Edge{to_new(e.u), to_new(e.v), e.w});
      base_local.trees.emplace_back(l, edges);
      continue;
    }
    base_local.trees.emplace_back(l, std::span<const graph::Edge>{});
    bool comparable = true;
    std::vector<graph::Edge> edges;
    for (const auto& e : tree.edges()) {
      const std::size_t u = to_new(e.u);
      const std::size_t v = to_new(e.v);
      if (u == kNpos || v == kNpos)
        comparable = false;
      else
        edges.push_back(graph::Edge{u, v, e.w});
    }
    if (comparable) {
      dirty_comparable[l] = 1;
      dirty_base_edges[l] = std::move(edges);
    }
    for (const std::size_t v : tree.nodes()) {
      if (v < q) continue;
      const std::size_t nv = to_new(v);
      if (nv != kNpos) plan.extra_sensors.push_back(nv);
    }
  }
  for (std::size_t j = 0; j < m1; ++j)
    if (patch.base_slot[j] == kNpos) plan.extra_sensors.push_back(q + j);

  // 4. Repair the MSF over the dirty region with candidate-pruned Prim.
  // The repaired graph covers the new space, so the re-span touches
  // O(dirty × k) pairs instead of the dense dirty × clean sweep; the
  // best-of tour starts below absorb the (rare, tiny) weight excess a
  // pruned re-span can introduce over a dense full rebuild.
  auto forest = tsp::repair_q_rooted_msf(view, q, base_local, plan,
                                         &candidates, &outcome.msf);

  // 5. Tours. Unchanged trees keep their already-polished base tours;
  // dirty trees that the repair re-derived identically keep theirs too
  // (a full re-solve reconstructs the same tour from the same tree) and
  // get a localized seeded re-polish; genuinely changed trees re-run the
  // full construct+polish pipeline.
  RoundPlan& round = outcome.round;
  round.sensors = patch.sensors;

  // The full pipeline always polishes over a candidate graph (unless forced
  // exhaustive), so the repair must too — an exhaustive sweep here would
  // cost more than the full solve it is meant to undercut. Any
  // caller-supplied graph covers the *base* space; substitute the repaired
  // one (same k regime, new space).
  tsp::ImproveOptions improve_opts = options.improve_options;
  improve_opts.candidates = &candidates;

  // Two candidate hops: improving 2-opt/Or-opt moves triggered by a
  // patch routinely involve an edge one neighbourhood removed from the
  // touched node, and the seeded re-polish can only find moves whose
  // don't-look bits are cleared.
  std::vector<std::size_t> seeds;
  for (const std::size_t t : patch.touched) {
    seeds.push_back(t);
    for (const std::size_t c : candidates.neighbors(t)) {
      seeds.push_back(c);
      for (const std::size_t c2 : candidates.neighbors(c))
        seeds.push_back(c2);
    }
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());

  std::unordered_map<std::size_t, std::size_t> base_slot_of;
  base_slot_of.reserve(m0);
  for (std::size_t i = 0; i < m0; ++i) base_slot_of.emplace(base.sensors[i], i);
  const auto base_tour_local = [&](std::size_t l) {
    std::vector<std::size_t> order;
    order.reserve(base.tours[l].size());
    for (const std::size_t v : base.tours[l].order())
      order.push_back(v < q ? v : q + slot_to_new[base_slot_of.at(v - q)]);
    return tsp::Tour(std::move(order));
  };
  const auto rotate_to_root = [](tsp::Tour& tour, std::size_t root) {
    auto& order = tour.order();
    const auto at = std::find(order.begin(), order.end(), root);
    if (at != order.begin() && at != order.end())
      std::rotate(order.begin(), at, order.end());
  };

  round.tours.reserve(q);
  round.tour_lengths.reserve(q);
  for (std::size_t l = 0; l < q; ++l) {
    const auto& tree = forest.trees[l];
    const bool changed = outcome.msf.tree_changed[l] != 0;
    tsp::Tour tour;
    double length = 0.0;
    bool have_length = false;
    if (!changed) {
      tour = base_tour_local(l);
      length = base.tour_lengths[l];
      have_length = true;
      ++outcome.reused_tours;
    } else if (dirty_comparable[l] != 0 &&
               same_edge_set(tree.edges(), dirty_base_edges[l])) {
      tour = base_tour_local(l);
      if (options.improve && tour.size() >= 4) {
        tsp::ImproveOptions seeded = improve_opts;
        seeded.seed_nodes = &seeds;
        const double gain = tsp::improve_tour(tour, view, seeded);
        MWC_OBS_GAUGE_ADD("tsp.improve_total_gain", gain);
        // The repair re-derived the identical tree, so a full re-solve
        // would run tree_to_tour + unseeded polish on it — a different
        // construction basin that sometimes beats the re-polished base
        // tour. Run that exact pipeline too and keep the shorter tour;
        // this is what pins the repaired round at-or-below the full
        // re-solve on every tree the repair left structurally intact.
        tsp::Tour fresh = tsp::tree_to_tour(tree.edges(), l);
        const double fresh_gain = tsp::improve_tour(fresh, view, improve_opts);
        MWC_OBS_GAUGE_ADD("tsp.improve_total_gain", fresh_gain);
        if (fresh.length_with(view) < tour.length_with(view))
          tour = std::move(fresh);
        rotate_to_root(tour, l);
      }
      ++outcome.repolished_tours;
    } else {
      // The repaired tree's edge order (hence its preorder shortcut)
      // differs from a dense rebuild's, so a single tree-shortcut start
      // is not enough to keep the repaired round at-or-below the full
      // re-solve's weight. When the tree still spans exactly the base
      // tree's sensors, the already-polished base tour is the strongest
      // start and one unseeded re-polish of it both absorbs the patch
      // and out-searches the shortcut basin; otherwise run the shortcut
      // and a nearest-neighbour construction and keep the shorter.
      const auto& nodes = tree.nodes();
      bool same_membership = false;
      if (dirty_comparable[l] != 0 &&
          nodes.size() == base.forest.trees[l].num_nodes()) {
        std::vector<std::size_t> mine(nodes.begin(), nodes.end());
        std::sort(mine.begin(), mine.end());
        std::vector<std::size_t> theirs;
        theirs.reserve(mine.size());
        theirs.push_back(l);
        for (const std::size_t v : base.forest.trees[l].nodes())
          if (v >= q) theirs.push_back(to_new(v));
        std::sort(theirs.begin(), theirs.end());
        same_membership = mine == theirs;
      }
      if (same_membership && options.improve) {
        tour = base_tour_local(l);
        if (tour.size() >= 4) {
          const double gain = tsp::improve_tour(tour, view, improve_opts);
          MWC_OBS_GAUGE_ADD("tsp.improve_total_gain", gain);
        }
        rotate_to_root(tour, l);
      } else {
        tour = tsp::tree_to_tour(tree.edges(), l);
        if (options.improve && tour.size() >= 4) {
          const double gain = tsp::improve_tour(tour, view, improve_opts);
          MWC_OBS_GAUGE_ADD("tsp.improve_total_gain", gain);
          std::vector<geom::Point> local_points;
          local_points.reserve(nodes.size());
          std::size_t local_root = 0;
          for (std::size_t k = 0; k < nodes.size(); ++k) {
            if (nodes[k] == l) local_root = k;
            local_points.push_back(new_points[nodes[k]]);
          }
          tsp::Tour local =
              tsp::nearest_neighbor_tour(local_points, local_root);
          std::vector<std::size_t> alt_order;
          alt_order.reserve(local.size());
          for (const std::size_t v : local.order())
            alt_order.push_back(nodes[v]);
          tsp::Tour alt(std::move(alt_order));
          const double alt_gain =
              tsp::improve_tour(alt, view, improve_opts);
          MWC_OBS_GAUGE_ADD("tsp.improve_total_gain", alt_gain);
          if (alt.length_with(view) < tour.length_with(view))
            tour = std::move(alt);
          rotate_to_root(tour, l);
        }
      }
      ++outcome.rebuilt_tours;
    }
    if (!have_length) length = tour.length_with(view);
    round.tour_lengths.push_back(length);
    round.total_length += length;
    std::vector<std::size_t> order = std::move(tour.order());
    for (std::size_t& node : order)
      if (node >= q) node = q + patch.sensors[node - q];
    round.tours.emplace_back(std::move(order));
  }
  round.forest = std::move(forest);
  MWC_OBS_COUNT_N("tsp.repair.reused_tours", outcome.reused_tours);
  MWC_OBS_COUNT_N("tsp.repair.repolished_tours", outcome.repolished_tours);
  MWC_OBS_COUNT_N("tsp.repair.rebuilt_tours", outcome.rebuilt_tours);
  return outcome;
}

}  // namespace mwc::sim
