#include "tsp/qrooted.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_set>
#include <utility>

#include "graph/dsu.hpp"
#include "graph/mst.hpp"
#include "obs/obs.hpp"
#include "tsp/construct.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace mwc::tsp {

namespace {

/// True when `candidates` can actually prune for this view: covers the
/// combined node space and is not degenerate-complete (the complete graph
/// dispatches dense so the k >= n limit stays bit-identical).
bool prunable(const CandidateGraph* candidates, std::size_t view_size) {
  return candidates != nullptr && candidates->size() == view_size &&
         !candidates->complete();
}

/// Sparse Prim over the contracted aux graph (node 0 = virtual root,
/// 1..m = sensors) restricted to candidate sensor-sensor edges plus the
/// root's star. The star edge to every sensor (its nearest-depot
/// distance) keeps the pruned graph connected, so a spanning tree always
/// exists; its weight can only exceed the dense MST's when some true MST
/// edge joins two sensors that are not mutual-or-one-way candidates (see
/// sensors_connected for the case msf_impl guards against).
graph::MstResult prim_msf_pruned(const DistanceView& distances, std::size_t q,
                                 const CandidateGraph& cand,
                                 std::span<const double> root_dist,
                                 std::uint64_t& probes,
                                 std::uint64_t& cand_evals) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const std::size_t m = distances.size() - q;

  // Symmetrized candidate adjacency in local sensor space: kNN is not a
  // symmetric relation, but Prim must be able to relax an edge from
  // whichever endpoint enters the tree first.
  std::vector<std::vector<std::size_t>> adj(m);
  for (std::size_t k = 0; k < m; ++k) {
    for (const std::size_t c : cand.neighbors(q + k)) {
      if (c < q) continue;  // depot edges enter via the root star
      adj[k].push_back(c - q);
      adj[c - q].push_back(k);
    }
  }
  for (auto& a : adj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }

  graph::MstResult result;
  std::vector<double> best(m + 1, kInf);
  std::vector<std::size_t> best_from(m + 1, kNone);
  std::vector<char> in_tree(m + 1, 0);

  // Lazy binary heap of (key, aux node); stale entries are skipped on
  // extraction. Pair ordering breaks key ties on the smaller node index.
  using Item = std::pair<double, std::size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;

  in_tree[0] = 1;
  for (std::size_t k = 0; k < m; ++k) {
    best[k + 1] = root_dist[k];
    best_from[k + 1] = 0;
    heap.emplace(root_dist[k], k + 1);
  }

  result.edges.reserve(m);
  // Key updates run in two passes per extraction: gather the still-open
  // frontier neighbors, one batched row probe, then the original relax
  // loop over the results (same order, same comparisons — bit-identical).
  std::vector<std::size_t> batch_js;
  std::vector<std::size_t> batch_v;
  std::vector<double> batch_w;
  for (std::size_t added = 0; added < m;) {
    MWC_ASSERT_MSG(!heap.empty(), "root star keeps the aux graph connected");
    const auto [key, u] = heap.top();
    heap.pop();
    if (in_tree[u] || key > best[u]) continue;  // stale entry
    in_tree[u] = 1;
    result.edges.push_back(graph::Edge{best_from[u], u, best[u]});
    result.total_weight += best[u];
    ++added;
    batch_js.clear();
    batch_v.clear();
    for (const std::size_t j : adj[u - 1]) {
      const std::size_t v = j + 1;
      if (in_tree[v]) continue;
      batch_js.push_back(q + j);
      batch_v.push_back(v);
    }
    if (batch_js.empty()) continue;
    cand_evals += batch_js.size();
    probes += batch_js.size();
    batch_w.resize(batch_js.size());
    distances.distances_to(q + u - 1, batch_js, batch_w.data());
    for (std::size_t t = 0; t < batch_v.size(); ++t) {
      const std::size_t v = batch_v[t];
      const double w = batch_w[t];
      if (w < best[v]) {
        best[v] = w;
        best_from[v] = u;
        heap.emplace(w, v);
      }
    }
  }
  return result;
}

/// True when the candidate edges among sensors (depot entries skipped)
/// connect all sensors: O(m·k) union-find. The root star reaches every
/// sensor, so pruned Prim spans a disconnected candidate graph too, but
/// it can then join two components only through the root even where a
/// short non-candidate edge exists: a cluster of more than k coincident
/// sensors has no candidate edge leaving it.
bool sensors_connected(const CandidateGraph& cand, std::size_t q) {
  const std::size_t m = cand.size() - q;
  graph::Dsu dsu(m);
  for (std::size_t k = 0; k < m && dsu.num_sets() > 1; ++k)
    for (const std::size_t c : cand.neighbors(q + k))
      if (c >= q) dsu.unite(k, c - q);
  return dsu.num_sets() == 1;
}

/// Shared core of the dense and pruned MSF: nearest-depot scan, aux-graph
/// MST (dense or candidate-pruned), un-contract.
QRootedForest msf_impl(const DistanceView& distances, std::size_t q,
                       const CandidateGraph* candidates) {
  MWC_OBS_SCOPE("tsp.q_rooted_msf");
  MWC_ASSERT_MSG(q >= 1, "q-rooted MSF needs at least one depot");
  MWC_ASSERT(q <= distances.size());
  const std::size_t m = distances.size() - q;

  QRootedForest result;
  result.trees.reserve(q);

  if (m == 0) {
    for (std::size_t l = 0; l < q; ++l)
      result.trees.emplace_back(l, std::span<const graph::Edge>{});
    return result;
  }

  MWC_OBS_COUNT("tsp.msf_builds");
  // Probes accumulate in a local and flush once at the end, so the
  // Prim/root-scan inner loops pay no atomic traffic.
  std::uint64_t probes = 0;
  std::uint64_t cand_evals = 0;

  // Auxiliary contracted graph G_r: node 0 is the virtual root r (all q
  // depots merged), nodes 1..m are the sensors. w_r(0, k) is the distance
  // from sensor k to its nearest depot; remember which depot realizes it.
  std::vector<double> root_dist(m, std::numeric_limits<double>::infinity());
  std::vector<std::size_t> nearest_depot(m, 0);
  {
    // Depot-major, cache-blocked scan: one batched row probe per
    // (depot, sensor-block) instead of m per-sensor depot loops.
    // Distances are symmetric bit-for-bit, so probing (l, q+k) equals the
    // seed's (q+k, l), and merging depots in ascending order with strict
    // < keeps the seed's first-minimal-depot tie-breaking.
    constexpr std::size_t kBlock = 4096;
    std::vector<std::size_t> sensor_ids(m);
    for (std::size_t k = 0; k < m; ++k) sensor_ids[k] = q + k;
    std::vector<double> dl(std::min(m, kBlock));
    for (std::size_t k0 = 0; k0 < m; k0 += kBlock) {
      const std::size_t len = std::min(kBlock, m - k0);
      const std::span<const std::size_t> block(sensor_ids.data() + k0, len);
      for (std::size_t l = 0; l < q; ++l) {
        distances.distances_to(l, block, dl.data());
        for (std::size_t k = 0; k < len; ++k) {
          if (dl[k] < root_dist[k0 + k]) {
            root_dist[k0 + k] = dl[k];
            nearest_depot[k0 + k] = l;
          }
        }
      }
    }
  }
  probes += static_cast<std::uint64_t>(m) * q;

  const auto aux_dist = [&](std::size_t i, std::size_t j) -> double {
    if (i == j) return 0.0;
    if (i == 0) return root_dist[j - 1];
    if (j == 0) return root_dist[i - 1];
    ++probes;
    return distances(q + i - 1, q + j - 1);
  };

  graph::MstResult mst;
  const bool pruned = prunable(candidates, distances.size());
  if (pruned && sensors_connected(*candidates, q)) {
    mst = prim_msf_pruned(distances, q, *candidates, root_dist, probes,
                          cand_evals);
  } else {
    if (pruned) MWC_OBS_COUNT("tsp.msf_dense_fallbacks");
    mst = graph::prim_mst_with(m + 1, aux_dist, /*root=*/0);
  }
  MWC_OBS_COUNT_N("oracle.probes", probes);
  MWC_OBS_COUNT_N("tsp.cand.hits", cand_evals);

  // Un-contract: an MST edge (0, k) becomes (nearest_depot[k-1], sensor).
  // Each subtree hanging off the virtual root attaches through exactly one
  // such edge, so assigning subtree edges to that depot partitions the MST
  // into q depot-rooted trees (possibly several subtrees per depot).
  const auto parent = graph::mst_parents(m + 1, mst.edges, /*root=*/0);

  // owner[aux_node] = depot owning that node's subtree (sensors only).
  std::vector<std::size_t> owner(m + 1, q);
  // Resolve owners top-down: a sensor attached to the root gets its
  // nearest depot; otherwise it inherits its parent's owner. Iterate until
  // fixed point (parents can appear after children in edge order, so walk
  // by increasing depth via repeated sweeps; MST has <= m+1 nodes so the
  // loop is cheap).
  {
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t v = 1; v <= m; ++v) {
        if (owner[v] != q) continue;
        if (parent[v] == 0) {
          owner[v] = nearest_depot[v - 1];
          changed = true;
        } else if (owner[parent[v]] != q) {
          owner[v] = owner[parent[v]];
          changed = true;
        }
      }
    }
  }

  // Build per-depot edge lists in combined index space.
  std::vector<std::vector<graph::Edge>> depot_edges(q);
  for (const auto& e : mst.edges) {
    const std::size_t a = e.u;
    const std::size_t b = e.v;
    if (a == 0 || b == 0) {
      const std::size_t s = (a == 0) ? b : a;  // sensor aux index
      const std::size_t depot = nearest_depot[s - 1];
      depot_edges[depot].push_back(
          graph::Edge{depot, q + (s - 1), e.w});
    } else {
      const std::size_t depot = owner[a];
      MWC_DEBUG_ASSERT(owner[a] == owner[b]);
      depot_edges[depot].push_back(
          graph::Edge{q + (a - 1), q + (b - 1), e.w});
    }
  }

  for (std::size_t l = 0; l < q; ++l) {
    result.trees.emplace_back(l, depot_edges[l]);
    result.total_weight += result.trees.back().total_weight();
  }
  MWC_DEBUG_ASSERT(std::abs(result.total_weight - mst.total_weight) <
                   1e-6 * (1.0 + mst.total_weight));
  return result;
}

}  // namespace

std::vector<geom::Point> CombinedPointsView::materialize() const {
  std::vector<geom::Point> pts;
  pts.reserve(size());
  pts.insert(pts.end(), depots_.begin(), depots_.end());
  pts.insert(pts.end(), sensors_.begin(), sensors_.end());
  return pts;
}

QRootedForest q_rooted_msf(const QRootedInstance& instance) {
  return q_rooted_msf(instance.distances(), instance.q());
}

QRootedForest q_rooted_msf(const DistanceView& distances, std::size_t q,
                           const CandidateGraph* candidates) {
  return msf_impl(distances, q, candidates);
}

QRootedForest repair_q_rooted_msf(const DistanceView& distances,
                                  std::size_t q, const QRootedForest& base,
                                  const MsfRepairPlan& plan,
                                  const CandidateGraph* candidates,
                                  MsfRepairStats* stats) {
  MWC_OBS_SCOPE("tsp.msf_repair");
  MWC_OBS_COUNT("tsp.repair.msf");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  MWC_ASSERT_MSG(q >= 1 && base.trees.size() == q,
                 "base forest must have one tree per depot");
  MWC_ASSERT_MSG(plan.tree_dirty.size() == q, "tree_dirty must have size q");
  MWC_ASSERT_MSG(plan.root_active.empty() || plan.root_active.size() == q,
                 "root_active must be empty or size q");
  const std::size_t total = distances.size();

  const auto active = [&](std::size_t l) {
    return plan.root_active.empty() || plan.root_active[l] != 0;
  };
  std::size_t num_active = 0;
  for (std::size_t l = 0; l < q; ++l) {
    if (active(l)) ++num_active;
    MWC_ASSERT_MSG(active(l) || plan.tree_dirty[l] != 0,
                   "inactive roots must have dirty trees");
  }
  MWC_ASSERT_MSG(num_active >= 1, "at least one depot must stay active");

  // Split sensors into the dirty region (re-spanned below) and the clean
  // remainder (kept verbatim, owner recorded for grafting).
  std::vector<std::size_t> owner(total, kNone);  // clean sensors only
  std::vector<std::size_t> dirty;                // combined sensor ids
  std::vector<std::size_t> clean;
  for (std::size_t l = 0; l < q; ++l) {
    for (const std::size_t v : base.trees[l].nodes()) {
      if (v < q) continue;
      MWC_ASSERT_MSG(v < total, "base tree node outside the combined space");
      if (plan.tree_dirty[l]) {
        dirty.push_back(v);
      } else {
        owner[v] = l;
        clean.push_back(v);
      }
    }
  }
  for (const std::size_t v : plan.extra_sensors) {
    MWC_ASSERT_MSG(v >= q && v < total, "extra sensor outside the space");
    dirty.push_back(v);
  }
  std::sort(dirty.begin(), dirty.end());
  const std::size_t d = dirty.size();
  MWC_OBS_COUNT_N("tsp.repair.dirty_sensors", d);
  if (stats != nullptr) stats->dirty_sensors = d;

  std::uint64_t probes = 0;
  std::uint64_t cand_evals = 0;

  // Dirty-local index of each combined id.
  std::vector<std::size_t> local(total, kNone);
  for (std::size_t k = 0; k < d; ++k) local[dirty[k]] = k;

  // Virtual-root star: everything already connected — active depots and
  // clean sensors — contracts into aux node 0. For each dirty sensor,
  // find its cheapest attachment into that structure: all active depots
  // exactly, plus clean sensors from its candidate row (or all of them
  // when running dense).
  std::vector<double> root_dist(d, kInf);
  std::vector<std::size_t> attach(d, kNone);  // combined id realizing it
  const bool pruned = prunable(candidates, total);
  {
    // Batched attachment scan: per dirty sensor, gather every legal
    // attachment target in the seed's evaluation order (active depots
    // ascending, then candidate/clean sensors), one row probe, then the
    // original strict-< merge — first minimum wins, bit-identical.
    std::vector<std::size_t> active_depots;
    for (std::size_t l = 0; l < q; ++l)
      if (active(l)) active_depots.push_back(l);
    std::vector<std::size_t> targets;
    std::vector<double> tw;
    for (std::size_t k = 0; k < d; ++k) {
      const std::size_t s = dirty[k];
      targets.assign(active_depots.begin(), active_depots.end());
      if (pruned) {
        for (const std::size_t c : candidates->neighbors(s)) {
          ++cand_evals;
          if (c < q || owner[c] == kNone) continue;
          targets.push_back(c);
        }
      } else {
        targets.insert(targets.end(), clean.begin(), clean.end());
      }
      tw.resize(targets.size());
      distances.distances_to(s, targets, tw.data());
      probes += targets.size();
      for (std::size_t t = 0; t < targets.size(); ++t) {
        if (tw[t] < root_dist[k]) {
          root_dist[k] = tw[t];
          attach[k] = targets[t];
        }
      }
    }
  }

  // Dirty-dirty adjacency: candidate rows restricted to the dirty set
  // (symmetrized), or all pairs when dense.
  std::vector<std::vector<std::size_t>> adj(d);
  if (pruned) {
    for (std::size_t k = 0; k < d; ++k) {
      for (const std::size_t c : candidates->neighbors(dirty[k])) {
        ++cand_evals;
        if (c < q || local[c] == kNone) continue;
        adj[k].push_back(local[c]);
        adj[local[c]].push_back(k);
      }
    }
    for (auto& a : adj) {
      std::sort(a.begin(), a.end());
      a.erase(std::unique(a.begin(), a.end()), a.end());
    }
  } else {
    for (std::size_t k = 0; k < d; ++k)
      for (std::size_t j = 0; j < d; ++j)
        if (j != k) adj[k].push_back(j);
  }

  // Lazy-heap Prim over aux nodes {0 = contracted clean structure,
  // 1..d = dirty sensors} — the same scheme as prim_msf_pruned.
  graph::MstResult mst;
  if (d > 0) {
    std::vector<double> best(d + 1, kInf);
    std::vector<std::size_t> best_from(d + 1, kNone);
    std::vector<char> in_tree(d + 1, 0);
    using Item = std::pair<double, std::size_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
    in_tree[0] = 1;
    for (std::size_t k = 0; k < d; ++k) {
      best[k + 1] = root_dist[k];
      best_from[k + 1] = 0;
      heap.emplace(root_dist[k], k + 1);
    }
    mst.edges.reserve(d);
    // Same gather / batch-probe / relay scheme as prim_msf_pruned.
    std::vector<std::size_t> batch_js;
    std::vector<std::size_t> batch_v;
    std::vector<double> batch_w;
    for (std::size_t added = 0; added < d;) {
      MWC_ASSERT_MSG(!heap.empty(), "root star keeps the aux graph connected");
      const auto [key, u] = heap.top();
      heap.pop();
      if (in_tree[u] || key > best[u]) continue;  // stale entry
      in_tree[u] = 1;
      mst.edges.push_back(graph::Edge{best_from[u], u, best[u]});
      mst.total_weight += best[u];
      ++added;
      batch_js.clear();
      batch_v.clear();
      for (const std::size_t j : adj[u - 1]) {
        const std::size_t v = j + 1;
        if (in_tree[v]) continue;
        batch_js.push_back(dirty[j]);
        batch_v.push_back(v);
      }
      if (batch_js.empty()) continue;
      probes += batch_js.size();
      batch_w.resize(batch_js.size());
      distances.distances_to(dirty[u - 1], batch_js, batch_w.data());
      for (std::size_t t = 0; t < batch_v.size(); ++t) {
        const std::size_t v = batch_v[t];
        const double w = batch_w[t];
        if (w < best[v]) {
          best[v] = w;
          best_from[v] = u;
          heap.emplace(w, v);
        }
      }
    }
  }
  MWC_OBS_COUNT_N("oracle.probes", probes);
  MWC_OBS_COUNT_N("tsp.cand.hits", cand_evals);

  // Un-contract in the dirty subspace: sensors attached to aux node 0
  // inherit the depot of their attachment point (the depot itself, or
  // the owner of the clean sensor they graft onto); sensor-sensor edges
  // inherit by parent propagation.
  const auto parent = graph::mst_parents(d + 1, mst.edges, /*root=*/0);
  std::vector<std::size_t> dirty_owner(d + 1, kNone);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t v = 1; v <= d; ++v) {
      if (dirty_owner[v] != kNone) continue;
      if (parent[v] == 0) {
        const std::size_t at = attach[v - 1];
        dirty_owner[v] = at < q ? at : owner[at];
        changed = true;
      } else if (dirty_owner[parent[v]] != kNone) {
        dirty_owner[v] = dirty_owner[parent[v]];
        changed = true;
      }
    }
  }

  std::vector<std::vector<graph::Edge>> new_edges(q);
  for (const auto& e : mst.edges) {
    const std::size_t u = e.u;
    const std::size_t v = e.v;
    if (u == 0 || v == 0) {
      const std::size_t k = (u == 0) ? v : u;  // dirty aux index
      new_edges[dirty_owner[k]].push_back(
          graph::Edge{attach[k - 1], dirty[k - 1], e.w});
    } else {
      MWC_DEBUG_ASSERT(dirty_owner[u] == dirty_owner[v]);
      new_edges[dirty_owner[u]].push_back(
          graph::Edge{dirty[u - 1], dirty[v - 1], e.w});
    }
  }

  QRootedForest result;
  result.trees.reserve(q);
  std::size_t rebuilt = 0;
  std::vector<char> tree_changed(q, 0);
  for (std::size_t l = 0; l < q; ++l) {
    if (!plan.tree_dirty[l] && new_edges[l].empty()) {
      result.trees.push_back(base.trees[l]);  // untouched — reuse
    } else {
      ++rebuilt;
      tree_changed[l] = 1;
      std::vector<graph::Edge> edges;
      if (!plan.tree_dirty[l])
        edges.assign(base.trees[l].edges().begin(),
                     base.trees[l].edges().end());
      edges.insert(edges.end(), new_edges[l].begin(), new_edges[l].end());
      result.trees.emplace_back(l, edges);
    }
    result.total_weight += result.trees.back().total_weight();
  }
  MWC_OBS_COUNT_N("tsp.repair.rebuilt_trees", rebuilt);
  MWC_OBS_COUNT_N("tsp.repair.reused_trees", q - rebuilt);
  if (stats != nullptr) {
    stats->rebuilt_trees = rebuilt;
    stats->reused_trees = q - rebuilt;
    stats->tree_changed = std::move(tree_changed);
  }
  return result;
}

QRootedTours q_rooted_tsp(const QRootedInstance& instance,
                          const QRootedOptions& options) {
  return q_rooted_tsp(instance.distances(), instance.q(), options);
}

QRootedTours q_rooted_tsp(const DistanceView& distances, std::size_t q,
                          const QRootedOptions& options,
                          ThreadPool* polish_pool) {
  MWC_OBS_SCOPE("tsp.q_rooted_tsp");
  auto forest = q_rooted_msf(distances, q, options.candidates);

  QRootedTours result;
  result.tours.reserve(forest.trees.size());
  for (const auto& tree : forest.trees) {
    Tour tour;
    switch (options.construction) {
      case TourConstruction::kDoubleTree:
        tour = tree_to_tour(tree.edges(), tree.root());
        break;
      case TourConstruction::kChristofides: {
        // Re-solve the group's tour from scratch; the MSF only decides
        // which depot serves which sensors.
        const auto& nodes = tree.nodes();
        std::size_t local_root = 0;
        for (std::size_t k = 0; k < nodes.size(); ++k)
          if (nodes[k] == tree.root()) local_root = k;
        Tour local = christofides_tour(
            distances.sub({nodes.begin(), nodes.end()}), local_root);
        std::vector<std::size_t> order;
        order.reserve(local.size());
        for (std::size_t v : local.order()) order.push_back(nodes[v]);
        tour = Tour(std::move(order));
        break;
      }
    }
    result.tours.push_back(std::move(tour));
  }

  if (options.improve) {
    ImproveOptions improve_opts = options.improve_options;
    if (improve_opts.candidates == nullptr)
      improve_opts.candidates = options.candidates;
    // Each tour is polished independently against the (thread-safe)
    // distance kernel, so fanning out over a pool changes nothing but
    // wall-clock; per-tour gains land in a slot vector and flush serially.
    std::vector<double> gains(result.tours.size(), 0.0);
    const auto polish = [&](std::size_t t) {
      Tour& tour = result.tours[t];
      if (tour.size() < 4) return;
      gains[t] = improve_tour(tour, distances, improve_opts);
      // Or-opt may relocate the segment containing the depot, rotating
      // the closed tour; restore the start-at-own-depot invariant
      // (Theorem 1 structure) — rotation never changes the length.
      auto& order = tour.order();
      const auto root = forest.trees[t].root();
      const auto at = std::find(order.begin(), order.end(), root);
      if (at != order.begin() && at != order.end())
        std::rotate(order.begin(), at, order.end());
    };
    if (polish_pool != nullptr) {
      parallel_for(*polish_pool, 0, result.tours.size(), polish);
    } else {
      serial_for(0, result.tours.size(), polish);
    }
    for (const double gain : gains) {
      MWC_OBS_GAUGE_ADD("tsp.improve_total_gain", gain);
    }
  }

  for (const auto& tour : result.tours)
    result.total_length += tour.length_with(distances);
  MWC_OBS_COUNT_N("tsp.tours_built", result.tours.size());
  result.forest = std::move(forest);
  return result;
}

MultiRootAssignment q_rooted_msf_assign(
    std::size_t num_roots,
    const std::function<double(std::size_t, std::size_t)>& root_dist,
    std::span<const geom::Point> sensors) {
  MWC_ASSERT(num_roots >= 1);
  const std::size_t m = sensors.size();

  MultiRootAssignment result;
  result.groups.assign(num_roots, {});
  if (m == 0) return result;

  std::vector<double> best_root_dist(m,
                                     std::numeric_limits<double>::infinity());
  std::vector<std::size_t> nearest_root(m, 0);
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t r = 0; r < num_roots; ++r) {
      const double d = root_dist(r, k);
      if (d < best_root_dist[k]) {
        best_root_dist[k] = d;
        nearest_root[k] = r;
      }
    }
  }

  const auto aux_dist = [&](std::size_t i, std::size_t j) -> double {
    if (i == j) return 0.0;
    if (i == 0) return best_root_dist[j - 1];
    if (j == 0) return best_root_dist[i - 1];
    return geom::distance(sensors[i - 1], sensors[j - 1]);
  };
  const auto mst = graph::prim_mst(m + 1, aux_dist, /*root=*/0);
  result.total_weight = mst.total_weight;

  const auto parent = graph::mst_parents(m + 1, mst.edges, /*root=*/0);
  std::vector<std::size_t> owner(m + 1, num_roots);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t v = 1; v <= m; ++v) {
      if (owner[v] != num_roots) continue;
      if (parent[v] == 0) {
        owner[v] = nearest_root[v - 1];
        changed = true;
      } else if (owner[parent[v]] != num_roots) {
        owner[v] = owner[parent[v]];
        changed = true;
      }
    }
  }
  for (std::size_t v = 1; v <= m; ++v) {
    MWC_DEBUG_ASSERT(owner[v] < num_roots);
    result.groups[owner[v]].push_back(v - 1);
  }
  return result;
}

bool covers_all_sensors(const QRootedInstance& instance,
                        const QRootedTours& tours) {
  const std::size_t q = instance.q();
  if (tours.tours.size() != q) return false;

  std::unordered_set<std::size_t> covered;
  for (std::size_t l = 0; l < q; ++l) {
    const auto& order = tours.tours[l].order();
    if (order.empty() || order.front() != l) return false;
    for (std::size_t v : order) {
      if (v < q) {
        if (v != l) return false;  // tours may contain only their own depot
      } else {
        if (!covered.insert(v).second) return false;  // disjoint on sensors
      }
    }
  }
  return covered.size() == instance.m();
}

}  // namespace mwc::tsp
