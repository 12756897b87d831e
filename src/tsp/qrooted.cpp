#include "tsp/qrooted.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
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

// Every q-rooted MSF in this file runs on one contracted graph: aux node 0
// is the virtual root r (the active depots merged, plus a repair's clean
// trees), aux node k+1 is sensor ids[k]. w_r(0, k+1) = root_dist[k] is the
// sensor's cheapest edge into r and attach[k] the node realizing it.

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// True when `candidates` can actually prune for this view: covers the
/// combined node space and is not degenerate-complete (the complete graph
/// dispatches dense so the k >= n limit stays bit-identical).
bool prunable(const CandidateGraph* candidates, std::size_t view_size) {
  return candidates != nullptr && candidates->size() == view_size &&
         !candidates->complete();
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

/// Root scan, root-major and cache-blocked: `row(root, k0, len, out)`
/// writes the distances from `root` to sensors k0..k0+len-1, one batched
/// call per (root, sensor block). Roots merge in the given order with
/// strict <, so the first minimal root wins each sensor.
template <typename Row>
void scan_roots(std::span<const std::size_t> roots, Row&& row,
                std::vector<double>& root_dist,
                std::vector<std::size_t>& attach) {
  constexpr std::size_t kBlock = 4096;
  const std::size_t m = root_dist.size();
  std::vector<double> dl(std::min(m, kBlock));
  for (std::size_t k0 = 0; k0 < m; k0 += kBlock) {
    const std::size_t len = std::min(kBlock, m - k0);
    for (const std::size_t root : roots) {
      row(root, k0, len, dl.data());
      for (std::size_t k = 0; k < len; ++k) {
        if (dl[k] < root_dist[k0 + k]) {
          root_dist[k0 + k] = dl[k];
          attach[k0 + k] = root;
        }
      }
    }
  }
}

/// Symmetrized candidate adjacency among `ids` in aux-local space (row k
/// for ids[k]): kNN is not a symmetric relation, but Prim must be able to
/// relax an edge from whichever endpoint enters the tree first.
/// Candidates outside `ids` (depots, clean sensors) reach the tree
/// through the root star instead.
std::vector<std::vector<std::size_t>> candidate_adjacency(
    const CandidateGraph& cand, std::span<const std::size_t> ids) {
  std::vector<std::size_t> local(cand.size(), kNone);
  for (std::size_t k = 0; k < ids.size(); ++k) local[ids[k]] = k;
  std::vector<std::vector<std::size_t>> adj(ids.size());
  for (std::size_t k = 0; k < ids.size(); ++k) {
    for (const std::size_t c : cand.neighbors(ids[k])) {
      const std::size_t j = local[c];
      if (j == kNone) continue;
      adj[k].push_back(j);
      adj[j].push_back(k);
    }
  }
  for (auto& a : adj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }
  return adj;
}

/// Lazy-heap Prim over the contracted graph restricted to `adj` plus the
/// root's star, which keeps it connected: O((d·k + d) log d). Stale heap
/// entries are skipped on extraction; pair ordering breaks key ties on
/// the smaller node index, as the dense scan does. Each extraction
/// gathers its open neighbors, probes them in one batch, then relaxes
/// them in adjacency order.
graph::MstResult prim_sparse(const DistanceView& distances,
                             std::span<const std::size_t> ids,
                             std::span<const double> root_dist,
                             const std::vector<std::vector<std::size_t>>& adj,
                             std::uint64_t& probes) {
  const std::size_t d = ids.size();
  graph::MstResult result;
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

  result.edges.reserve(d);
  std::vector<std::size_t> batch_js;
  std::vector<std::size_t> batch_v;
  std::vector<double> batch_w;
  for (std::size_t added = 0; added < d;) {
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
      batch_js.push_back(ids[j]);
      batch_v.push_back(v);
    }
    if (batch_js.empty()) continue;
    probes += batch_js.size();
    batch_w.resize(batch_js.size());
    distances.distances_to(ids[u - 1], batch_js, batch_w.data());
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

/// Dense Prim over the complete contracted graph: O(d²) time, O(d)
/// memory. `pair(i, j)` is the distance between sensors i and j.
template <typename PairDist>
graph::MstResult prim_dense(std::span<const double> root_dist,
                            PairDist&& pair) {
  const auto aux_dist = [&](std::size_t i, std::size_t j) -> double {
    if (i == j) return 0.0;
    if (i == 0) return root_dist[j - 1];
    if (j == 0) return root_dist[i - 1];
    return pair(i - 1, j - 1);
  };
  return graph::prim_mst_with(root_dist.size() + 1, aux_dist, /*root=*/0);
}

/// Un-contract: the owner of every aux node 1..d (entry 0 unused). Each
/// subtree hanging off the virtual root attaches through exactly one root
/// edge, so a root-star node takes root_owner(k) for its sensor k and
/// every other node inherits its parent's owner. Prim emits each edge as
/// (tree node, new node), so one pass in edge order resolves every owner.
template <typename RootOwner>
std::vector<std::size_t> uncontract(const graph::MstResult& mst,
                                    std::size_t d, RootOwner&& root_owner) {
  std::vector<std::size_t> owner(d + 1, kNone);
  for (const graph::Edge& e : mst.edges) {
    MWC_DEBUG_ASSERT(e.v != 0 && (e.u == 0 || owner[e.u] != kNone));
    owner[e.v] = e.u == 0 ? root_owner(e.v - 1) : owner[e.u];
  }
  return owner;
}

/// The one contracted MSF behind q_rooted_msf and repair_q_rooted_msf.
/// Spans the sorted combined sensor ids `ids` from a virtual root holding
/// the active `depots` plus the `clean` sensors (owner[c] = the depot
/// whose kept tree holds c, kNone elsewhere). A sensor's root edge is its
/// nearest active depot (ties to the first), then any strictly closer
/// clean sensor among its candidates (all clean sensors when dense).
/// Non-null `cand` runs lazy-heap Prim over its edges; null runs dense
/// Prim. Returns the new edges per depot (size q) in combined ids.
std::vector<std::vector<graph::Edge>> contracted_msf(
    const DistanceView& distances, std::size_t q,
    std::span<const std::size_t> ids, std::span<const std::size_t> depots,
    std::span<const std::size_t> clean, std::span<const std::size_t> owner,
    const CandidateGraph* cand) {
  const std::size_t d = ids.size();
  // Probes accumulate in locals and flush once at the end, so the inner
  // loops pay no atomic traffic.
  std::uint64_t probes = static_cast<std::uint64_t>(d) * depots.size();
  std::uint64_t cand_hits = 0;

  std::vector<double> root_dist(d, kInf);
  std::vector<std::size_t> attach(d, kNone);
  // Distances are symmetric bit-for-bit, so probing (depot, sensor)
  // equals (sensor, depot).
  scan_roots(depots,
             [&](std::size_t l, std::size_t k0, std::size_t len, double* out) {
               distances.distances_to(l, ids.subspan(k0, len), out);
             },
             root_dist, attach);
  if (!clean.empty()) {
    std::vector<std::size_t> targets;
    std::vector<double> tw;
    for (std::size_t k = 0; k < d; ++k) {
      if (cand != nullptr) {
        targets.clear();
        for (const std::size_t c : cand->neighbors(ids[k]))
          if (owner[c] != kNone) targets.push_back(c);
        cand_hits += targets.size();
      } else {
        targets.assign(clean.begin(), clean.end());
      }
      if (targets.empty()) continue;
      tw.resize(targets.size());
      distances.distances_to(ids[k], targets, tw.data());
      probes += targets.size();
      for (std::size_t t = 0; t < targets.size(); ++t) {
        if (tw[t] < root_dist[k]) {
          root_dist[k] = tw[t];
          attach[k] = targets[t];
        }
      }
    }
  }

  graph::MstResult mst;
  if (cand != nullptr) {
    const std::uint64_t before = probes;
    mst = prim_sparse(distances, ids, root_dist,
                      candidate_adjacency(*cand, ids), probes);
    cand_hits += probes - before;
  } else {
    mst = prim_dense(root_dist, [&](std::size_t i, std::size_t j) {
      ++probes;
      return distances(ids[i], ids[j]);
    });
  }
  MWC_OBS_COUNT_N("oracle.probes", probes);
  MWC_OBS_COUNT_N("tsp.cand.hits", cand_hits);

  const auto tree_of = uncontract(mst, d, [&](std::size_t k) {
    return attach[k] < q ? attach[k] : owner[attach[k]];
  });
  std::vector<std::vector<graph::Edge>> edges(q);
  for (const graph::Edge& e : mst.edges) {
    const std::size_t from = e.u == 0 ? attach[e.v - 1] : ids[e.u - 1];
    edges[tree_of[e.v]].push_back(graph::Edge{from, ids[e.v - 1], e.w});
  }
  return edges;
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
  MWC_OBS_SCOPE("tsp.q_rooted_msf");
  MWC_ASSERT_MSG(q >= 1, "q-rooted MSF needs at least one depot");
  MWC_ASSERT(q <= distances.size());
  const std::size_t m = distances.size() - q;

  const CandidateGraph* cand =
      prunable(candidates, distances.size()) ? candidates : nullptr;
  if (m > 0) {
    MWC_OBS_COUNT("tsp.msf_builds");
    if (cand != nullptr && !sensors_connected(*cand, q)) {
      MWC_OBS_COUNT("tsp.msf_dense_fallbacks");
      cand = nullptr;
    }
  }
  std::vector<std::size_t> depots(q);
  std::iota(depots.begin(), depots.end(), std::size_t{0});
  std::vector<std::size_t> sensors(m);
  std::iota(sensors.begin(), sensors.end(), q);
  const auto edges =
      contracted_msf(distances, q, sensors, depots, {}, {}, cand);

  QRootedForest result;
  result.trees.reserve(q);
  for (std::size_t l = 0; l < q; ++l) {
    result.trees.emplace_back(l, edges[l]);
    result.total_weight += result.trees.back().total_weight();
  }
  return result;
}

QRootedForest repair_q_rooted_msf(const DistanceView& distances,
                                  std::size_t q, const QRootedForest& base,
                                  const MsfRepairPlan& plan,
                                  const CandidateGraph* candidates,
                                  MsfRepairStats* stats) {
  MWC_OBS_SCOPE("tsp.msf_repair");
  MWC_OBS_COUNT("tsp.repair.msf");
  MWC_ASSERT_MSG(q >= 1 && base.trees.size() == q,
                 "base forest must have one tree per depot");
  MWC_ASSERT_MSG(plan.tree_dirty.size() == q, "tree_dirty must have size q");
  MWC_ASSERT_MSG(plan.root_active.empty() || plan.root_active.size() == q,
                 "root_active must be empty or size q");
  const std::size_t total = distances.size();

  std::vector<std::size_t> active_depots;
  for (std::size_t l = 0; l < q; ++l) {
    if (plan.root_active.empty() || plan.root_active[l] != 0)
      active_depots.push_back(l);
    else
      MWC_ASSERT_MSG(plan.tree_dirty[l] != 0,
                     "inactive roots must have dirty trees");
  }
  MWC_ASSERT_MSG(!active_depots.empty(), "at least one depot must stay active");

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
  MWC_OBS_COUNT_N("tsp.repair.dirty_sensors", dirty.size());
  if (stats != nullptr) stats->dirty_sensors = dirty.size();

  const auto new_edges = contracted_msf(
      distances, q, dirty, active_depots, clean, owner,
      prunable(candidates, total) ? candidates : nullptr);

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

  std::vector<std::size_t> roots(num_roots);
  std::iota(roots.begin(), roots.end(), std::size_t{0});
  std::vector<double> best_root_dist(m, kInf);
  std::vector<std::size_t> nearest_root(m, 0);
  scan_roots(roots,
             [&](std::size_t r, std::size_t k0, std::size_t len, double* out) {
               for (std::size_t k = 0; k < len; ++k)
                 out[k] = root_dist(r, k0 + k);
             },
             best_root_dist, nearest_root);

  const auto mst = prim_dense(best_root_dist, [&](std::size_t i,
                                                  std::size_t j) {
    return geom::distance(sensors[i], sensors[j]);
  });
  result.total_weight = mst.total_weight;
  const auto owner =
      uncontract(mst, m, [&](std::size_t k) { return nearest_root[k]; });
  for (std::size_t k = 0; k < m; ++k) result.groups[owner[k + 1]].push_back(k);
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
