// Minimum spanning trees on dense metric graphs.
//
// Prim's O(n^2) variant is the dense reference: the q-rooted MSF runs it
// over the contracted complete graph when no candidate graph prunes it
// (tsp/qrooted.cpp). Kruskal is provided for sparse edge lists and as an
// independent cross-check in the property tests.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <vector>

#include "geom/distance.hpp"
#include "util/assert.hpp"

namespace mwc::graph {

struct Edge {
  std::size_t u = 0;
  std::size_t v = 0;
  double w = 0.0;
};

struct MstResult {
  std::vector<Edge> edges;  ///< n-1 edges for a connected graph of n nodes
  double total_weight = 0.0;
};

/// Prim's algorithm over a complete graph given by any callable distance
/// source `dist(i, j)`, starting from node `root`. O(n^2) time, O(n)
/// extra space. Statically dispatched — no per-probe type erasure — so
/// this is the form the DistanceView hot paths call; the
/// std::function overload below delegates here.
template <typename DistFn>
MstResult prim_mst_with(std::size_t n, DistFn&& dist, std::size_t root = 0) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  MstResult result;
  if (n == 0) return result;
  MWC_ASSERT(root < n);

  std::vector<double> best(n, kInf);
  std::vector<std::size_t> best_from(n, kNone);
  std::vector<bool> in_tree(n, false);

  best[root] = 0.0;
  result.edges.reserve(n > 0 ? n - 1 : 0);

  for (std::size_t iter = 0; iter < n; ++iter) {
    // Extract the cheapest fringe node.
    std::size_t u = kNone;
    double u_cost = kInf;
    for (std::size_t v = 0; v < n; ++v) {
      if (!in_tree[v] && best[v] < u_cost) {
        u_cost = best[v];
        u = v;
      }
    }
    MWC_ASSERT_MSG(u != kNone, "graph must be connected (finite distances)");
    in_tree[u] = true;
    if (best_from[u] != kNone) {
      result.edges.push_back(Edge{best_from[u], u, best[u]});
      result.total_weight += best[u];
    }
    // Relax all non-tree nodes through u.
    for (std::size_t v = 0; v < n; ++v) {
      if (in_tree[v]) continue;
      const double d = dist(u, v);
      if (d < best[v]) {
        best[v] = d;
        best_from[v] = u;
      }
    }
  }
  return result;
}

/// Prim's algorithm behind a type-erased distance source (convenience
/// form; prefer prim_mst_with in hot paths).
MstResult prim_mst(std::size_t n,
                   const std::function<double(std::size_t, std::size_t)>& dist,
                   std::size_t root = 0);

/// Prim's algorithm over a precomputed distance matrix (fast path, no
/// std::function indirection in the inner loop).
MstResult prim_mst(const mwc::geom::DistanceMatrix& dist,
                   std::size_t root = 0);

/// Kruskal's algorithm on an explicit edge list over n nodes. Returns the
/// minimum spanning forest (spanning tree if connected).
MstResult kruskal_mst(std::size_t n, std::vector<Edge> edges);

}  // namespace mwc::graph
