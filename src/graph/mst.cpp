#include "graph/mst.hpp"

#include <algorithm>

#include "graph/dsu.hpp"
#include "util/assert.hpp"

namespace mwc::graph {

MstResult prim_mst(std::size_t n,
                   const std::function<double(std::size_t, std::size_t)>& dist,
                   std::size_t root) {
  return prim_mst_with(n, dist, root);
}

MstResult prim_mst(const mwc::geom::DistanceMatrix& dist, std::size_t root) {
  return prim_mst_with(
      dist.size(),
      [&](std::size_t i, std::size_t j) { return dist(i, j); }, root);
}

MstResult kruskal_mst(std::size_t n, std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.w < b.w; });
  Dsu dsu(n);
  MstResult result;
  for (const Edge& e : edges) {
    MWC_DEBUG_ASSERT(e.u < n && e.v < n);
    if (dsu.unite(e.u, e.v)) {
      result.edges.push_back(e);
      result.total_weight += e.w;
      if (result.edges.size() + 1 == n) break;
    }
  }
  return result;
}

}  // namespace mwc::graph
