// Tour construction heuristics.
//
// `double_tree_tour` is the 2-approximation the paper's Algorithm 2 relies
// on (MST -> doubled Euler tour -> shortcut). Nearest-neighbour and
// greedy-edge are classical alternatives used by the ablation benches.
#pragma once

#include <cstddef>
#include <span>

#include "geom/point.hpp"
#include "graph/mst.hpp"
#include "tsp/oracle.hpp"
#include "tsp/tour.hpp"

namespace mwc::tsp {

// The double-tree and Christofides constructors exist in two forms: the
// DistanceView form is the implementation (one distance kernel), the
// point-span form wraps it in a direct-geometry view.
// Results are bit-identical.

/// MST double-tree 2-approximation starting from `start`. O(n^2).
Tour double_tree_tour(const DistanceView& distances, std::size_t start = 0);
Tour double_tree_tour(std::span<const geom::Point> points,
                      std::size_t start = 0);

/// Preorder shortcut of an explicit tree (already rooted at `root`); the
/// q-rooted TSP applies this per depot tree. Node indices are whatever the
/// edge list uses.
Tour tree_to_tour(std::span<const graph::Edge> tree_edges, std::size_t root);

/// Christofides-style construction: MST + a matching on the odd-degree
/// vertices + Eulerian shortcut. The matching is greedy (shortest
/// compatible pair first) rather than minimum-weight perfect matching, so
/// the classical 1.5 guarantee weakens to 2 — but the constant observed
/// in practice sits well below the double-tree's. O(n^2 log n).
Tour christofides_tour(const DistanceView& distances, std::size_t start = 0);
Tour christofides_tour(std::span<const geom::Point> points,
                       std::size_t start = 0);

/// Nearest-neighbour construction from `start`. O(n^2).
Tour nearest_neighbor_tour(std::span<const geom::Point> points,
                           std::size_t start = 0);

/// Greedy edge matching: repeatedly adds the globally shortest edge that
/// keeps degrees <= 2 and forms no premature cycle. O(n^2 log n).
Tour greedy_edge_tour(std::span<const geom::Point> points);

}  // namespace mwc::tsp
