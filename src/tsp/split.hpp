// Tour splitting: turning one rooted closed tour into several rooted
// closed tours, either to bound each subtour's length (capacity-limited
// chargers — cf. Liang et al. [7] in the paper's related work) or to
// balance load across k chargers stationed at the same depot (min-max
// makespan — cf. Xu et al. [16]).
//
// Both use the classic segment-splitting construction: walk the tour,
// cut it into consecutive segments, and close each segment through the
// root. Shortcutting and the triangle inequality give the standard
// guarantees:
//   * capacity: every subtour has length <= L, provided every single
//     round trip root->node->root fits in L; the number of subtours is
//     at most ceil(2 w(C) / L) + 1 in the worst case.
//   * min-max: with k subtours, the longest is at most
//     w(C)/k + 2 max_dist, where max_dist is the farthest node's distance
//     from the root (Frederickson-style bound).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geom/point.hpp"
#include "tsp/oracle.hpp"
#include "tsp/tour.hpp"

namespace mwc::tsp {

struct SplitResult {
  /// Each subtour starts at the root (tour.order().front() == root).
  std::vector<Tour> tours;
  double total_length = 0.0;  ///< sum over subtours
  double max_length = 0.0;    ///< longest subtour
};

// Each splitter exists in two forms: the DistanceView form is the
// implementation (one distance kernel), the point-span
// form wraps it in a direct-geometry view. Results are bit-identical.

/// Splits `tour` (a closed tour that visits `root`) into subtours of
/// length at most `capacity` each. Asserts that every node's round trip
/// from the root fits in `capacity` (otherwise no feasible split exists).
SplitResult split_tour_capacity(const DistanceView& distances,
                                const Tour& tour, std::size_t root,
                                double capacity);
SplitResult split_tour_capacity(std::span<const geom::Point> points,
                                const Tour& tour, std::size_t root,
                                double capacity);

/// Splits `tour` into exactly `k` subtours (some possibly root-only),
/// minimizing the longest via the j/k cost-prefix rule. k >= 1.
SplitResult split_tour_minmax(const DistanceView& distances,
                              const Tour& tour, std::size_t root,
                              std::size_t k);
SplitResult split_tour_minmax(std::span<const geom::Point> points,
                              const Tour& tour, std::size_t root,
                              std::size_t k);

/// True lower bound on any k-charger makespan over this node set: the
/// farthest node's round trip through the root. Useful for tests and
/// reporting.
double minmax_split_lower_bound(const DistanceView& distances,
                                const Tour& tour, std::size_t root,
                                std::size_t k);
double minmax_split_lower_bound(std::span<const geom::Point> points,
                                const Tour& tour, std::size_t root,
                                std::size_t k);

}  // namespace mwc::tsp
