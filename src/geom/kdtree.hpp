// Static 2-d kd-tree with nearest-neighbour and range queries. Built once
// over an immutable point set (median splits, implicit balanced layout).
// The library's one spatial index: robust on clustered deployments as
// well as uniform ones.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geom/point.hpp"

namespace mwc::geom {

class KdTree {
 public:
  KdTree() = default;

  /// Builds a balanced tree in O(n log n).
  explicit KdTree(std::span<const Point> points);

  std::size_t size() const noexcept { return points_.size(); }
  bool empty() const noexcept { return points_.empty(); }

  /// Index (into the original point span) of the nearest point; size()
  /// when empty.
  std::size_t nearest(const Point& query) const;

  std::pair<std::size_t, double> nearest_with_distance(
      const Point& query) const;

  /// The k points nearest to `query`, sorted by ascending distance (ties
  /// broken by ascending index). Returns fewer than k pairs when the tree
  /// holds fewer points. Each pair is (original index, distance).
  std::vector<std::pair<std::size_t, double>> knearest(const Point& query,
                                                       std::size_t k) const;

  /// Indices of all points within `radius` of `query` (unsorted).
  std::vector<std::size_t> within(const Point& query, double radius) const;

 private:
  struct Node {
    Point p;
    std::size_t original_index = 0;
    int axis = 0;  // 0 = x, 1 = y
    std::size_t left = kNull;
    std::size_t right = kNull;
  };
  static constexpr std::size_t kNull = static_cast<std::size_t>(-1);

  std::size_t build(std::vector<std::size_t>& idx, std::size_t lo,
                    std::size_t hi, int depth);
  void nn_search(std::size_t node, const Point& query, std::size_t& best,
                 double& best_d2) const;
  void knn_search(std::size_t node, const Point& query, std::size_t k,
                  std::vector<std::pair<double, std::size_t>>& heap) const;
  void range_search(std::size_t node, const Point& query, double r2,
                    std::vector<std::size_t>& out) const;

  std::vector<Point> points_;
  std::vector<Node> nodes_;
  std::size_t root_ = kNull;
};

}  // namespace mwc::geom
