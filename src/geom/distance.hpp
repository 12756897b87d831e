// Dense pairwise distance matrix over a point set, plus polyline lengths.
// The tour pipeline itself never materializes a matrix (it reads direct
// geometry through tsp::DistanceView); `DistanceMatrix` serves small
// graph-level callers and tests that want an explicit O(n^2) table.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geom/point.hpp"

namespace mwc::geom {

/// Symmetric n x n matrix of Euclidean distances, stored row-major.
class DistanceMatrix {
 public:
  DistanceMatrix() = default;

  /// Builds the full matrix from `points` (O(n^2) space and time).
  explicit DistanceMatrix(std::span<const Point> points);

  std::size_t size() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }

  double operator()(std::size_t i, std::size_t j) const noexcept {
    return d_[i * n_ + j];
  }

  /// Row i as a contiguous span (used by Prim's inner loop).
  std::span<const double> row(std::size_t i) const noexcept {
    return {d_.data() + i * n_, n_};
  }

  /// Verifies the triangle inequality on all O(n^3) triples; test helper
  /// for small instances only.
  bool satisfies_triangle_inequality(double tol = 1e-9) const;

 private:
  std::size_t n_ = 0;
  std::vector<double> d_;
};

/// Total length of the closed polyline visiting `order` of `points`
/// (returns to the first node).
double closed_tour_length(std::span<const Point> points,
                          std::span<const std::size_t> order);

/// Total length of the open polyline.
double path_length(std::span<const Point> points,
                   std::span<const std::size_t> order);

}  // namespace mwc::geom
