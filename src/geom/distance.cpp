#include "geom/distance.hpp"

#include "geom/simd.hpp"
#include "geom/soa.hpp"
#include "util/assert.hpp"

namespace mwc::geom {

DistanceMatrix::DistanceMatrix(std::span<const Point> points)
    : n_(points.size()), d_(points.size() * points.size(), 0.0) {
  // Full-row SIMD fills instead of the seed's mirrored upper triangle:
  // each pair is evaluated twice, but with unit-stride vector kernels
  // that is still much faster, and symmetry is exact anyway
  // ((xi-xj)^2 == (xj-xi)^2 bit-for-bit).
  const PointsSoA soa(points);
  for (std::size_t i = 0; i < n_; ++i) {
    double* row = d_.data() + i * n_;
    simd::distance_row(soa.x(i), soa.y(i), soa.xs().data(), soa.ys().data(),
                       row, n_);
    row[i] = 0.0;
  }
}

bool DistanceMatrix::satisfies_triangle_inequality(double tol) const {
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t j = 0; j < n_; ++j)
      for (std::size_t k = 0; k < n_; ++k)
        if ((*this)(i, j) > (*this)(i, k) + (*this)(k, j) + tol) return false;
  return true;
}

double closed_tour_length(std::span<const Point> points,
                          std::span<const std::size_t> order) {
  if (order.size() < 2) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    MWC_DEBUG_ASSERT(order[i] < points.size());
    total += distance(points[order[i]], points[order[i + 1]]);
  }
  total += distance(points[order.back()], points[order.front()]);
  return total;
}

double path_length(std::span<const Point> points,
                   std::span<const std::size_t> order) {
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    MWC_DEBUG_ASSERT(order[i] < points.size());
    total += distance(points[order[i]], points[order[i + 1]]);
  }
  return total;
}

}  // namespace mwc::geom
