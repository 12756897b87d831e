#include "geom/simd.hpp"

#include <cmath>

#include "geom/point.hpp"

// src/CMakeLists.txt builds this file with -ffp-contract=off, so no FMA
// changes how distance2 rounds, and -fno-math-errno, so the sqrt of a sum
// of squares (never negative) vectorizes without an errno path.

namespace mwc::geom::simd {

void distance_row(double qx, double qy, const double* xs, const double* ys,
                  double* out, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = std::sqrt(distance2(qx, qy, xs[j], ys[j]));
  }
}

void distance2_row(double qx, double qy, const double* xs, const double* ys,
                   double* out, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = distance2(qx, qy, xs[j], ys[j]);
  }
}

void distance_pairs(const double* ax, const double* ay, const double* bx,
                    const double* by, double* out, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = std::sqrt(distance2(ax[j], ay[j], bx[j], by[j]));
  }
}

}  // namespace mwc::geom::simd
