// Batch distance kernels over structure-of-arrays coordinates.
//
// Three batch primitives cover every hot distance loop in the pipeline:
//
//   * distance_row   — one query point against a contiguous coordinate
//                      block (batched view probes, MSF root scans);
//   * distance2_row  — the same without the sqrt (k-NN refinement,
//                      candidate-repair break-in scans);
//   * distance_pairs — elementwise distance between two gathered
//                      coordinate blocks (2-opt/Or-opt gain batches).
//
// Each is a plain loop whose element j is exactly geom::distance (or
// geom::distance2) of its operands, so a batch result equals the pointwise
// one bit for bit (pinned by tests/geom/simd_test.cpp). The loops are
// sqrt-bound; the compiler vectorizes them at the target's baseline width.
#pragma once

#include <cstddef>

// Always 1: the kernels have one implementation. Kept because benchmark
// reports record it in their environment block.
#define MWC_SIMD_ENABLED 1

namespace mwc::geom::simd {

/// out[j] = sqrt((xs[j]-qx)^2 + (ys[j]-qy)^2) for j in [0, n).
void distance_row(double qx, double qy, const double* xs, const double* ys,
                  double* out, std::size_t n);

/// out[j] = (xs[j]-qx)^2 + (ys[j]-qy)^2 for j in [0, n).
void distance2_row(double qx, double qy, const double* xs, const double* ys,
                   double* out, std::size_t n);

/// out[j] = sqrt((ax[j]-bx[j])^2 + (ay[j]-by[j])^2) for j in [0, n).
void distance_pairs(const double* ax, const double* ay, const double* bx,
                    const double* by, double* out, std::size_t n);

}  // namespace mwc::geom::simd
