// Portable SIMD distance kernels over structure-of-arrays coordinates.
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
// Backends: AVX-512F (8 lanes), AVX2 (4), SSE2 (2), NEON (2), selected
// once at startup by runtime CPU detection on x86 (compile-time on ARM),
// with a scalar loop fallback. Every lane evaluates
// sqrt(squared_norm(dx, dy)) — the exact arithmetic of geom::distance —
// using only IEEE-correctly-rounded sub/mul/add/sqrt and no FMA
// contraction, so all backends and the scalar fallback are bit-identical
// (pinned by tests/geom/simd_test.cpp).
//
// Kill switches, mirroring the MWC_OBS pattern:
//   * compile time — CMake -DMWC_SIMD=OFF defines MWC_SIMD_ENABLED=0 and
//     every entry point becomes the scalar loop;
//   * runtime — set_enabled(false) forces scalar dispatch, which is how
//     benches and tests compare the two paths in one process.
//
// Telemetry: `geom.simd.lanes` (gauge, active lane width),
// `geom.simd.rows_vectorized` / `geom.simd.scalar_fallbacks` (counters,
// one per batch call by which path served it).
#pragma once

#include <cstddef>

#ifndef MWC_SIMD_ENABLED
#define MWC_SIMD_ENABLED 1
#endif

namespace mwc::geom::simd {

/// False when the library was built with -DMWC_SIMD=OFF.
bool compiled_in() noexcept;

/// True when batch calls dispatch to a vector backend: compiled in,
/// runtime-enabled, and a wider-than-scalar backend is available.
bool enabled() noexcept;

/// Runtime kill switch (default on). Off forces every batch call through
/// the scalar loop — the tool benches/tests use to time or cross-check
/// both paths in one process. No-op when compiled out.
void set_enabled(bool on) noexcept;

/// Doubles per vector on the active backend (1 when scalar).
unsigned lanes() noexcept;

/// Active backend name: "avx512" | "avx2" | "sse2" | "neon" | "scalar".
const char* backend() noexcept;

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
