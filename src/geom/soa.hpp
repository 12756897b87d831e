// Structure-of-arrays geometry: the same points as a span<Point>, but as
// two contiguous coordinate arrays, which is what the SIMD kernels in
// geom/simd.hpp consume (unit-stride loads instead of AoS gathers).
//
// A PointsSoA is built once per network/dispatch (O(n) deinterleave) and
// then shared by every kernel that batches over the set: the
// DistanceMatrix fill and the kernel/spatial bench baselines. Round-tripping
// through materialize() reproduces the original points bit-for-bit —
// pinned by tests/geom/soa_test.cpp.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geom/point.hpp"

namespace mwc::geom {

class PointsSoA {
 public:
  PointsSoA() = default;

  /// Deinterleaves `points` into the two coordinate arrays.
  explicit PointsSoA(std::span<const Point> points) { assign(points); }

  /// Deinterleaves the concatenation head ++ tail (the depots-then-sensors
  /// combined layout of tsp::QRootedInstance, without an AoS copy).
  PointsSoA(std::span<const Point> head, std::span<const Point> tail) {
    xs_.reserve(head.size() + tail.size());
    ys_.reserve(head.size() + tail.size());
    append(head);
    append(tail);
  }

  /// Replaces the contents with `points`.
  void assign(std::span<const Point> points) {
    xs_.clear();
    ys_.clear();
    xs_.reserve(points.size());
    ys_.reserve(points.size());
    append(points);
  }

  std::size_t size() const noexcept { return xs_.size(); }
  bool empty() const noexcept { return xs_.empty(); }

  double x(std::size_t i) const noexcept { return xs_[i]; }
  double y(std::size_t i) const noexcept { return ys_[i]; }
  Point point(std::size_t i) const noexcept { return {xs_[i], ys_[i]}; }

  std::span<const double> xs() const noexcept { return xs_; }
  std::span<const double> ys() const noexcept { return ys_; }

  /// Re-interleaves into an AoS vector; point(i) == result[i] bit-for-bit.
  std::vector<Point> materialize() const {
    std::vector<Point> pts;
    pts.reserve(size());
    for (std::size_t i = 0; i < size(); ++i) pts.push_back(point(i));
    return pts;
  }

 private:
  void append(std::span<const Point> points) {
    for (const Point& p : points) {
      xs_.push_back(p.x);
      ys_.push_back(p.y);
    }
  }

  std::vector<double> xs_;
  std::vector<double> ys_;
};

}  // namespace mwc::geom
