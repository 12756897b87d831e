// 2-D points and basic vector algebra for the planar WSN field.
#pragma once

#include <cmath>
#include <iosfwd>

namespace mwc::geom {

struct Point {
  double x = 0.0;
  double y = 0.0;

  constexpr Point() = default;
  constexpr Point(double px, double py) : x(px), y(py) {}

  constexpr Point operator+(const Point& o) const { return {x + o.x, y + o.y}; }
  constexpr Point operator-(const Point& o) const { return {x - o.x, y - o.y}; }
  constexpr Point operator*(double s) const { return {x * s, y * s}; }
  constexpr Point operator/(double s) const { return {x / s, y / s}; }

  constexpr bool operator==(const Point& o) const {
    return x == o.x && y == o.y;
  }
  constexpr bool operator!=(const Point& o) const { return !(*this == o); }

  /// Squared Euclidean norm.
  constexpr double norm2() const { return x * x + y * y; }
  double norm() const { return std::sqrt(norm2()); }
};

/// The one definition of squared Euclidean arithmetic: dx*dx + dy*dy in
/// exactly this order. Every distance path — Point/BBox overloads, the
/// KdTree pruning tests, and the batch kernels in geom/simd.hpp — routes
/// through this helper, so they all compute bit-identical values.
constexpr double squared_norm(double dx, double dy) {
  return dx * dx + dy * dy;
}

/// Squared Euclidean distance on raw coordinates (the SoA form).
constexpr double distance2(double ax, double ay, double bx, double by) {
  return squared_norm(ax - bx, ay - by);
}

/// Euclidean distance. Defined as sqrt(distance2): one IEEE-correctly-
/// rounded sqrt over the squared norm, which is the form the batch kernels
/// evaluate per element, so batch and pointwise are bit-identical. (The
/// seed used std::hypot here; the sqrt form trades hypot's overflow
/// robustness beyond ~1e154 — far outside any deployment field — for a
/// single vectorizable definition. See docs/ALGORITHMS.md §9.)
double distance(const Point& a, const Point& b);

/// Squared Euclidean distance (avoids the sqrt in comparisons).
constexpr double distance2(const Point& a, const Point& b) {
  return distance2(a.x, a.y, b.x, b.y);
}

/// Dot product of position vectors.
constexpr double dot(const Point& a, const Point& b) {
  return a.x * b.x + a.y * b.y;
}

/// Z-component of the cross product (a x b); >0 when b is CCW of a.
constexpr double cross(const Point& a, const Point& b) {
  return a.x * b.y - a.y * b.x;
}

/// Midpoint of the segment ab.
constexpr Point midpoint(const Point& a, const Point& b) {
  return {(a.x + b.x) * 0.5, (a.y + b.y) * 0.5};
}

/// Linear interpolation a + t (b - a).
constexpr Point lerp(const Point& a, const Point& b, double t) {
  return {a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)};
}

std::ostream& operator<<(std::ostream& os, const Point& p);

}  // namespace mwc::geom
