// The batch-kernel contract: every element of distance_row,
// distance2_row and distance_pairs is bit for bit what geom::distance or
// geom::distance2 returns for the same two points. The solver mixes batch
// and pointwise distances freely (MSF root scans, candidate repair,
// polish gains), so any drift would split ties differently.
#include "geom/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "geom/point.hpp"
#include "geom/soa.hpp"
#include "util/rng.hpp"

namespace mwc::geom {
namespace {

// Every length up to 17 ends a loop at every possible remainder of any
// vector width up to 16 doubles.
constexpr std::size_t kMaxLength = 17;
constexpr double kSentinel = -7.0;  // no kernel writes a negative value

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// kMaxLength + 1 points with coordinates of magnitude about `scale`,
/// random signs.
std::vector<Point> points_at(double scale, std::uint64_t seed) {
  mwc::Rng rng(seed);
  std::vector<Point> pts;
  for (std::size_t i = 0; i <= kMaxLength; ++i) {
    const double sx = rng.uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0;
    const double sy = rng.uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0;
    pts.push_back({sx * scale * rng.uniform(0.5, 1.0),
                   sy * scale * rng.uniform(0.5, 1.0)});
  }
  return pts;
}

/// Runs the three kernels over every prefix length of `pts` (query
/// `pts[0]` for the row kernels, partner `other` for the pairs kernel)
/// and checks each element against the pointwise reference loop. The
/// slot past the end must stay untouched.
void expect_kernels_match_pointwise(const std::vector<Point>& pts,
                                    const std::vector<Point>& other,
                                    const std::string& what) {
  ASSERT_GT(pts.size(), kMaxLength);
  ASSERT_GT(other.size(), kMaxLength);
  const Point q = pts[0];
  const PointsSoA a{std::span<const Point>(pts).subspan(1, kMaxLength)};
  const PointsSoA b{std::span<const Point>(other).subspan(0, kMaxLength)};
  for (std::size_t n = 0; n <= kMaxLength; ++n) {
    std::vector<double> row(n + 1, kSentinel);
    std::vector<double> row2(n + 1, kSentinel);
    std::vector<double> pairs(n + 1, kSentinel);
    simd::distance_row(q.x, q.y, a.xs().data(), a.ys().data(), row.data(), n);
    simd::distance2_row(q.x, q.y, a.xs().data(), a.ys().data(), row2.data(),
                        n);
    simd::distance_pairs(a.xs().data(), a.ys().data(), b.xs().data(),
                         b.ys().data(), pairs.data(), n);
    for (std::size_t j = 0; j < n; ++j) {
      const Point p = a.point(j);
      const Point r = b.point(j);
      EXPECT_EQ(bits(row[j]), bits(distance(q, p)))
          << what << " distance_row n=" << n << " j=" << j;
      EXPECT_EQ(bits(row2[j]), bits(distance2(q, p)))
          << what << " distance2_row n=" << n << " j=" << j;
      EXPECT_EQ(bits(pairs[j]), bits(distance(p, r)))
          << what << " distance_pairs n=" << n << " j=" << j;
    }
    EXPECT_EQ(row[n], kSentinel) << what << " distance_row wrote past n=" << n;
    EXPECT_EQ(row2[n], kSentinel) << what << " distance2_row wrote past n=" << n;
    EXPECT_EQ(pairs[n], kSentinel)
        << what << " distance_pairs wrote past n=" << n;
  }
}

TEST(Simd, FieldCoordinatesMatchPointwise) {
  expect_kernels_match_pointwise(points_at(1000.0, 0x51AD),
                                 points_at(1000.0, 0xBBBB), "field");
}

TEST(Simd, DuplicatePointsMatchPointwise) {
  // Coincident points give exactly 0 and repeated coordinates exactly
  // equal distances: both are tie-break inputs downstream.
  std::vector<Point> pts;
  for (std::size_t i = 0; i <= kMaxLength; ++i)
    pts.push_back(i % 3 == 1 ? Point{1.0, 2.0} : Point{5.0, 5.0});
  expect_kernels_match_pointwise(pts, pts, "duplicates");

  std::vector<double> row(kMaxLength, kSentinel);
  const PointsSoA soa{std::span<const Point>(pts).subspan(1, kMaxLength)};
  simd::distance_row(5.0, 5.0, soa.xs().data(), soa.ys().data(), row.data(),
                     kMaxLength);
  for (std::size_t j = 0; j < kMaxLength; ++j) {
    if (soa.point(j) == Point{5.0, 5.0}) {
      EXPECT_EQ(row[j], 0.0) << j;
    } else {
      EXPECT_EQ(row[j], row[0]) << j;
    }
  }
}

TEST(Simd, TinyMagnitudesMatchPointwise) {
  // Squares underflow to subnormals or zero.
  expect_kernels_match_pointwise(points_at(1e-160, 7), points_at(1e-160, 8),
                                 "1e-160");
  const double sub = std::numeric_limits<double>::denorm_min();
  expect_kernels_match_pointwise(points_at(64 * sub, 9),
                                 points_at(64 * sub, 10), "subnormal");
}

TEST(Simd, HugeMagnitudesMatchPointwise) {
  // Squares near the top of the range, still finite.
  expect_kernels_match_pointwise(points_at(1e150, 11), points_at(1e150, 12),
                                 "1e150");
}

TEST(Simd, OverflowingMagnitudesMatchPointwise) {
  // Squares overflow to +inf at 1e200; at the largest doubles the
  // coordinate difference itself overflows.
  expect_kernels_match_pointwise(points_at(1e200, 13), points_at(1e200, 14),
                                 "1e200");
  const double big = std::numeric_limits<double>::max();
  expect_kernels_match_pointwise(points_at(big, 15), points_at(big, 16),
                                 "max");
}

}  // namespace
}  // namespace mwc::geom
