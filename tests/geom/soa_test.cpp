// PointsSoA round-trip equivalence with the AoS Point API, and the k-NN
// agreement pinned at the bench scales: KdTree must return the *identical*
// sorted (index, distance) lists a brute-force scan does — including
// exact-distance ties — at n = 10k and n = 100k.
#include "geom/soa.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "geom/bbox.hpp"
#include "geom/kdtree.hpp"
#include "geom/point.hpp"
#include "util/rng.hpp"

namespace mwc::geom {
namespace {

std::vector<Point> random_points(std::size_t n, std::uint64_t seed) {
  mwc::Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  return pts;
}

TEST(PointsSoA, RoundTripBitForBit) {
  const auto pts = random_points(257, 0x50A);
  const PointsSoA soa{std::span<const Point>(pts)};
  ASSERT_EQ(soa.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(soa.x(i), pts[i].x);
    EXPECT_EQ(soa.y(i), pts[i].y);
    EXPECT_EQ(soa.point(i), pts[i]);
  }
  const auto back = soa.materialize();
  ASSERT_EQ(back.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) EXPECT_EQ(back[i], pts[i]);
}

TEST(PointsSoA, HeadTailConcatenation) {
  const auto depots = random_points(3, 0xDE07);
  const auto sensors = random_points(41, 0x5E50);
  const PointsSoA soa(depots, sensors);
  ASSERT_EQ(soa.size(), depots.size() + sensors.size());
  for (std::size_t i = 0; i < depots.size(); ++i)
    EXPECT_EQ(soa.point(i), depots[i]);
  for (std::size_t i = 0; i < sensors.size(); ++i)
    EXPECT_EQ(soa.point(depots.size() + i), sensors[i]);
}

TEST(PointsSoA, AssignReplacesContents) {
  const auto first = random_points(10, 1);
  const auto second = random_points(4, 2);
  PointsSoA soa{std::span<const Point>(first)};
  soa.assign(second);
  ASSERT_EQ(soa.size(), second.size());
  for (std::size_t i = 0; i < second.size(); ++i)
    EXPECT_EQ(soa.point(i), second[i]);
  EXPECT_FALSE(soa.empty());
  soa.assign({});
  EXPECT_TRUE(soa.empty());
}

/// The k-NN contract by exhaustive scan: (index, distance) pairs sorted
/// by (distance^2, index), so exact ties resolve on the smaller index.
std::vector<std::pair<std::size_t, double>> brute_knearest(
    std::span<const Point> pts, const Point& q, std::size_t k) {
  std::vector<std::pair<double, std::size_t>> all;
  all.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i)
    all.emplace_back(distance2(pts[i], q), i);
  const std::size_t m = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(m),
                    all.end());
  std::vector<std::pair<std::size_t, double>> out;
  out.reserve(m);
  for (std::size_t i = 0; i < m; ++i)
    out.emplace_back(all[i].second, std::sqrt(all[i].first));
  return out;
}

/// Queries the kd-tree and the brute-force reference for the same k-NN
/// lists and requires identity: same indices, same distances, same order.
void expect_knn_agreement(std::span<const Point> pts, std::size_t num_queries,
                          std::size_t k, std::uint64_t seed) {
  const KdTree kd(pts);
  const BBox bounds = BBox::of(pts.begin(), pts.end());
  mwc::Rng rng(seed);
  for (std::size_t t = 0; t < num_queries; ++t) {
    // Mix on-point queries (exercise distance-0 and duplicate ties) with
    // free-floating ones inside the point extent.
    const Point q =
        t % 2 == 0
            ? pts[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(pts.size()) - 1))]
            : Point{rng.uniform(bounds.lo.x, bounds.hi.x),
                    rng.uniform(bounds.lo.y, bounds.hi.y)};
    const auto a = kd.knearest(q, k);
    const auto b = brute_knearest(pts, q, k);
    ASSERT_EQ(a.size(), b.size()) << "query " << t;
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].first, b[j].first) << "query " << t << " rank " << j;
      EXPECT_EQ(a[j].second, b[j].second) << "query " << t << " rank " << j;
    }
  }
}

TEST(IndexAgreement, KnnIdentical10k) {
  const auto pts = random_points(10'000, 0x10C0);
  expect_knn_agreement(pts, /*num_queries=*/64, /*k=*/12, 0xAB);
}

TEST(IndexAgreement, KnnIdentical100k) {
  const auto pts = random_points(100'000, 0x100C0);
  expect_knn_agreement(pts, /*num_queries=*/32, /*k=*/12, 0xCD);
}

TEST(IndexAgreement, KnnIdenticalUnderMassTies) {
  // Integer lattice with duplicated points: many exact distance ties per
  // query; the kd-tree must break them on the smaller index.
  std::vector<Point> pts;
  for (int x = 0; x < 20; ++x)
    for (int y = 0; y < 20; ++y) {
      pts.push_back({static_cast<double>(x), static_cast<double>(y)});
      pts.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  expect_knn_agreement(pts, /*num_queries=*/40, /*k=*/9, 0xEF);
}

}  // namespace
}  // namespace mwc::geom
