#include "geom/kdtree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace mwc::geom {
namespace {

std::vector<Point> random_points(std::size_t n, std::uint64_t seed,
                                 double side = 1000.0) {
  mwc::Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  return pts;
}

TEST(KdTree, Empty) {
  const KdTree tree((std::vector<Point>()));
  EXPECT_TRUE(tree.empty());
  const auto [i, d] = tree.nearest_with_distance({0, 0});
  EXPECT_TRUE(std::isinf(d));
  (void)i;
}

TEST(KdTree, SinglePoint) {
  const std::vector<Point> pts{{3, 4}};
  const KdTree tree(pts);
  const auto [i, d] = tree.nearest_with_distance({0, 0});
  EXPECT_EQ(i, 0u);
  EXPECT_DOUBLE_EQ(d, 5.0);
}

class KdTreeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KdTreeProperty, NearestMatchesBruteForce) {
  const auto seed = GetParam();
  const auto pts = random_points(300, seed);
  const KdTree tree(pts);
  mwc::Rng rng(seed ^ 0xFACE);
  for (int trial = 0; trial < 300; ++trial) {
    const Point q{rng.uniform(-50.0, 1050.0), rng.uniform(-50.0, 1050.0)};
    double best = std::numeric_limits<double>::infinity();
    for (const auto& p : pts) best = std::min(best, distance2(p, q));
    const auto [i, d] = tree.nearest_with_distance(q);
    EXPECT_EQ(distance2(pts[i], q), best);
    EXPECT_EQ(d, std::sqrt(best));
  }
}

TEST_P(KdTreeProperty, RangeMatchesBruteForce) {
  const auto seed = GetParam();
  const auto pts = random_points(150, seed);
  const KdTree tree(pts);
  mwc::Rng rng(seed ^ 0xF00D);
  for (int trial = 0; trial < 50; ++trial) {
    const Point q{rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
    const double radius = rng.uniform(10.0, 400.0);
    auto got = tree.within(q, radius);
    std::sort(got.begin(), got.end());
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < pts.size(); ++i)
      if (distance2(pts[i], q) <= radius * radius) expected.push_back(i);
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KdTreeProperty,
                         ::testing::Values(1u, 2u, 3u, 7u, 21u));

TEST(KdTree, CollinearPoints) {
  std::vector<Point> pts;
  for (int i = 0; i < 50; ++i) pts.push_back({static_cast<double>(i), 0.0});
  const KdTree tree(pts);
  EXPECT_EQ(tree.nearest({25.4, 1.0}), 25u);
  EXPECT_EQ(tree.within({10.0, 0.0}, 2.0).size(), 5u);  // 8,9,10,11,12
}

TEST(KdTree, DuplicatePoints) {
  const std::vector<Point> pts{{1, 1}, {1, 1}, {5, 5}};
  const KdTree tree(pts);
  const auto i = tree.nearest({1.1, 1.0});
  EXPECT_TRUE(i == 0u || i == 1u);
}


/// Brute-force k-NN reference: (distance², index) pairs sorted ascending,
/// ties on the smaller index — the contract knearest() promises.
std::vector<std::pair<std::size_t, double>> brute_knearest(
    const std::vector<Point>& pts, const Point& q, std::size_t k) {
  std::vector<std::pair<double, std::size_t>> all;
  all.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i)
    all.emplace_back(distance2(pts[i], q), i);
  std::sort(all.begin(), all.end());
  std::vector<std::pair<std::size_t, double>> out;
  for (std::size_t i = 0; i < std::min(k, all.size()); ++i)
    out.emplace_back(all[i].second, std::sqrt(all[i].first));
  return out;
}

TEST_P(KdTreeProperty, KNearestMatchesBruteForce) {
  const auto seed = GetParam();
  const auto pts = random_points(200, seed);
  const KdTree tree(pts);
  mwc::Rng rng(seed ^ 0xBEEF);
  for (int trial = 0; trial < 100; ++trial) {
    const Point q{rng.uniform(-50.0, 1050.0), rng.uniform(-50.0, 1050.0)};
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(1, 16));
    const auto got = tree.knearest(q, k);
    const auto want = brute_knearest(pts, q, k);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, want[i].first) << "rank " << i;
      EXPECT_DOUBLE_EQ(got[i].second, want[i].second);
    }
  }
}

TEST(KdTree, KNearestClampsToSize) {
  const auto pts = random_points(5, 11);
  const KdTree tree(pts);
  EXPECT_EQ(tree.knearest({0, 0}, 50).size(), 5u);
  EXPECT_TRUE(tree.knearest({0, 0}, 0).empty());
}

}  // namespace
}  // namespace mwc::geom
