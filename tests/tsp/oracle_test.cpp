// Golden-equivalence suite for the distance kernel: every tsp routine must
// produce *bit-identical* output whether it reads a network's dispatch
// view (an index-mapped view over the combined points) or an instance's
// own head/tail view, and batched probes must equal per-probe reads. The
// simulator's costing correctness rests on this equivalence.
#include "tsp/oracle.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "geom/distance.hpp"
#include "tsp/construct.hpp"
#include "tsp/improve.hpp"
#include "tsp/qrooted.hpp"
#include "tsp/split.hpp"
#include "util/rng.hpp"

namespace mwc::tsp {
namespace {

QRootedInstance random_instance(std::size_t n, std::size_t q,
                                std::uint64_t seed) {
  Rng rng(seed);
  QRootedInstance instance;
  instance.depots.reserve(q);
  for (std::size_t l = 0; l < q; ++l)
    instance.depots.push_back(
        {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  instance.sensors.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    instance.sensors.push_back(
        {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  return instance;
}

DistanceOracle oracle_for(const QRootedInstance& instance) {
  return DistanceOracle(instance.depots, instance.sensors);
}

/// The oracle's view of the dispatch that charges every sensor.
DistanceView full_view(const DistanceOracle& oracle,
                       const QRootedInstance& instance) {
  std::vector<std::size_t> ids(instance.m());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  return oracle.dispatch_view(ids);
}

void expect_same_tours(const QRootedTours& a, const QRootedTours& b) {
  ASSERT_EQ(a.tours.size(), b.tours.size());
  for (std::size_t l = 0; l < a.tours.size(); ++l)
    EXPECT_EQ(a.tours[l].order(), b.tours[l].order()) << "tour " << l;
  EXPECT_EQ(a.total_length, b.total_length);  // bit-exact, not approximate
}

TEST(DistanceView, DirectMatchesGeometry) {
  const auto instance = random_instance(20, 3, 1);
  const auto view = instance.distances();
  ASSERT_EQ(view.size(), instance.total_nodes());
  for (std::size_t i = 0; i < view.size(); ++i)
    for (std::size_t j = 0; j < view.size(); ++j)
      EXPECT_EQ(view(i, j),
                geom::distance(instance.point(i), instance.point(j)));
}

TEST(DistanceOracle, HoldsPointsOnly) {
  const auto instance = random_instance(50, 4, 2);
  const auto oracle = oracle_for(instance);
  ASSERT_EQ(oracle.size(), instance.total_nodes());
  EXPECT_EQ(oracle.rows_materialized(), 0u);
  const auto full = full_view(oracle, instance);
  const auto direct = instance.distances();
  ASSERT_EQ(full.size(), direct.size());
  for (std::size_t i = 0; i < full.size(); ++i)
    for (std::size_t j = 0; j < full.size(); ++j)
      EXPECT_EQ(full(i, j), direct(i, j));
  EXPECT_EQ(oracle.rows_materialized(), 0u);
}

TEST(DistanceOracle, SubviewAndDispatchViewRelabel) {
  const auto instance = random_instance(30, 2, 3);
  const auto oracle = oracle_for(instance);
  const std::size_t q = instance.q();

  // dispatch_view({ids}) node k >= q must be sensor ids[k - q].
  const std::vector<std::size_t> ids = {4, 9, 17, 29};
  const auto view = oracle.dispatch_view(ids);
  ASSERT_EQ(view.size(), q + ids.size());
  for (std::size_t a = 0; a < view.size(); ++a) {
    const geom::Point& pa = a < q ? instance.depots[a]
                                  : instance.sensors[ids[a - q]];
    for (std::size_t b = 0; b < view.size(); ++b) {
      const geom::Point& pb = b < q ? instance.depots[b]
                                    : instance.sensors[ids[b - q]];
      EXPECT_EQ(view(a, b), geom::distance(pa, pb));
    }
  }

  // sub() composes maps: taking every other node of the dispatch view
  // still reads the same backing entries.
  std::vector<std::size_t> locals;
  for (std::size_t k = 0; k < view.size(); k += 2) locals.push_back(k);
  const auto sub = view.sub(locals);
  ASSERT_EQ(sub.size(), locals.size());
  for (std::size_t a = 0; a < sub.size(); ++a)
    for (std::size_t b = 0; b < sub.size(); ++b)
      EXPECT_EQ(sub(a, b), view(locals[a], locals[b]));
}

TEST(DistanceView, BatchedProbesMatchPerProbe) {
  const auto instance = random_instance(40, 3, 4);
  const auto oracle = oracle_for(instance);
  const std::vector<std::size_t> ids = {1, 5, 8, 13, 21, 34, 39};
  const auto view = oracle.dispatch_view(ids);
  std::vector<std::size_t> all(view.size());
  for (std::size_t k = 0; k < all.size(); ++k) all[k] = k;
  std::vector<double> row(all.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    view.distances_to(i, all, row.data());
    for (std::size_t j = 0; j < view.size(); ++j) EXPECT_EQ(row[j], view(i, j));
  }
  std::vector<std::size_t> as, bs;
  for (std::size_t i = 0; i < view.size(); ++i) {
    as.push_back(i);
    bs.push_back(view.size() - 1 - i);
  }
  std::vector<double> pairs(as.size());
  view.distances_pairs(as, bs, pairs.data());
  for (std::size_t k = 0; k < as.size(); ++k)
    EXPECT_EQ(pairs[k], view(as[k], bs[k]));
}

// The dispatch-view pipeline produces the exact tours of the instance
// pipeline on randomized instances across the full size/depot grid.
using GoldenParam = std::tuple<std::size_t, std::size_t>;  // (n, q)

class GoldenEquivalence : public ::testing::TestWithParam<GoldenParam> {};

TEST_P(GoldenEquivalence, MsfIdentical) {
  const auto [n, q] = GetParam();
  const auto instance = random_instance(n, q, 100 + n + q);
  const auto oracle = oracle_for(instance);

  const auto direct = q_rooted_msf(instance);
  const auto mapped = q_rooted_msf(full_view(oracle, instance), q);
  ASSERT_EQ(direct.trees.size(), mapped.trees.size());
  EXPECT_EQ(direct.total_weight, mapped.total_weight);
  for (std::size_t l = 0; l < direct.trees.size(); ++l) {
    ASSERT_EQ(direct.trees[l].edges().size(), mapped.trees[l].edges().size());
    for (std::size_t e = 0; e < direct.trees[l].edges().size(); ++e) {
      EXPECT_EQ(direct.trees[l].edges()[e].u, mapped.trees[l].edges()[e].u);
      EXPECT_EQ(direct.trees[l].edges()[e].v, mapped.trees[l].edges()[e].v);
      EXPECT_EQ(direct.trees[l].edges()[e].w, mapped.trees[l].edges()[e].w);
    }
  }
}

TEST_P(GoldenEquivalence, DoubleTreeToursIdentical) {
  const auto [n, q] = GetParam();
  const auto instance = random_instance(n, q, 200 + n + q);
  const auto oracle = oracle_for(instance);
  expect_same_tours(q_rooted_tsp(instance),
                    q_rooted_tsp(full_view(oracle, instance), q));
}

TEST_P(GoldenEquivalence, ImprovedToursIdentical) {
  const auto [n, q] = GetParam();
  if (n > 100) GTEST_SKIP() << "2-opt at n=800 is slow; covered at n<=100";
  const auto instance = random_instance(n, q, 300 + n + q);
  const auto oracle = oracle_for(instance);
  QRootedOptions options;
  options.improve = true;
  expect_same_tours(q_rooted_tsp(instance, options),
                    q_rooted_tsp(full_view(oracle, instance), q, options));
}

TEST_P(GoldenEquivalence, ChristofidesToursIdentical) {
  const auto [n, q] = GetParam();
  const auto instance = random_instance(n, q, 400 + n + q);
  const auto oracle = oracle_for(instance);
  QRootedOptions options;
  options.construction = TourConstruction::kChristofides;
  expect_same_tours(q_rooted_tsp(instance, options),
                    q_rooted_tsp(full_view(oracle, instance), q, options));
}

TEST_P(GoldenEquivalence, SplitsIdentical) {
  const auto [n, q] = GetParam();
  const auto instance = random_instance(n, q, 500 + n + q);
  const auto oracle = oracle_for(instance);
  const auto points = instance.points().materialize();
  const auto mapped = full_view(oracle, instance);
  const auto tours = q_rooted_tsp(instance);
  for (std::size_t l = 0; l < tours.tours.size(); ++l) {
    const auto& tour = tours.tours[l];
    if (tour.size() < 2) continue;
    const auto direct_split = split_tour_minmax(points, tour, l, 3);
    const auto mapped_split = split_tour_minmax(mapped, tour, l, 3);
    ASSERT_EQ(direct_split.tours.size(), mapped_split.tours.size());
    for (std::size_t t = 0; t < direct_split.tours.size(); ++t)
      EXPECT_EQ(direct_split.tours[t].order(), mapped_split.tours[t].order());
    EXPECT_EQ(direct_split.total_length, mapped_split.total_length);
    EXPECT_EQ(direct_split.max_length, mapped_split.max_length);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizeGrid, GoldenEquivalence,
    ::testing::Combine(::testing::Values(std::size_t{10}, std::size_t{100},
                                         std::size_t{800}),
                       ::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{10})));

TEST(CombinedPointsView, MatchesMaterializedCopy) {
  const auto instance = random_instance(12, 3, 6);
  const auto view = instance.points();
  const auto copy = instance.points().materialize();
  ASSERT_EQ(view.size(), copy.size());
  std::size_t i = 0;
  for (const auto& p : view) {  // iterator path
    EXPECT_EQ(p.x, copy[i].x);
    EXPECT_EQ(p.y, copy[i].y);
    ++i;
  }
  EXPECT_EQ(i, copy.size());
  EXPECT_EQ(view.materialize().size(), copy.size());
}

}  // namespace
}  // namespace mwc::tsp
