// CandidateGraph unit tests plus the candidate-vs-exhaustive golden
// suite: candidate-mode local search must stay within 1% of the
// exhaustive sweep's tour length, be bit-identical when k >= n (complete
// graph), and the candidate-pruned q-rooted MSF must reproduce dense
// Prim's forest edge for edge, in order, on Euclidean instances.
#include "tsp/candidates.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "charging/min_total_distance.hpp"
#include "geom/distance.hpp"
#include "sim/simulator.hpp"
#include "tsp/qrooted.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "wsn/cycles.hpp"
#include "wsn/deployment.hpp"

namespace mwc::tsp {
namespace {

std::vector<geom::Point> random_points(std::size_t n, std::uint64_t seed,
                                       double side = 1000.0) {
  Rng rng(seed);
  std::vector<geom::Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  return pts;
}

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

TEST(CandidateGraph, EmptyAndSingleton) {
  const CandidateGraph empty = CandidateGraph::build({});
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.complete());
  EXPECT_EQ(empty.k(), 0u);

  const std::vector<geom::Point> one{{1, 2}};
  const CandidateGraph single = CandidateGraph::build(one);
  EXPECT_EQ(single.size(), 1u);
  EXPECT_EQ(single.k(), 0u);
  EXPECT_TRUE(single.complete());
}

TEST(CandidateGraph, ClampsKAndReportsComplete) {
  const auto pts = random_points(6, 3);
  CandidateOptions options;
  options.k = 10;  // > n-1: clamps to 5, degenerate complete graph
  const auto graph = CandidateGraph::build(pts, options);
  EXPECT_EQ(graph.size(), 6u);
  EXPECT_EQ(graph.k(), 5u);
  EXPECT_TRUE(graph.complete());

  options.k = 3;
  const auto sparse = CandidateGraph::build(pts, options);
  EXPECT_EQ(sparse.k(), 3u);
  EXPECT_FALSE(sparse.complete());
}

TEST(CandidateGraph, RowsAreNearestNeighborsSortedByDistance) {
  // Random points (k = 7), then random points plus a duplicated integer
  // lattice (default k = 12): many exact distance ties and zero-distance
  // twins, which must break on the smaller index.
  auto tied = random_points(120, 9, 10.0);
  for (int x = 0; x < 6; ++x)
    for (int y = 0; y < 6; ++y)
      for (int copy = 0; copy < 2; ++copy)
        tied.push_back({static_cast<double>(x), static_cast<double>(y)});
  CandidateOptions sparse;
  sparse.k = 7;
  const std::pair<std::vector<geom::Point>, CandidateOptions> cases[] = {
      {random_points(80, 5), sparse}, {tied, CandidateOptions{}}};
  for (const auto& [pts, options] : cases) {
    const auto graph = CandidateGraph::build(pts, options);
    for (std::size_t i = 0; i < graph.size(); ++i) {
      const auto row = graph.neighbors(i);
      ASSERT_EQ(row.size(), options.k);
      // Brute-force reference row.
      std::vector<std::pair<double, std::size_t>> all;
      for (std::size_t j = 0; j < pts.size(); ++j) {
        if (j == i) continue;
        all.emplace_back(geom::distance2(pts[i], pts[j]), j);
      }
      std::sort(all.begin(), all.end());
      for (std::size_t r = 0; r < row.size(); ++r) {
        EXPECT_NE(row[r], i) << "self in candidate row";
        EXPECT_EQ(row[r], all[r].second) << "node " << i << " rank " << r;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Golden suite: candidate mode vs exhaustive sweep across the size grid.

class CandidateGolden
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(CandidateGolden, ImprovedToursWithinOnePercent) {
  const auto [n, q] = GetParam();
  const auto instance = random_instance(n, q, 700 + n + q);
  const auto view = instance.distances();
  const auto combined = instance.points().materialize();
  const auto graph = CandidateGraph::build(combined);

  QRootedOptions exhaustive;
  exhaustive.improve = true;
  exhaustive.improve_options.exhaustive = true;

  QRootedOptions candidate;
  candidate.improve = true;
  candidate.candidates = &graph;

  // Exhaustive polish at n=800 costs O(n²) per pass; one reference run
  // per grid point keeps the suite fast enough for CI.
  const auto reference = q_rooted_tsp(view, q, exhaustive);
  const auto accelerated = q_rooted_tsp(view, q, candidate);

  ASSERT_EQ(accelerated.tours.size(), reference.tours.size());
  EXPECT_TRUE(covers_all_sensors(instance, accelerated));
  EXPECT_LE(accelerated.total_length, reference.total_length * 1.01)
      << "candidate tours more than 1% longer than exhaustive";
}

TEST_P(CandidateGolden, CompleteGraphBitIdenticalToExhaustive) {
  const auto [n, q] = GetParam();
  if (n > 100) GTEST_SKIP() << "exhaustive at n=800 is slow; covered below";
  const auto instance = random_instance(n, q, 900 + n + q);
  const auto view = instance.distances();
  const auto combined = instance.points().materialize();

  CandidateOptions options;
  options.k = combined.size();  // >= n-1: degenerate complete graph
  const auto graph = CandidateGraph::build(combined, options);
  ASSERT_TRUE(graph.complete());

  QRootedOptions exhaustive;
  exhaustive.improve = true;
  exhaustive.improve_options.exhaustive = true;

  QRootedOptions candidate;
  candidate.improve = true;
  candidate.candidates = &graph;

  const auto a = q_rooted_tsp(view, q, exhaustive);
  const auto b = q_rooted_tsp(view, q, candidate);
  ASSERT_EQ(a.tours.size(), b.tours.size());
  for (std::size_t l = 0; l < a.tours.size(); ++l)
    EXPECT_EQ(a.tours[l].order(), b.tours[l].order()) << "tour " << l;
  EXPECT_EQ(a.total_length, b.total_length);  // bit-exact
}

INSTANTIATE_TEST_SUITE_P(
    SizeGrid, CandidateGolden,
    ::testing::Combine(::testing::Values(std::size_t{10}, std::size_t{100},
                                         std::size_t{800}),
                       ::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{10})));

// ---------------------------------------------------------------------------
// Pruned MSF golden: candidate-pruned Prim (the production MSF) against
// the dense Prim reference, edge for edge and in insertion order.

/// Pruned and dense forests over `view` agree edge for edge: same trees,
/// same edge order, same endpoints, bit-identical weights.
void expect_same_forest(const DistanceView& view, std::size_t q,
                        const CandidateGraph& graph) {
  const auto dense = q_rooted_msf(view, q);
  const auto pruned = q_rooted_msf(view, q, &graph);
  ASSERT_EQ(pruned.trees.size(), dense.trees.size());
  EXPECT_EQ(pruned.total_weight, dense.total_weight);
  for (std::size_t l = 0; l < dense.trees.size(); ++l) {
    const auto& a = pruned.trees[l].edges();
    const auto& b = dense.trees[l].edges();
    ASSERT_EQ(a.size(), b.size()) << "tree " << l;
    for (std::size_t e = 0; e < b.size(); ++e) {
      EXPECT_EQ(a[e].u, b[e].u) << "tree " << l << " edge " << e;
      EXPECT_EQ(a[e].v, b[e].v) << "tree " << l << " edge " << e;
      EXPECT_EQ(a[e].w, b[e].w) << "tree " << l << " edge " << e;
    }
  }
}

class PrunedMsfGolden
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(PrunedMsfGolden, EdgesEqualDensePrim) {
  const auto [n, q] = GetParam();
  const auto instance = random_instance(n, q, 1100 + n + q);
  const auto graph = CandidateGraph::build(instance.points().materialize());
  expect_same_forest(instance.distances(), q, graph);
}

INSTANTIATE_TEST_SUITE_P(
    SizeGrid, PrunedMsfGolden,
    ::testing::Combine(::testing::Values(std::size_t{10}, std::size_t{100},
                                         std::size_t{800}, std::size_t{2000}),
                       ::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{10})));

INSTANTIATE_TEST_SUITE_P(
    Large, PrunedMsfGolden,
    ::testing::Values(std::make_tuple(std::size_t{10000}, std::size_t{5})));

TEST(PrunedMsfGolden, MinTotalDistanceDispatchSets) {
  // The sets the service actually costs: the distinct rounds
  // MinTotalDistance dispatches over a spread-cycle field, each with the
  // per-set graph the simulator builds for it.
  wsn::DeploymentConfig config;
  config.n = 2000;
  config.q = 5;
  Rng rng(21, 0);
  const wsn::Network network = wsn::deploy_random(config, rng);
  const wsn::CycleModel cycles(network, wsn::CycleModelConfig{}, 21);
  sim::SimOptions options;
  options.horizon = 200.0;
  options.record_dispatches = true;
  charging::MinTotalDistancePolicy policy;
  const auto result = sim::Simulator(network, cycles, options).run(policy);

  std::vector<std::vector<std::size_t>> sets;
  for (const auto& d : result.dispatch_log) sets.push_back(d.sensors);
  std::sort(sets.begin(), sets.end());
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  ASSERT_GE(sets.size(), 3u);

  const DistanceOracle oracle(network.depots(), network.sensor_points());
  std::size_t proper_subsets = 0;
  for (const auto& ids : sets) {
    if (ids.size() < network.n()) ++proper_subsets;
    std::vector<geom::Point> points(network.depots());
    for (const std::size_t id : ids)
      points.push_back(network.sensor_points()[id]);
    SCOPED_TRACE(ids.size());
    expect_same_forest(oracle.dispatch_view(ids), network.q(),
                       CandidateGraph::build(points));
  }
  EXPECT_GE(proper_subsets, 2u);
}

TEST(ParallelPolish, PoolMatchesSerialBitExact) {
  const auto instance = random_instance(200, 4, 42);
  const auto view = instance.distances();
  const auto combined = instance.points().materialize();
  const auto graph = CandidateGraph::build(combined);

  QRootedOptions options;
  options.improve = true;
  options.candidates = &graph;

  const auto serial = q_rooted_tsp(view, instance.q(), options);
  ThreadPool pool(4);
  const auto parallel = q_rooted_tsp(view, instance.q(), options, &pool);
  ASSERT_EQ(serial.tours.size(), parallel.tours.size());
  for (std::size_t l = 0; l < serial.tours.size(); ++l)
    EXPECT_EQ(serial.tours[l].order(), parallel.tours[l].order());
  EXPECT_EQ(serial.total_length, parallel.total_length);
}

}  // namespace
}  // namespace mwc::tsp
