// Tests for the incremental layers behind the v2 delta path:
// CandidateGraph::repair must equal a from-scratch build on the patched
// points (and a brute-force k-NN scan), repair_q_rooted_msf must degenerate to
// the exact forest when every tree is dirty and stay a valid spanning
// forest under local patches, and seed_nodes must localize candidate-mode
// re-polish while leaving the exhaustive sweep untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "geom/point.hpp"
#include "tsp/candidates.hpp"
#include "tsp/construct.hpp"
#include "tsp/improve.hpp"
#include "tsp/oracle.hpp"
#include "tsp/qrooted.hpp"
#include "util/rng.hpp"

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

QRootedInstance random_instance(std::size_t m, std::size_t q,
                                std::uint64_t seed) {
  Rng rng(seed);
  QRootedInstance instance;
  for (std::size_t l = 0; l < q; ++l)
    instance.depots.push_back(
        {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  for (std::size_t i = 0; i < m; ++i)
    instance.sensors.push_back(
        {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  return instance;
}

/// Applies a deterministic remove/move/add patch to `base` points and
/// returns the patched set plus the CandidateRemap describing it.
struct PatchedPoints {
  std::vector<geom::Point> points;
  CandidateRemap remap;
};

PatchedPoints make_patch(const std::vector<geom::Point>& base,
                         std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = base.size();
  std::vector<char> removed(n, 0);
  removed[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))] = 1;
  removed[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))] = 1;

  PatchedPoints out;
  out.remap.old_to_new.assign(n, CandidateRemap::kRemoved);
  for (std::size_t i = 0; i < n; ++i) {
    if (removed[i]) continue;
    out.remap.old_to_new[i] = out.points.size();
    out.points.push_back(base[i]);
  }
  // Move two survivors.
  for (int moves = 0; moves < 2;) {
    const std::size_t i = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (removed[i]) continue;
    const std::size_t id = out.remap.old_to_new[i];
    out.points[id] = {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
    out.remap.fresh.push_back(id);
    ++moves;
  }
  // Append two additions.
  for (int adds = 0; adds < 2; ++adds) {
    out.remap.fresh.push_back(out.points.size());
    out.points.push_back(
        {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  }
  out.remap.new_size = out.points.size();
  return out;
}

TEST(CandidateRepair, MatchesFreshBuildOnRandomPatches) {
  for (const std::size_t k : {4u, 12u}) {
    CandidateOptions options;
    options.k = k;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const std::vector<geom::Point> base_points = random_points(120, seed);
      const CandidateGraph base = CandidateGraph::build(base_points, options);
      const PatchedPoints patch = make_patch(base_points, seed + 100);
      const CandidateGraph repaired =
          CandidateGraph::repair(base, patch.points, patch.remap, options);
      const CandidateGraph fresh = CandidateGraph::build(patch.points, options);
      ASSERT_EQ(repaired.size(), fresh.size());
      ASSERT_EQ(repaired.k(), fresh.k());
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        const auto a = repaired.neighbors(i);
        const auto b = fresh.neighbors(i);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << "row " << i << " k=" << k << " seed=" << seed;
        // And both equal the brute-force (distance^2, index) row.
        std::vector<std::pair<double, std::size_t>> all;
        for (std::size_t j = 0; j < patch.points.size(); ++j)
          if (j != i)
            all.emplace_back(
                geom::distance2(patch.points[i], patch.points[j]), j);
        std::sort(all.begin(), all.end());
        for (std::size_t r = 0; r < b.size(); ++r)
          ASSERT_EQ(b[r], all[r].second)
              << "row " << i << " rank " << r << " k=" << k
              << " seed=" << seed;
      }
    }
  }
}

/// Sensors spanned by the forest, as one sorted list of combined ids.
std::vector<std::size_t> spanned_sensors(const QRootedForest& forest,
                                         std::size_t q) {
  std::vector<std::size_t> out;
  for (const graph::RootedTree& tree : forest.trees)
    for (std::size_t node : tree.nodes())
      if (node >= q) out.push_back(node);
  std::sort(out.begin(), out.end());
  return out;
}

/// Same forest, edge for edge: per tree the same edges in the same order,
/// same endpoints, bit-equal weights.
void expect_same_edges(const QRootedForest& got, const QRootedForest& want) {
  ASSERT_EQ(got.trees.size(), want.trees.size());
  for (std::size_t l = 0; l < want.trees.size(); ++l) {
    const auto& a = got.trees[l].edges();
    const auto& b = want.trees[l].edges();
    ASSERT_EQ(a.size(), b.size()) << "tree " << l;
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(a[i].u, b[i].u) << "tree " << l << " edge " << i;
      EXPECT_EQ(a[i].v, b[i].v) << "tree " << l << " edge " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].w),
                std::bit_cast<std::uint64_t>(b[i].w))
          << "tree " << l << " edge " << i;
    }
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total_weight),
            std::bit_cast<std::uint64_t>(want.total_weight));
}

// With every tree dirty the repair contracts nothing but the depots, so
// it must replay the full build step by step, dense and pruned alike.
TEST(MsfRepair, AllDirtyEqualsDenseRebuild) {
  struct Case {
    std::size_t m;
    std::size_t q;
    std::uint64_t seed;
  };
  for (const Case c : {Case{80, 3, 1}, Case{80, 3, 2}, Case{80, 3, 3},
                       Case{80, 3, 4}, Case{2000, 5, 5}}) {
    const QRootedInstance instance = random_instance(c.m, c.q, c.seed);
    const DistanceView view = instance.distances();
    const CandidateGraph graph =
        CandidateGraph::build(instance.points().materialize());
    for (const CandidateGraph* candidates :
         {static_cast<const CandidateGraph*>(nullptr), &graph}) {
      SCOPED_TRACE(::testing::Message()
                   << "m=" << c.m << " q=" << c.q << " seed=" << c.seed
                   << (candidates != nullptr ? " pruned" : " dense"));
      const QRootedForest full = q_rooted_msf(view, c.q, candidates);

      MsfRepairPlan plan;
      plan.tree_dirty.assign(c.q, 1);
      MsfRepairStats stats;
      const QRootedForest repaired =
          repair_q_rooted_msf(view, c.q, full, plan, candidates, &stats);
      expect_same_edges(repaired, full);
      EXPECT_EQ(stats.rebuilt_trees, c.q);
      EXPECT_EQ(stats.reused_trees, 0u);
      ASSERT_EQ(stats.tree_changed.size(), c.q);
    }
  }
}

TEST(MsfRepair, LocalPatchSpansEverySensorAndKeepsCleanTrees) {
  const QRootedInstance base_instance = random_instance(100, 4, 9);
  const QRootedForest base = q_rooted_msf(base_instance);

  // Move one sensor far away; dirty only the tree that owned it.
  QRootedInstance patched = base_instance;
  const std::size_t moved = base_instance.q() + 17;
  patched.sensors[17] = {1500.0, 1500.0};
  std::size_t owner = patched.q();
  for (std::size_t l = 0; l < base.trees.size(); ++l)
    for (std::size_t node : base.trees[l].nodes())
      if (node == moved) owner = l;
  ASSERT_LT(owner, patched.q());

  MsfRepairPlan plan;
  plan.tree_dirty.assign(patched.q(), 0);
  plan.tree_dirty[owner] = 1;
  MsfRepairStats stats;
  const QRootedForest repaired =
      repair_q_rooted_msf(patched.distances(), patched.q(), base, plan,
                          nullptr, &stats);

  // Valid spanning forest: every sensor in exactly one tree.
  std::vector<std::size_t> expected(patched.m());
  std::iota(expected.begin(), expected.end(), patched.q());
  EXPECT_EQ(spanned_sensors(repaired, patched.q()), expected);
  // Lower-bounded by the optimal forest of the patched instance.
  const QRootedForest optimal = q_rooted_msf(patched);
  EXPECT_GE(repaired.total_weight, optimal.total_weight - 1e-9);
  // Clean trees that gained no graft come back verbatim.
  EXPECT_GE(stats.reused_trees, 1u);
  for (std::size_t l = 0; l < patched.q(); ++l) {
    if (!stats.tree_changed[l]) {
      EXPECT_EQ(repaired.trees[l].nodes(), base.trees[l].nodes());
    }
  }
}

TEST(MsfRepair, InactiveRootAttractsNoSensors) {
  const QRootedInstance instance = random_instance(60, 3, 5);
  const QRootedForest base = q_rooted_msf(instance);

  MsfRepairPlan plan;
  plan.tree_dirty.assign(instance.q(), 1);
  plan.root_active.assign(instance.q(), 1);
  plan.root_active[1] = 0;
  const QRootedForest repaired = repair_q_rooted_msf(
      instance.distances(), instance.q(), base, plan);

  EXPECT_EQ(repaired.trees[1].num_nodes(), 1u);  // just the root
  std::vector<std::size_t> expected(instance.m());
  std::iota(expected.begin(), expected.end(), instance.q());
  EXPECT_EQ(spanned_sensors(repaired, instance.q()), expected);
}

TEST(MsfRepair, ExtraSensorsJoinTheForest) {
  QRootedInstance instance = random_instance(50, 2, 13);
  const QRootedForest base = q_rooted_msf(instance);

  // Two appended sensors, no other change: every base tree stays clean.
  instance.sensors.push_back({250.0, 250.0});
  instance.sensors.push_back({800.0, 120.0});
  MsfRepairPlan plan;
  plan.tree_dirty.assign(instance.q(), 0);
  plan.extra_sensors = {instance.q() + 50, instance.q() + 51};
  MsfRepairStats stats;
  const QRootedForest repaired = repair_q_rooted_msf(
      instance.distances(), instance.q(), base, plan, nullptr, &stats);

  std::vector<std::size_t> expected(instance.m());
  std::iota(expected.begin(), expected.end(), instance.q());
  EXPECT_EQ(spanned_sensors(repaired, instance.q()), expected);
  EXPECT_EQ(stats.dirty_sensors, 2u);
  EXPECT_GE(repaired.total_weight, base.total_weight);
}

TEST(SeededPolish, LocalizedRepairImprovesPerturbedTour) {
  const std::vector<geom::Point> points = random_points(200, 21);
  const DistanceView view = DistanceView::direct(points);
  const CandidateGraph candidates = CandidateGraph::build(points);

  ImproveOptions full;
  full.candidates = &candidates;
  Tour polished = nearest_neighbor_tour(points, 0);
  improve_tour(polished, view, full);
  const double polished_length = polished.length(points);

  // Perturb: swap two far-apart nodes of the polished order.
  Tour perturbed = polished;
  std::swap(perturbed.order()[10], perturbed.order()[120]);
  const double perturbed_length = perturbed.length(points);
  ASSERT_GT(perturbed_length, polished_length);

  // Seeded candidate-mode re-polish around the two touched nodes
  // recovers most of the damage without a full sweep.
  const std::vector<std::size_t> seeds{perturbed.order()[10],
                                       perturbed.order()[120]};
  ImproveOptions seeded = full;
  seeded.seed_nodes = &seeds;
  Tour repaired = perturbed;
  const double gain = improve_tour(repaired, view, seeded);
  EXPECT_GT(gain, 0.0);
  EXPECT_LT(repaired.length(points), perturbed_length);
}

TEST(SeededPolish, ExhaustiveSweepIgnoresSeeds) {
  const std::vector<geom::Point> points = random_points(80, 33);
  const DistanceView view = DistanceView::direct(points);

  Tour a = nearest_neighbor_tour(points, 0);
  Tour b = a;
  const std::vector<std::size_t> seeds{3};
  ImproveOptions with_seeds;
  with_seeds.seed_nodes = &seeds;  // no candidates: exhaustive mode
  improve_tour(a, view, with_seeds);
  improve_tour(b, view, ImproveOptions{});
  EXPECT_EQ(a.order(), b.order());
}

}  // namespace
}  // namespace mwc::tsp
