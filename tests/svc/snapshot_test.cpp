#include "svc/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "svc/plan_cache.hpp"
#include "svc/wire.hpp"

namespace mwc::svc {
namespace {

std::shared_ptr<const Plan> sample_plan(std::uint64_t fingerprint) {
  auto p = std::make_shared<Plan>();
  p->fingerprint = fingerprint;
  // Deliberately awkward doubles: the round trip must be bit-exact, not
  // merely close.
  p->first_round_length = 123.456789012345678;
  p->total_distance = 0.1 + static_cast<double>(fingerprint) * (1.0 / 3.0);
  p->num_dispatches = 3;
  p->num_sensor_charges = 17;
  p->dead_sensors = 1;
  PlanTour a;
  a.depot = 2;
  a.length = 987.654321 / 7.0;
  a.sensors = {5, 3, 8, 13};
  PlanTour b;
  b.depot = 0;
  b.length = 0.0;  // empty tour still round-trips
  p->first_round_tours = {a, b};
  return p;
}

/// The wire bytes a cache hit for this plan would produce (latency
/// zeroed, as in the golden tests).
std::string wire_bytes(const std::shared_ptr<const Plan>& plan) {
  Response r;
  r.id = "snap";
  r.ok = true;
  r.cached = true;
  r.latency_ms = 0.0;
  r.plan = plan;
  return to_jsonl(r);
}

std::uint64_t rejected_count() {
  return obs::Registry::global().counter("svc.cache.snapshot_rejected")
      .value();
}

class SnapshotTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  std::string read_file() {
    std::ifstream in(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  void write_file(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_ = ::testing::TempDir() + "mwc_snapshot_test.bin";
};

TEST_F(SnapshotTest, RoundTripRestoresIdenticalWireBytes) {
  PlanCache cache(8);
  const auto p1 = sample_plan(0x1111aaaa2222bbbbULL);
  const auto p2 = sample_plan(0x3333cccc4444ddddULL);
  cache.put(p1->fingerprint, p1);
  cache.put(p2->fingerprint, p2);

  EXPECT_EQ(save_cache_snapshot(cache, path_), 2);

  PlanCache restored(8);
  std::string error;
  EXPECT_EQ(load_cache_snapshot(restored, path_, &error), 2u);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(restored.size(), 2u);

  const auto r1 = restored.get(p1->fingerprint);
  const auto r2 = restored.get(p2->fingerprint);
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  // A restarted daemon must answer with byte-identical responses.
  EXPECT_EQ(wire_bytes(r1), wire_bytes(p1));
  EXPECT_EQ(wire_bytes(r2), wire_bytes(p2));
}

TEST_F(SnapshotTest, RestorePreservesRecencyOrder) {
  PlanCache cache(2);
  const auto p1 = sample_plan(1);
  const auto p2 = sample_plan(2);
  cache.put(1, p1);
  cache.put(2, p2);
  ASSERT_NE(cache.get(1), nullptr);  // 1 is MRU, 2 is LRU

  ASSERT_EQ(save_cache_snapshot(cache, path_), 2);
  PlanCache restored(2);
  ASSERT_EQ(load_cache_snapshot(restored, path_), 2u);

  // Inserting a third plan must evict 2 (the snapshotted LRU), not 1.
  restored.put(3, sample_plan(3));
  EXPECT_NE(restored.get(1), nullptr);
  EXPECT_EQ(restored.get(2), nullptr);
}

TEST_F(SnapshotTest, EmptyCacheWritesLoadableFile) {
  PlanCache cache(4);
  EXPECT_EQ(save_cache_snapshot(cache, path_), 0);
  PlanCache restored(4);
  std::string error;
  EXPECT_EQ(load_cache_snapshot(restored, path_, &error), 0u);
  EXPECT_TRUE(error.empty()) << error;
}

TEST_F(SnapshotTest, MissingFileIsSilentColdStart) {
  const std::uint64_t rejected_before = rejected_count();
  PlanCache cache(4);
  std::string error = "sentinel";
  EXPECT_EQ(load_cache_snapshot(cache, path_ + ".does-not-exist", &error),
            0u);
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(rejected_count(), rejected_before);
}

TEST_F(SnapshotTest, CorruptedPayloadIsRejectedWhole) {
  PlanCache cache(4);
  cache.put(7, sample_plan(7));
  ASSERT_EQ(save_cache_snapshot(cache, path_), 1);

  std::string bytes = read_file();
  bytes[bytes.size() / 2] ^= 0x5a;  // flip bits mid-payload
  write_file(bytes);

  const std::uint64_t rejected_before = rejected_count();
  PlanCache restored(4);
  std::string error;
  EXPECT_EQ(load_cache_snapshot(restored, path_, &error), 0u);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(restored.size(), 0u);  // nothing half-loaded
  if (MWC_OBS_ENABLED != 0) {
    EXPECT_EQ(rejected_count(), rejected_before + 1);
  }
}

TEST_F(SnapshotTest, TruncatedFileIsRejected) {
  PlanCache cache(4);
  cache.put(7, sample_plan(7));
  ASSERT_EQ(save_cache_snapshot(cache, path_), 1);

  std::string bytes = read_file();
  write_file(bytes.substr(0, bytes.size() - 9));

  PlanCache restored(4);
  std::string error;
  EXPECT_EQ(load_cache_snapshot(restored, path_, &error), 0u);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(restored.size(), 0u);
}

TEST_F(SnapshotTest, WrongMagicIsRejected) {
  write_file("NOTASNAPxxxxxxxxxxxxxxxxxxxxxxxx");
  PlanCache restored(4);
  std::string error;
  EXPECT_EQ(load_cache_snapshot(restored, path_, &error), 0u);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST_F(SnapshotTest, KeyFingerprintMismatchRejectsWholeFile) {
  PlanCache cache(4);
  cache.put(100, sample_plan(100));  // valid entry first (LRU)
  cache.put(999, sample_plan(1));    // stale: key != plan fingerprint
  ASSERT_EQ(save_cache_snapshot(cache, path_), 2);

  PlanCache restored(4);
  std::string error;
  EXPECT_EQ(load_cache_snapshot(restored, path_, &error), 0u);
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
  // All-or-nothing: the valid entry must not have been kept.
  EXPECT_EQ(restored.size(), 0u);
}

TEST_F(SnapshotTest, SavedAndLoadedCountersAdvance) {
  if (MWC_OBS_ENABLED == 0) GTEST_SKIP() << "obs compiled out";
  auto& reg = obs::Registry::global();
  const std::uint64_t saved_before =
      reg.counter("svc.cache.snapshot_saved").value();
  const std::uint64_t loaded_before =
      reg.counter("svc.cache.snapshot_loaded").value();

  PlanCache cache(4);
  cache.put(1, sample_plan(1));
  cache.put(2, sample_plan(2));
  ASSERT_EQ(save_cache_snapshot(cache, path_), 2);
  PlanCache restored(4);
  ASSERT_EQ(load_cache_snapshot(restored, path_), 2u);

  EXPECT_EQ(reg.counter("svc.cache.snapshot_saved").value(),
            saved_before + 1);
  EXPECT_EQ(reg.counter("svc.cache.snapshot_loaded").value(),
            loaded_before + 2);
}

}  // namespace
}  // namespace mwc::svc
