#include "svc/snapshot.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "obs/obs.hpp"

namespace mwc::svc {

namespace {

void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

void put_f64(std::string& out, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

/// Bounds-checked reader over the snapshot payload.
class Reader {
 public:
  Reader(const char* data, std::size_t size) : data_(data), size_(size) {}

  bool u64(std::uint64_t* v) {
    if (size_ - pos_ < 8) return false;
    std::memcpy(v, data_ + pos_, 8);
    pos_ += 8;
    return true;
  }
  bool f64(double* v) {
    if (size_ - pos_ < 8) return false;
    std::memcpy(v, data_ + pos_, 8);
    pos_ += 8;
    return true;
  }
  bool done() const { return pos_ == size_; }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

std::uint64_t checksum(const char* data, std::size_t size) {
  Fnv1a h;
  h.bytes(data, size);
  return h.value();
}

}  // namespace

long save_cache_snapshot(const PlanCache& cache, const std::string& path) {
  const auto entries = cache.export_entries();
  std::string payload;
  put_u64(payload, entries.size());
  for (const auto& entry : entries) {
    const Plan& plan = *entry.plan;
    put_u64(payload, entry.key);
    put_u64(payload, plan.fingerprint);
    put_f64(payload, plan.first_round_length);
    put_f64(payload, plan.total_distance);
    put_u64(payload, plan.num_dispatches);
    put_u64(payload, plan.num_sensor_charges);
    put_u64(payload, plan.dead_sensors);
    put_u64(payload, plan.first_round_tours.size());
    for (const PlanTour& tour : plan.first_round_tours) {
      put_u64(payload, tour.depot);
      put_f64(payload, tour.length);
      put_u64(payload, tour.sensors.size());
      for (std::size_t id : tour.sensors) put_u64(payload, id);
    }
  }

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return -1;
  bool ok = std::fwrite(kSnapshotMagic, 1, sizeof kSnapshotMagic, f) ==
            sizeof kSnapshotMagic;
  ok = ok && std::fwrite(payload.data(), 1, payload.size(), f) ==
                 payload.size();
  std::string tail;
  put_u64(tail, checksum(payload.data(), payload.size()));
  ok = ok && std::fwrite(tail.data(), 1, tail.size(), f) == tail.size();
  // The tmp+rename is only atomic against power loss if the data hits
  // disk before the rename does.
  ok = ok && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return -1;
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  MWC_OBS_COUNT("svc.cache.snapshot_saved");
  return static_cast<long>(entries.size());
}

std::size_t load_cache_snapshot(PlanCache& cache, const std::string& path,
                                std::string* error) {
  const auto reject = [&](const char* reason) -> std::size_t {
    MWC_OBS_COUNT("svc.cache.snapshot_rejected");
    if (error != nullptr) *error = reason;
    return 0;
  };
  if (error != nullptr) error->clear();

  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;  // no snapshot yet: cold start, not an error
  std::string bytes;
  char buf[65536];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, got);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) return reject("snapshot read failed");

  if (bytes.size() < sizeof kSnapshotMagic + 16)
    return reject("snapshot truncated");
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof kSnapshotMagic) != 0)
    return reject("snapshot magic/version mismatch");
  const char* payload = bytes.data() + sizeof kSnapshotMagic;
  const std::size_t payload_size = bytes.size() - sizeof kSnapshotMagic - 8;
  std::uint64_t stored_sum;
  std::memcpy(&stored_sum, bytes.data() + bytes.size() - 8, 8);
  if (checksum(payload, payload_size) != stored_sum)
    return reject("snapshot checksum mismatch");

  // Parse the whole payload into staging first: a bounds violation or a
  // key/fingerprint mismatch must not half-populate the cache.
  Reader r(payload, payload_size);
  std::uint64_t count;
  if (!r.u64(&count)) return reject("snapshot truncated");
  std::vector<std::pair<std::uint64_t, Plan>> staged;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t key, tours;
    Plan plan;
    std::uint64_t dispatches, charges, dead;
    if (!r.u64(&key) || !r.u64(&plan.fingerprint) ||
        !r.f64(&plan.first_round_length) || !r.f64(&plan.total_distance) ||
        !r.u64(&dispatches) || !r.u64(&charges) || !r.u64(&dead) ||
        !r.u64(&tours))
      return reject("snapshot truncated");
    if (key != plan.fingerprint)
      return reject("snapshot entry key != plan fingerprint");
    plan.num_dispatches = dispatches;
    plan.num_sensor_charges = charges;
    plan.dead_sensors = dead;
    for (std::uint64_t t = 0; t < tours; ++t) {
      PlanTour tour;
      std::uint64_t depot, sensors;
      if (!r.u64(&depot) || !r.f64(&tour.length) || !r.u64(&sensors))
        return reject("snapshot truncated");
      tour.depot = depot;
      if (sensors > (payload_size / 8))  // cheap bound before reserving
        return reject("snapshot tour length out of bounds");
      tour.sensors.reserve(sensors);
      for (std::uint64_t s = 0; s < sensors; ++s) {
        std::uint64_t id;
        if (!r.u64(&id)) return reject("snapshot truncated");
        tour.sensors.push_back(id);
      }
      plan.first_round_tours.push_back(std::move(tour));
    }
    staged.emplace_back(key, std::move(plan));
  }
  if (!r.done()) return reject("snapshot has trailing bytes");

  for (auto& [key, plan] : staged) cache.put(key, seal_plan(std::move(plan)));
  MWC_OBS_COUNT_N("svc.cache.snapshot_loaded", staged.size());
  return staged.size();
}

}  // namespace mwc::svc
