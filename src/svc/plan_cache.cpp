#include "svc/plan_cache.hpp"

#include <cmath>
#include <cstring>
#include <utility>

#include "obs/obs.hpp"

namespace mwc::svc {

namespace {

/// Finalizer mix (splitmix64) so shard selection uses all key bits even
/// when the low bits correlate (FNV keys are well mixed, derived keys
/// less so).
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void Fnv1a::bytes(const void* data, std::size_t size) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 0x100000001b3ULL;  // FNV prime
  }
}

void Fnv1a::u64(std::uint64_t v) noexcept { bytes(&v, sizeof v); }

void Fnv1a::str(std::string_view s) noexcept {
  u64(s.size());
  bytes(s.data(), s.size());
}

void Fnv1a::quantized(double v, double quantum) noexcept {
  const double scaled = v / quantum;
  // llround saturates UB-free only in range; instances live well inside.
  const auto q = static_cast<std::int64_t>(std::llround(scaled));
  u64(static_cast<std::uint64_t>(q));
}

PlanCache::PlanCache(std::size_t capacity, std::size_t shards) {
  if (shards == 0 || capacity == 0) shards = 1;
  if (capacity > 0 && shards > capacity) shards = capacity;
  per_shard_ = capacity == 0 ? 0 : (capacity + shards - 1) / shards;
  shards_ = std::vector<Shard>(shards);
}

PlanCache::Shard& PlanCache::shard_for(std::uint64_t key) const noexcept {
  return shards_[shards_.size() == 1 ? 0 : mix(key) % shards_.size()];
}

std::shared_ptr<const Plan> PlanCache::get(std::uint64_t key) {
  return lookup(key, /*count_miss=*/true);
}

std::shared_ptr<const Plan> PlanCache::get_by_spec(std::uint64_t spec_hash) {
  const std::uint64_t key = spec_lookup(spec_hash);
  return key == 0 ? nullptr : lookup(key, /*count_miss=*/false);
}

std::shared_ptr<const Plan> PlanCache::lookup(std::uint64_t key,
                                              bool count_miss) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    if (count_miss) {
      misses_.add(1);
      MWC_OBS_COUNT("svc.cache.misses");
    }
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // -> MRU
  hits_.add(1);
  MWC_OBS_COUNT("svc.cache.hits");
  return it->second->plan;
}

std::shared_ptr<const BaseState> PlanCache::get_state(std::uint64_t key) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->state;
}

void PlanCache::put(std::uint64_t key, std::shared_ptr<const Plan> plan,
                    std::shared_ptr<const BaseState> state) {
  if (per_shard_ == 0 || plan == nullptr) return;
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->plan = std::move(plan);
    if (state != nullptr) it->second->state = std::move(state);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(Entry{key, std::move(plan), std::move(state)});
  shard.index.emplace(key, shard.lru.begin());
  while (shard.lru.size() > per_shard_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    evictions_.add(1);
    MWC_OBS_COUNT("svc.cache.evictions");
  }
}

std::uint64_t PlanCache::spec_lookup(std::uint64_t spec_hash) const {
  if (per_shard_ == 0) return 0;
  Shard& shard = shard_for(spec_hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.spec.find(spec_hash);
  return it == shard.spec.end() ? 0 : it->second;
}

void PlanCache::spec_remember(std::uint64_t spec_hash,
                              std::uint64_t fingerprint) {
  if (per_shard_ == 0 || fingerprint == 0) return;
  Shard& shard = shard_for(spec_hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto [it, inserted] = shard.spec.emplace(spec_hash, fingerprint);
  if (!inserted) {
    it->second = fingerprint;
    return;
  }
  shard.spec_order.push_back(spec_hash);
  // A plan can be reachable under a handful of spec aliases (preset vs
  // inline form); 4x the plan share bounds the memo without evicting
  // live aliases under normal mixes.
  const std::size_t memo_capacity = per_shard_ * 4;
  while (shard.spec_order.size() > memo_capacity) {
    shard.spec.erase(shard.spec_order.front());
    shard.spec_order.pop_front();
  }
}

void PlanCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.lru.clear();
    shard.index.clear();
    shard.spec.clear();
    shard.spec_order.clear();
  }
}

std::size_t PlanCache::size() const {
  std::size_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.lru.size();
  }
  return total;
}

std::vector<PlanCache::ExportedEntry> PlanCache::export_entries() const {
  std::vector<ExportedEntry> out;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // Reverse iteration: LRU first, so replaying put() restores order.
    for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it)
      out.push_back(ExportedEntry{it->key, it->plan});
  }
  return out;
}

}  // namespace mwc::svc
