// svc::PlanCache — thread-safe sharded LRU over solved plans.
//
// Keys are 64-bit instance fingerprints (FNV-1a over the *resolved*
// instance: quantized coordinates, slot-0 cycle draws, policy name, and
// solve options — see engine.hpp), so a preset request and an inline
// request describing the same geometry hit the same entry, and repeated
// or paired requests return the identical std::shared_ptr<const Plan>
// without re-solving.
//
// The store is split into `shards` independently-locked shards selected
// by a mix of the key, each with its own LRU list, so concurrent warm
// hits on different instances never contend on one mutex. Capacity is
// divided evenly across shards (ceil), so the effective total reported
// by capacity() may round up slightly for non-divisible configurations.
// A single-sharded cache (the default) keeps exact global LRU order.
//
// Beside the plan store each shard keeps a bounded *spec memo*: a map
// from a cheap hash of the raw request spec to the instance fingerprint
// it resolved to. The warm path uses it to skip instance resolution
// (network deployment + quantized hashing) entirely — see
// svc::spec_memo_hit.
//
// Hits/misses/evictions are tracked both on local counters (exact
// per-cache stats, usable under MWC_OBS=OFF) and on the global registry
// as `svc.cache.{hits,misses,evictions}`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/registry.hpp"
#include "svc/wire.hpp"

namespace mwc::svc {

/// Opaque solver-side state cached beside a Plan so the v2 delta path can
/// repair the base round instead of re-solving (defined in delta.hpp; the
/// cache only stores and hands back the pointer).
struct BaseState;

/// Incremental FNV-1a 64-bit hash with helpers for the quantized-value
/// folding the fingerprint needs (doubles are snapped to a fixed quantum
/// before hashing so -0.0/0.0 and formatting noise cannot split keys).
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) noexcept;
  void u64(std::uint64_t v) noexcept;
  void str(std::string_view s) noexcept;
  /// Quantizes v to integer multiples of `quantum` and folds it.
  void quantized(double v, double quantum) noexcept;

  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;  // FNV offset basis
};

class PlanCache {
 public:
  /// `capacity` = max retained plans across all shards; 0 disables
  /// caching (every lookup misses, puts are dropped). `shards` = number
  /// of independently-locked shards; clamped to [1, capacity] so every
  /// shard holds at least one plan. The default single shard preserves
  /// exact global LRU order; servers use several to take the mutex off
  /// the warm path.
  explicit PlanCache(std::size_t capacity, std::size_t shards = 1);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The cached plan for `key`, promoting it to most-recently-used
  /// within its shard; null on a miss.
  std::shared_ptr<const Plan> get(std::uint64_t key);

  /// Inserts (or refreshes) `plan` under `key`, evicting the
  /// least-recently-used entry of the key's shard beyond its share of
  /// the capacity. The optional `state` rides along with the entry and
  /// feeds the v2 delta path.
  void put(std::uint64_t key, std::shared_ptr<const Plan> plan,
           std::shared_ptr<const BaseState> state = nullptr);

  /// The cached solver state for `key` (null when the entry is absent or
  /// was stored without state). Promotes the entry like `get` but does
  /// not count a hit/miss — delta resolution probes are tracked by the
  /// `svc.delta.*` counters instead.
  std::shared_ptr<const BaseState> get_state(std::uint64_t key);

  /// The plan the spec memo maps `spec_hash` to, promoted and counted as
  /// a hit; null when the spec is unknown or its plan was evicted. That
  /// null is not counted as a miss: the caller falls back to resolving
  /// the instance, whose get() probe counts it.
  std::shared_ptr<const Plan> get_by_spec(std::uint64_t spec_hash);

  /// The instance fingerprint previously remembered for `spec_hash`, or
  /// 0 when unknown (0 is never remembered). Not counted as a cache
  /// hit/miss — the plan probe that follows is.
  std::uint64_t spec_lookup(std::uint64_t spec_hash) const;

  /// Remembers spec_hash -> fingerprint in a bounded FIFO memo (oldest
  /// entries fall out first). No-op when caching is disabled or
  /// `fingerprint` is 0.
  void spec_remember(std::uint64_t spec_hash, std::uint64_t fingerprint);

  void clear();

  std::size_t size() const;
  /// Effective total capacity (per-shard share x shard count).
  std::size_t capacity() const noexcept { return per_shard_ * shards_.size(); }
  std::size_t shards() const noexcept { return shards_.size(); }

  std::uint64_t hits() const noexcept { return hits_.value(); }
  std::uint64_t misses() const noexcept { return misses_.value(); }
  std::uint64_t evictions() const noexcept { return evictions_.value(); }

  /// One exported cache entry (snapshot serialization).
  struct ExportedEntry {
    std::uint64_t key = 0;
    std::shared_ptr<const Plan> plan;
  };

  /// Every cached entry, least-recently-used first per shard, so
  /// replaying the list through put() reproduces the recency order.
  /// BaseState does not export — snapshots restore plans only.
  std::vector<ExportedEntry> export_entries() const;

 private:
  struct Entry {
    std::uint64_t key;
    std::shared_ptr<const Plan> plan;
    std::shared_ptr<const BaseState> state;
  };
  using LruList = std::list<Entry>;

  struct Shard {
    mutable std::mutex mutex;
    LruList lru;  ///< front = most recently used
    std::unordered_map<std::uint64_t, LruList::iterator> index;
    /// Spec memo: raw-request-spec hash -> instance fingerprint,
    /// bounded FIFO (spec_order tracks insertion age).
    std::unordered_map<std::uint64_t, std::uint64_t> spec;
    std::deque<std::uint64_t> spec_order;
  };

  Shard& shard_for(std::uint64_t key) const noexcept;
  /// get() with the miss counted only when `count_miss`.
  std::shared_ptr<const Plan> lookup(std::uint64_t key, bool count_miss);

  std::size_t per_shard_ = 0;  ///< capacity each shard retains
  mutable std::vector<Shard> shards_;
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
};

}  // namespace mwc::svc
