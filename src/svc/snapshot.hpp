// svc cache snapshots — persist the PlanCache across daemon restarts.
//
// A snapshot is a versioned binary file ("MWCSNAP1" magic) holding every
// cached plan: key, the Plan's scalar aggregates, and its first-round
// tours, with doubles stored as raw IEEE-754 bytes so a reloaded plan
// serializes to byte-identical wire JSON. The file ends in an FNV-1a
// checksum over the payload; loading validates magic, checksum, bounds,
// and that every entry's key matches its plan's recorded fingerprint,
// and rejects the whole file on any violation — a corrupt or stale
// snapshot never half-populates a cache. Restored plans are sealed
// (svc::seal_plan) as they load, so their hits splice stored bytes too.
//
// BaseState (the v2 delta repair state) intentionally does not persist:
// snapshot-restored entries serve full requests warm immediately, while
// a delta against one answers `unknown_base` until its base is solved
// once in the new process.
//
// Counters: svc.cache.snapshot_saved (files written),
// svc.cache.snapshot_loaded (entries restored),
// svc.cache.snapshot_rejected (files refused).
#pragma once

#include <cstddef>
#include <string>

#include "svc/plan_cache.hpp"

namespace mwc::svc {

inline constexpr char kSnapshotMagic[8] = {'M', 'W', 'C', 'S',
                                           'N', 'A', 'P', '1'};

/// Writes every entry of `cache` to `path` (atomically: a temp file
/// renamed into place). Returns the number of entries written, or -1 on
/// I/O failure. An empty cache still writes a valid zero-entry file.
long save_cache_snapshot(const PlanCache& cache, const std::string& path);

/// Loads a snapshot into `cache` via put() (restoring recency order).
/// Returns the number of entries restored; 0 with `svc.cache.
/// snapshot_rejected` bumped when the file exists but fails validation,
/// and 0 silently when it does not exist. `error` (optional) receives a
/// one-line reason on rejection.
std::size_t load_cache_snapshot(PlanCache& cache, const std::string& path,
                                std::string* error = nullptr);

}  // namespace mwc::svc
