// mwcbench workloads: the four traffic mixes, the deterministic request
// generators behind them, client-side plan validation, and exact
// percentiles. Shared by the TCP client (mwcbench.cpp) and the in-process
// layer replay (layers.cpp), so both halves of a traced run see the same
// instances for the same seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "geom/point.hpp"
#include "svc/json.hpp"
#include "svc/wire.hpp"

namespace mwcbench {

enum class Workload { kCold2k, kCold10k, kWarmPipelined, kMixedOpen };

struct WorkloadSpec {
  Workload id;
  const char* name;
  std::size_t conns;  ///< TCP connections (the host has 4 cores)
  std::size_t depth;  ///< closed loop: requests in flight per connection;
                      ///< 0 = open loop (Poisson arrivals)
  /// Percentile of the per-layer `.tail` rows: the highest one whose
  /// sample count at the benchmark's run length keeps >= 10 samples
  /// beyond it (cold_10k serves ~40 requests, so only the median).
  double tail_percentile;
  std::vector<std::string> mwcd_flags;  ///< besides --port
};

/// The workload named `name`, or null.
const WorkloadSpec* find_workload(std::string_view name);
const std::vector<WorkloadSpec>& all_workloads();

// Instance families. All use MinTotalDistance, q = 5, a 1000 m field and
// horizon 200; topology and cycle seeds derive from the run's --seed.
// Cold instances draw tau from the default cycle model; the warm, delta
// base and mixed cold families hold tau = 5 for every sensor, so their
// first round (the one a delta repairs) holds every sensor.
inline constexpr std::size_t kWarmInstances = 32;  ///< primed n=800 set
inline constexpr std::size_t kDeltaBases = 2;      ///< primed n=2000 bases
inline constexpr double kMixedRateRps = 400.0;
inline constexpr double kMixedHitShare = 0.88;
inline constexpr double kMixedDeltaShare = 0.10;  ///< rest: cold solves
inline constexpr double kSloMs = 100.0;           ///< mixed_open limit
inline constexpr double kMaxGenLagP99Ms = 2.0;    ///< open-loop validity

/// Fresh preset topology k of size n (cold_2k, cold_10k), improve off.
mwc::svc::Request cold_request(std::uint64_t seed, std::size_t n,
                               std::size_t k);
/// Warm instance w < kWarmInstances (n=800, tau = 5, improve off).
mwc::svc::Request warm_request(std::uint64_t seed, std::size_t w);
/// Fresh n=800, tau = 5, improve-on solve k of mixed_open.
mwc::svc::Request mixed_cold_request(std::uint64_t seed, std::size_t k);
/// Delta base b < kDeltaBases: n=2000, tau = 5, improve on.
mwc::svc::Request delta_base_request(std::uint64_t seed, std::size_t b);

/// Delta k of mixed_open: 1-4 move/add/remove ops against base
/// `base_of_delta(seed, k)`, never touching one sensor twice, so every
/// patch is distinct and valid.
std::size_t base_of_delta(std::uint64_t seed, std::size_t k);
std::vector<mwc::svc::PatchOp> delta_patch(std::uint64_t seed, std::size_t k,
                                           std::size_t base_n);

enum class Kind { kCold, kHit, kDelta };

/// One mixed_open arrival: due offset from the window start, class, and
/// the index within its class (warm instance, delta number, cold number).
struct Arrival {
  double offset_s = 0.0;
  Kind kind = Kind::kHit;
  std::size_t index = 0;
};

/// Poisson arrivals at kMixedRateRps over [0, seconds).
std::vector<Arrival> mixed_schedule(std::uint64_t seed, double seconds);

/// A request line split around its id so repeats of one instance differ
/// only in id (and trace id, which the benchmark sets to "t" + id).
class LineTemplate {
 public:
  LineTemplate() = default;
  LineTemplate(mwc::svc::Request request, bool traced);
  LineTemplate(mwc::svc::DeltaRequest request, bool traced);
  /// The full JSONL line (newline included) for request id `id`.
  void render(std::string_view id, std::string& out) const;

 private:
  void split(const std::string& json);
  std::vector<std::string> parts_;
};

/// Combined-space geometry of an instance as the client resolves it.
struct Geometry {
  std::vector<mwc::geom::Point> depots;
  std::vector<mwc::geom::Point> sensors;
};

/// The client's own svc::resolve of a full request.
Geometry resolve_geometry(const mwc::svc::Request& request);

/// The patched geometry a delta describes (fold_patch semantics for
/// move/add/remove: survivors keep base order, additions append).
Geometry patch_geometry(const Geometry& base,
                        const std::vector<mwc::svc::PatchOp>& patch);

/// A plan's first-round tour length and its total travel over the
/// horizon (total_distance, the paper's service cost).
struct PlanLengths {
  double first_round = 0.0;
  double total = 0.0;
};

/// Checks one plan object against the instance geometry: every tour
/// starts at a depot < q, sensor ids are in range and disjoint across
/// tours, each `length` matches the recomputed closed-tour length within
/// 1e-9 relative, and first_round_length is their sum. Returns "" when
/// the plan is valid, else what failed. Sets *lengths.
std::string check_plan(const mwc::svc::Json& plan, const Geometry& geometry,
                       PlanLengths* lengths);

/// One parsed response line. `plan` views the raw plan object bytes in
/// the line it was parsed from.
struct Reply {
  std::string id;
  std::string trace_id;
  bool ok = false;
  std::string error;
  bool cached = false;
  bool derived = false;
  std::string base;
  bool has_stages = false;
  double parse_ms = 0.0, queue_ms = 0.0, cache_ms = 0.0, solve_ms = 0.0;
  std::string_view plan;
};

/// Parses a response line (no trailing newline). Throws
/// mwc::svc::JsonError on malformed input.
Reply parse_reply(std::string_view line);

/// Exact nearest-rank percentile of sorted samples: the value at rank
/// ceil(p/100 * n). `beyond` counts samples ranked after it; a
/// percentile is reportable only with at least kMinBeyond of them (the
/// median is always reported).
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
  bool reportable = false;
};
inline constexpr std::size_t kMinBeyond = 10;
Percentile percentile(const std::vector<double>& sorted, double p);

double mean(const std::vector<double>& samples);

}  // namespace mwcbench
