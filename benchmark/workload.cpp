#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "svc/engine.hpp"
#include "util/rng.hpp"

namespace mwcbench {

namespace svc = mwc::svc;
using mwc::geom::Point;

namespace {

constexpr std::size_t kQ = 5;
constexpr double kField = 1000.0;
constexpr double kHorizon = 200.0;
constexpr double kConstantTau = 5.0;
constexpr const char* kPolicy = "MinTotalDistance";

// Seed streams, one per instance family, so families never share draws.
enum Stream : std::uint64_t {
  kColdTopology = 1,
  kColdCycles,
  kWarmTopology,
  kMixedColdTopology,
  kBaseTopology,
  kDeltaPatch,
  kArrivals,
};

/// Instance seed for (run seed, family, index). Masked to 53 bits: preset
/// seeds travel as JSON numbers (doubles) on the wire.
std::uint64_t derive(std::uint64_t seed, Stream stream, std::size_t index) {
  return mwc::mix64(mwc::mix64(seed, stream), index) & ((1ULL << 53) - 1);
}

/// Default cycle model (tau in [1, 50] by distance to the base station):
/// MinTotalDistance then dispatches ~6 distinct sensor sets per horizon.
const mwc::wsn::CycleModelConfig kSpreadCycles{};
/// tau = 5 for every sensor: each round, the first included, holds every
/// sensor, so plans carry full-size tours.
const mwc::wsn::CycleModelConfig kConstantCycles{
    mwc::wsn::CycleDistribution::kLinear, kConstantTau, kConstantTau, 0.0};

svc::Request preset_request(std::size_t n, std::uint64_t topology,
                            const mwc::wsn::CycleModelConfig& cycles,
                            std::uint64_t cycle_seed, bool improve) {
  return svc::RequestBuilder("r")
      .policy(kPolicy)
      .preset(n, kQ, kField, topology)
      .cycle_model(cycles, cycle_seed)
      .horizon(kHorizon)
      .improve(improve)
      .build();
}

bool near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

}  // namespace

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> workloads = {
      {Workload::kCold2k, "cold_2k", 2, 1, 99.0, {"--threads", "4"}},
      {Workload::kCold10k, "cold_10k", 1, 1, 50.0, {"--threads", "4"}},
      {Workload::kWarmPipelined,
       "warm_pipelined",
       4,
       32,
       99.0,
       {"--threads", "4", "--queue-depth", "256"}},
      {Workload::kMixedOpen,
       "mixed_open",
       4,
       0,
       99.0,
       {"--threads", "4", "--queue-depth", "256", "--cache-capacity", "256"}},
  };
  return workloads;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : all_workloads())
    if (name == w.name) return &w;
  return nullptr;
}

svc::Request cold_request(std::uint64_t seed, std::size_t n, std::size_t k) {
  return preset_request(n, derive(seed, kColdTopology, k), kSpreadCycles,
                        derive(seed, kColdCycles, k), false);
}

svc::Request warm_request(std::uint64_t seed, std::size_t w) {
  return preset_request(800, derive(seed, kWarmTopology, w), kConstantCycles,
                        0, false);
}

svc::Request mixed_cold_request(std::uint64_t seed, std::size_t k) {
  return preset_request(800, derive(seed, kMixedColdTopology, k),
                        kConstantCycles, 0, true);
}

svc::Request delta_base_request(std::uint64_t seed, std::size_t b) {
  return preset_request(2000, derive(seed, kBaseTopology, b), kConstantCycles,
                        0, true);
}

std::size_t base_of_delta(std::uint64_t seed, std::size_t k) {
  return static_cast<std::size_t>(derive(seed, kDeltaPatch, k) % kDeltaBases);
}

std::vector<svc::PatchOp> delta_patch(std::uint64_t seed, std::size_t k,
                                      std::size_t base_n) {
  mwc::Rng rng(derive(seed, kDeltaPatch, k));
  const auto ops = rng.uniform_int(1, 4);
  std::vector<std::size_t> touched;
  const auto fresh_sensor = [&] {
    for (;;) {
      const auto s = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(base_n) - 1));
      if (std::find(touched.begin(), touched.end(), s) == touched.end()) {
        touched.push_back(s);
        return s;
      }
    }
  };
  std::vector<svc::PatchOp> patch;
  for (std::int64_t i = 0; i < ops; ++i) {
    svc::PatchOp op;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        op.kind = svc::PatchOpKind::kMoveSensor;
        op.target = fresh_sensor();
        op.pos = {rng.uniform(0.0, kField), rng.uniform(0.0, kField)};
        break;
      case 1:
        op.kind = svc::PatchOpKind::kAddSensor;
        op.pos = {rng.uniform(0.0, kField), rng.uniform(0.0, kField)};
        op.tau = kConstantTau;
        break;
      default:
        op.kind = svc::PatchOpKind::kRemoveSensor;
        op.target = fresh_sensor();
        break;
    }
    patch.push_back(op);
  }
  return patch;
}

std::vector<Arrival> mixed_schedule(std::uint64_t seed, double seconds) {
  mwc::Rng rng(derive(seed, kArrivals, 0));
  std::vector<Arrival> schedule;
  std::size_t deltas = 0;
  std::size_t colds = 0;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / kMixedRateRps;
    if (t >= seconds) break;
    Arrival a;
    a.offset_s = t;
    const double u = rng.uniform();
    if (u < kMixedHitShare) {
      a.kind = Kind::kHit;
      a.index = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kWarmInstances) - 1));
    } else if (u < kMixedHitShare + kMixedDeltaShare) {
      a.kind = Kind::kDelta;
      a.index = deltas++;
    } else {
      a.kind = Kind::kCold;
      a.index = colds++;
    }
    schedule.push_back(a);
  }
  return schedule;
}

// The id placeholder cannot occur in a serialized request: it is not
// valid inside a JSON number, and the generated requests carry no other
// strings that could contain it.
constexpr std::string_view kIdMark = "@ID@";

LineTemplate::LineTemplate(svc::Request request, bool traced) {
  request.id = std::string(kIdMark);
  if (traced) request.trace_id = std::string("t").append(kIdMark);
  split(svc::to_json(request));
}

LineTemplate::LineTemplate(svc::DeltaRequest request, bool traced) {
  request.id = std::string(kIdMark);
  if (traced) request.trace_id = std::string("t").append(kIdMark);
  split(svc::to_json(request));
}

void LineTemplate::split(const std::string& json) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t at = json.find(kIdMark, start);
    if (at == std::string::npos) break;
    parts_.push_back(json.substr(start, at - start));
    start = at + kIdMark.size();
  }
  parts_.push_back(json.substr(start) + "\n");
}

void LineTemplate::render(std::string_view id, std::string& out) const {
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (i > 0) out += id;
    out += parts_[i];
  }
}

Geometry resolve_geometry(const svc::Request& request) {
  const svc::ResolvedInstance instance = svc::resolve(request);
  return {instance.network.depots(), instance.network.sensor_points()};
}

Geometry patch_geometry(const Geometry& base,
                        const std::vector<svc::PatchOp>& patch) {
  std::vector<char> removed(base.sensors.size(), 0);
  std::vector<Point> moved = base.sensors;
  std::vector<Point> added;
  for (const svc::PatchOp& op : patch) {
    switch (op.kind) {
      case svc::PatchOpKind::kMoveSensor:
        moved.at(op.target) = op.pos;
        break;
      case svc::PatchOpKind::kRemoveSensor:
        removed.at(op.target) = 1;
        break;
      case svc::PatchOpKind::kAddSensor:
        added.push_back(op.pos);
        break;
      default:
        throw std::invalid_argument("patch op the benchmark never sends");
    }
  }
  Geometry out;
  out.depots = base.depots;
  for (std::size_t i = 0; i < moved.size(); ++i)
    if (removed[i] == 0) out.sensors.push_back(moved[i]);
  out.sensors.insert(out.sensors.end(), added.begin(), added.end());
  return out;
}

std::string check_plan(const svc::Json& plan, const Geometry& geometry,
                       PlanLengths* lengths) {
  const std::size_t q = geometry.depots.size();
  const std::size_t n = geometry.sensors.size();
  const auto point = [&](std::size_t node) -> const Point& {
    return node < q ? geometry.depots[node] : geometry.sensors[node - q];
  };
  std::vector<char> seen(n, 0);
  double sum = 0.0;
  for (const svc::Json& tour : plan.at("first_round_tours").items()) {
    const std::int64_t depot = tour.at("depot").as_int();
    if (depot < 0 || static_cast<std::size_t>(depot) >= q)
      return "tour depot " + std::to_string(depot) + " is not < q";
    // Closed tour in the server's order: depot, sensors..., back to depot.
    std::vector<std::size_t> order{static_cast<std::size_t>(depot)};
    for (const svc::Json& s : tour.at("sensors").items()) {
      const std::int64_t id = s.as_int();
      if (id < 0 || static_cast<std::size_t>(id) >= n)
        return "sensor id " + std::to_string(id) + " out of range";
      if (seen[static_cast<std::size_t>(id)] != 0)
        return "sensor " + std::to_string(id) + " in two tours";
      seen[static_cast<std::size_t>(id)] = 1;
      order.push_back(q + static_cast<std::size_t>(id));
    }
    double length = 0.0;
    if (order.size() >= 2) {
      for (std::size_t i = 0; i + 1 < order.size(); ++i)
        length += mwc::geom::distance(point(order[i]), point(order[i + 1]));
      length += mwc::geom::distance(point(order.back()), point(order.front()));
    }
    const double reported = tour.at("length").as_double();
    if (!near(reported, length))
      return "tour length " + std::to_string(reported) +
             " != recomputed " + std::to_string(length);
    sum += reported;
  }
  const double total = plan.at("first_round_length").as_double();
  if (!near(total, sum)) return "first_round_length != sum of tour lengths";
  if (!plan.at("fingerprint").is_string()) return "plan has no fingerprint";
  lengths->first_round = total;
  lengths->total = plan.at("total_distance").as_double();
  return "";
}

Reply parse_reply(std::string_view line) {
  // Responses end with the plan object, so the header before it parses
  // on its own once closed; the plan bytes stay unparsed until needed.
  constexpr std::string_view kPlanKey = ",\"plan\":";
  Reply reply;
  std::string header;
  const std::size_t at = line.find(kPlanKey);
  if (at != std::string_view::npos) {
    if (line.back() != '}') throw svc::JsonError("response does not end in }");
    header.assign(line.substr(0, at));
    header += '}';
    reply.plan = line.substr(at + kPlanKey.size(),
                             line.size() - 1 - (at + kPlanKey.size()));
  } else {
    header.assign(line);
  }
  const svc::Json doc = svc::Json::parse(header);
  reply.id = doc.at("id").as_string();
  if (const svc::Json* t = doc.find("trace_id")) reply.trace_id = t->as_string();
  reply.ok = doc.at("ok").as_bool();
  if (const svc::Json* e = doc.find("error")) reply.error = e->as_string();
  if (const svc::Json* c = doc.find("cached")) reply.cached = c->as_bool();
  if (const svc::Json* d = doc.find("derived")) reply.derived = d->as_bool();
  if (const svc::Json* b = doc.find("base")) reply.base = b->as_string();
  if (const svc::Json* t = doc.find("t")) {
    reply.has_stages = true;
    reply.parse_ms = t->at("parse_ms").as_double();
    reply.queue_ms = t->at("queue_ms").as_double();
    reply.cache_ms = t->at("cache_ms").as_double();
    reply.solve_ms = t->at("solve_ms").as_double();
  }
  return reply;
}

Percentile percentile(const std::vector<double>& sorted, double p) {
  Percentile out;
  out.n = sorted.size();
  if (sorted.empty()) return out;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  out.value = sorted[rank - 1];
  out.beyond = sorted.size() - rank;
  out.reportable = p <= 50.0 || out.beyond >= kMinBeyond;
  return out;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

}  // namespace mwcbench
