#include "svc/wire.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "svc/json.hpp"

namespace mwc::svc {

namespace {

double require_positive(double v, const char* what) {
  if (!(v > 0.0)) throw WireError(std::string(what) + " must be > 0");
  return v;
}

/// A node count: an integer in [1, max], refused by name otherwise.
std::size_t require_count(const Json& j, const char* what, std::size_t max) {
  const double v = j.as_double();
  if (!(v >= 1.0 && v <= static_cast<double>(max)) || v != std::trunc(v))
    throw WireError(std::string(what) + " must be an integer in [1, " +
                    std::to_string(max) + "]");
  return static_cast<std::size_t>(v);
}

geom::Point parse_point(const Json& j, const char* what) {
  if (!j.is_array() || j.size() != 2)
    throw WireError(std::string(what) + " must be [x, y]");
  return geom::Point{j.items()[0].as_double(), j.items()[1].as_double()};
}

NetworkSpec parse_network(const Json& j) {
  NetworkSpec spec;
  if (const Json* preset = j.find("preset")) {
    spec.inline_points = false;
    spec.deployment.n =
        require_count(preset->at("n"), "network.preset.n", kMaxPresetNodes);
    spec.deployment.q =
        require_count(preset->at("q"), "network.preset.q", kMaxPresetNodes);
    if (const Json* field = preset->find("field"))
      spec.deployment.field_side =
          require_positive(field->as_double(), "network.preset.field");
    if (const Json* at_bs = preset->find("depot_at_base"))
      spec.deployment.depot_at_base_station = at_bs->as_bool();
    if (const Json* seed = preset->find("seed"))
      spec.seed = static_cast<std::uint64_t>(seed->as_int());
    return spec;
  }
  if (j.find("sensors") == nullptr)
    throw WireError("network needs \"preset\" or \"sensors\"");
  spec.inline_points = true;
  for (const Json& p : j.at("sensors").items())
    spec.sensors.push_back(parse_point(p, "network.sensors[i]"));
  for (const Json& p : j.at("depots").items())
    spec.depots.push_back(parse_point(p, "network.depots[i]"));
  spec.base_station = parse_point(j.at("base"), "network.base");
  if (const Json* field = j.find("field"))
    spec.deployment.field_side =
        require_positive(field->as_double(), "network.field");
  if (spec.sensors.empty()) throw WireError("network.sensors is empty");
  if (spec.depots.empty()) throw WireError("network.depots is empty");
  return spec;
}

CycleSpec parse_cycles(const Json& j) {
  CycleSpec spec;
  if (const Json* values = j.find("values")) {
    spec.inline_values = true;
    for (const Json& v : values->items()) {
      const double tau = v.as_double();
      if (!(tau > 0.0)) throw WireError("cycles.values must be > 0");
      spec.values.push_back(tau);
    }
    if (spec.values.empty()) throw WireError("cycles.values is empty");
    return spec;
  }
  const Json* model = j.find("model");
  if (model == nullptr) throw WireError("cycles needs \"values\" or \"model\"");
  if (const Json* dist = model->find("dist")) {
    const std::string& name = dist->as_string();
    if (name == "linear") {
      spec.model.distribution = wsn::CycleDistribution::kLinear;
    } else if (name == "random") {
      spec.model.distribution = wsn::CycleDistribution::kRandom;
    } else {
      throw WireError("cycles.model.dist must be \"linear\" or \"random\"");
    }
  }
  if (const Json* v = model->find("tau_min"))
    spec.model.tau_min = require_positive(v->as_double(), "tau_min");
  if (const Json* v = model->find("tau_max"))
    spec.model.tau_max = require_positive(v->as_double(), "tau_max");
  if (spec.model.tau_max < spec.model.tau_min)
    throw WireError("cycles.model.tau_max must be >= tau_min");
  if (const Json* v = model->find("sigma")) {
    spec.model.sigma = v->as_double();
    if (spec.model.sigma < 0.0) throw WireError("sigma must be >= 0");
  }
  if (const Json* v = model->find("seed"))
    spec.seed = static_cast<std::uint64_t>(v->as_int());
  return spec;
}

Json network_json(const NetworkSpec& spec) {
  Json j = Json::object();
  if (!spec.inline_points) {
    Json preset = Json::object();
    preset.set("n", Json(spec.deployment.n));
    preset.set("q", Json(spec.deployment.q));
    preset.set("field", Json(spec.deployment.field_side));
    preset.set("depot_at_base", Json(spec.deployment.depot_at_base_station));
    preset.set("seed", Json(static_cast<std::int64_t>(spec.seed)));
    j.set("preset", std::move(preset));
    return j;
  }
  const auto points_json = [](const std::vector<geom::Point>& points) {
    Json arr = Json::array();
    for (const auto& p : points) {
      Json pair = Json::array();
      pair.push_back(Json(p.x));
      pair.push_back(Json(p.y));
      arr.push_back(std::move(pair));
    }
    return arr;
  };
  j.set("sensors", points_json(spec.sensors));
  j.set("depots", points_json(spec.depots));
  Json base = Json::array();
  base.push_back(Json(spec.base_station.x));
  base.push_back(Json(spec.base_station.y));
  j.set("base", std::move(base));
  j.set("field", Json(spec.deployment.field_side));
  return j;
}

Json cycles_json(const CycleSpec& spec) {
  Json j = Json::object();
  if (spec.inline_values) {
    Json values = Json::array();
    for (double tau : spec.values) values.push_back(Json(tau));
    j.set("values", std::move(values));
    return j;
  }
  Json model = Json::object();
  model.set("dist",
            Json(spec.model.distribution == wsn::CycleDistribution::kLinear
                     ? "linear"
                     : "random"));
  model.set("tau_min", Json(spec.model.tau_min));
  model.set("tau_max", Json(spec.model.tau_max));
  model.set("sigma", Json(spec.model.sigma));
  model.set("seed", Json(static_cast<std::int64_t>(spec.seed)));
  j.set("model", std::move(model));
  return j;
}

/// Negotiates the request's wire version: missing "v" means v1 (the
/// pre-versioning schema), known names map to their version, anything
/// else is an UnsupportedVersionError so callers can answer with the
/// structured `unsupported_version` code.
WireVersion negotiate_version(const Json& doc) {
  const Json* version = doc.find("v");
  if (version == nullptr) return WireVersion::kV1;
  const std::string& name = version->as_string();
  if (name == kWireVersion) return WireVersion::kV1;
  if (name == kWireVersionV2) return WireVersion::kV2;
  throw UnsupportedVersionError("unsupported wire version \"" + name +
                                "\" (supported: " +
                                std::string(kWireVersion) + ", " +
                                std::string(kWireVersionV2) + ")");
}

std::uint64_t parse_fingerprint(const Json& j, const char* what) {
  const std::string& hex = j.as_string();
  try {
    return parse_fingerprint_hex(hex);
  } catch (const WireError&) {
    throw WireError(std::string(what) + " must be 1-16 hex digits");
  }
}

PatchOp parse_patch_op(const Json& j) {
  if (!j.is_object()) throw WireError("patch[i] must be an object");
  const std::string& name = j.at("op").as_string();
  PatchOp op;
  if (name == "add_sensor") {
    op.kind = PatchOpKind::kAddSensor;
    op.pos = parse_point(j.at("pos"), "patch.pos");
    op.tau = require_positive(j.at("tau").as_double(), "patch.tau");
  } else if (name == "remove_sensor") {
    op.kind = PatchOpKind::kRemoveSensor;
    op.target = static_cast<std::size_t>(j.at("sensor").as_int());
  } else if (name == "move_sensor") {
    op.kind = PatchOpKind::kMoveSensor;
    op.target = static_cast<std::size_t>(j.at("sensor").as_int());
    op.pos = parse_point(j.at("pos"), "patch.pos");
  } else if (name == "update_cycles") {
    op.kind = PatchOpKind::kUpdateCycles;
    op.target = static_cast<std::size_t>(j.at("sensor").as_int());
    op.tau = require_positive(j.at("tau").as_double(), "patch.tau");
  } else if (name == "charger_down") {
    op.kind = PatchOpKind::kChargerDown;
    op.target = static_cast<std::size_t>(j.at("charger").as_int());
  } else if (name == "charger_up") {
    op.kind = PatchOpKind::kChargerUp;
    op.target = static_cast<std::size_t>(j.at("charger").as_int());
  } else {
    throw WireError("unknown patch op \"" + name + "\"");
  }
  return op;
}

/// Optional "trace_id": any non-empty string up to kMaxTraceIdLength.
/// An explicitly empty string parses as absent (server generates).
std::string parse_trace_id(const Json& doc) {
  const Json* j = doc.find("trace_id");
  if (j == nullptr) return {};
  const std::string& id = j->as_string();
  if (id.size() > kMaxTraceIdLength)
    throw WireError("trace_id longer than 128 bytes");
  return id;
}

DeltaRequest parse_delta(const Json& doc) {
  DeltaRequest request;
  request.id = doc.at("id").as_string();
  if (request.id.empty()) throw WireError("id must be non-empty");
  request.trace_id = parse_trace_id(doc);
  request.base_fingerprint = parse_fingerprint(doc.at("base"), "base");
  const Json& patch = doc.at("patch");
  if (!patch.is_array()) throw WireError("patch must be an array");
  if (patch.size() == 0) throw WireError("patch is empty");
  for (const Json& op : patch.items())
    request.patch.push_back(parse_patch_op(op));
  if (const Json* deadline = doc.find("deadline_ms")) {
    request.deadline_ms = deadline->as_double();
    if (request.deadline_ms < 0.0)
      throw WireError("deadline_ms must be >= 0");
  }
  return request;
}

Request parse_full(const Json& doc, WireVersion version) {
  Request request;
  request.version = version;
  request.id = doc.at("id").as_string();
  if (request.id.empty()) throw WireError("id must be non-empty");
  request.trace_id = parse_trace_id(doc);
  if (const Json* policy = doc.find("policy"))
    request.policy = policy->as_string();
  request.network = parse_network(doc.at("network"));
  request.cycles = parse_cycles(doc.at("cycles"));
  if (const Json* horizon = doc.find("horizon"))
    request.horizon = require_positive(horizon->as_double(), "horizon");
  if (const Json* slot = doc.find("slot_length")) {
    request.slot_length = slot->as_double();
    if (request.slot_length < 0.0)
      throw WireError("slot_length must be >= 0 (0 freezes cycles)");
  }
  if (const Json* improve = doc.find("improve"))
    request.improve = improve->as_bool();
  if (const Json* deadline = doc.find("deadline_ms")) {
    request.deadline_ms = deadline->as_double();
    if (request.deadline_ms < 0.0)
      throw WireError("deadline_ms must be >= 0");
  }
  if (request.cycles.inline_values && !request.network.inline_points) {
    // Inline values must match a known sensor count; presets know it.
    if (request.cycles.values.size() != request.network.deployment.n)
      throw WireError("cycles.values size != network.preset.n");
  }
  if (request.cycles.inline_values && request.network.inline_points &&
      request.cycles.values.size() != request.network.sensors.size()) {
    throw WireError("cycles.values size != network.sensors size");
  }
  const double tau_min =
      request.cycles.inline_values
          ? *std::min_element(request.cycles.values.begin(),
                              request.cycles.values.end())
          : request.cycles.model.tau_min;
  if (request.horizon / tau_min > kMaxHorizonCycles)
    throw WireError("horizon must be <= " +
                    std::to_string(static_cast<long>(kMaxHorizonCycles)) +
                    " x the shortest cycle (tau_min)");
  if (request.slot_length > 0.0 &&
      request.horizon / request.slot_length > kMaxHorizonCycles)
    throw WireError("horizon must be <= " +
                    std::to_string(static_cast<long>(kMaxHorizonCycles)) +
                    " x slot_length");
  return request;
}

}  // namespace

const char* wire_version_name(WireVersion version) {
  return version == WireVersion::kV2 ? kWireVersionV2 : kWireVersion;
}

const char* patch_op_name(PatchOpKind kind) {
  switch (kind) {
    case PatchOpKind::kAddSensor: return "add_sensor";
    case PatchOpKind::kRemoveSensor: return "remove_sensor";
    case PatchOpKind::kMoveSensor: return "move_sensor";
    case PatchOpKind::kUpdateCycles: return "update_cycles";
    case PatchOpKind::kChargerDown: return "charger_down";
    case PatchOpKind::kChargerUp: return "charger_up";
  }
  return "add_sensor";
}

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownPolicy: return "unknown_policy";
    case ErrorCode::kQueueFull: return "queue_full";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kUnsupportedVersion: return "unsupported_version";
    case ErrorCode::kUnknownBase: return "unknown_base";
    case ErrorCode::kSessionsDisabled: return "sessions_disabled";
    case ErrorCode::kUnknownSession: return "unknown_session";
    case ErrorCode::kSessionLimit: return "session_limit";
  }
  return "internal";
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return std::string(buf);
}

std::uint64_t parse_fingerprint_hex(const std::string& hex) {
  if (hex.empty() || hex.size() > 16)
    throw WireError("fingerprint must be 1-16 hex digits");
  std::uint64_t value = 0;
  for (char c : hex) {
    value <<= 4;
    if (c >= '0' && c <= '9') value |= std::uint64_t(c - '0');
    else if (c >= 'a' && c <= 'f') value |= std::uint64_t(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') value |= std::uint64_t(c - 'A' + 10);
    else throw WireError("fingerprint must be hex");
  }
  return value;
}

bool is_stream_frame(const std::string& line) {
  // Probe for the "v":"mwc.svc.stream.v1" key/value pair rather than a
  // raw substring: a v1/v2 request whose id merely *contains* the
  // stream version string must still reach the solver. JSON escapes
  // every quote inside a string value, so this exact byte sequence can
  // only occur as a genuine "v" member.
  static const std::string value =
      '"' + std::string(kWireVersionStream) + '"';
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  std::size_t pos = 0;
  while ((pos = line.find("\"v\"", pos)) != std::string::npos) {
    std::size_t i = pos + 3;
    while (i < line.size() && is_space(line[i])) ++i;
    if (i < line.size() && line[i] == ':') {
      ++i;
      while (i < line.size() && is_space(line[i])) ++i;
      if (line.compare(i, value.size(), value) == 0) return true;
    }
    pos += 3;
  }
  return false;
}

std::string stream_frame_id(const std::string& line) {
  try {
    const Json doc = Json::parse(line);
    if (!doc.is_object()) return {};
    const Json* id = doc.find("id");
    if (id != nullptr && id->is_string() &&
        id->as_string().size() <= kMaxTraceIdLength)
      return id->as_string();
  } catch (const JsonError&) {
  }
  return {};
}

std::string stream_error_line(const std::string& id, ErrorCode code,
                              const std::string& message) {
  std::string out;
  out += "{\"v\":\"";
  out += kWireVersionStream;
  out += '"';
  if (!id.empty()) {
    out += ",\"id\":";
    append_json_escaped(out, id);
  }
  out += ",\"ok\":false,\"error\":\"";
  out += error_code_name(code);
  out += "\",\"message\":";
  append_json_escaped(out, message);
  out += "}\n";
  return out;
}

ParsedRequest parse_any_request(const std::string& line) {
  Json doc;
  WireVersion version = WireVersion::kV1;
  try {
    doc = Json::parse(line);
    if (!doc.is_object()) throw WireError("request must be a JSON object");
    version = negotiate_version(doc);
  } catch (const JsonError& e) {
    throw WireError(e.what());
  }
  // The line names a schema this server speaks: from here on an error
  // carries the request's id and version back to the client.
  try {
    ParsedRequest parsed;
    if (version == WireVersion::kV2 && doc.find("base") != nullptr) {
      parsed.is_delta = true;
      parsed.delta = parse_delta(doc);
      return parsed;
    }
    parsed.full = parse_full(doc, version);
    return parsed;
  } catch (const std::runtime_error& e) {  // WireError or JsonError
    WireError error(e.what());
    const Json* id = doc.find("id");
    if (id != nullptr && id->is_string()) error.id = id->as_string();
    error.version = version;
    throw error;
  }
}

Request parse_request(const std::string& line) {
  ParsedRequest parsed = parse_any_request(line);
  if (parsed.is_delta)
    throw WireError("delta request where a full request was expected");
  return std::move(parsed.full);
}

std::string to_json(const Request& request) {
  Json doc = Json::object();
  doc.set("v", Json(wire_version_name(request.version)));
  doc.set("id", Json(request.id));
  if (!request.trace_id.empty()) doc.set("trace_id", Json(request.trace_id));
  doc.set("policy", Json(request.policy));
  doc.set("network", network_json(request.network));
  doc.set("cycles", cycles_json(request.cycles));
  doc.set("horizon", Json(request.horizon));
  doc.set("slot_length", Json(request.slot_length));
  doc.set("improve", Json(request.improve));
  doc.set("deadline_ms", Json(request.deadline_ms));
  return doc.dump();
}

std::string to_json(const DeltaRequest& request) {
  Json doc = Json::object();
  doc.set("v", Json(kWireVersionV2));
  doc.set("id", Json(request.id));
  if (!request.trace_id.empty()) doc.set("trace_id", Json(request.trace_id));
  doc.set("base", Json(fingerprint_hex(request.base_fingerprint)));
  Json patch = Json::array();
  for (const PatchOp& op : request.patch) {
    Json oj = Json::object();
    oj.set("op", Json(patch_op_name(op.kind)));
    switch (op.kind) {
      case PatchOpKind::kAddSensor: {
        Json pos = Json::array();
        pos.push_back(Json(op.pos.x));
        pos.push_back(Json(op.pos.y));
        oj.set("pos", std::move(pos));
        oj.set("tau", Json(op.tau));
        break;
      }
      case PatchOpKind::kMoveSensor: {
        oj.set("sensor", Json(op.target));
        Json pos = Json::array();
        pos.push_back(Json(op.pos.x));
        pos.push_back(Json(op.pos.y));
        oj.set("pos", std::move(pos));
        break;
      }
      case PatchOpKind::kUpdateCycles:
        oj.set("sensor", Json(op.target));
        oj.set("tau", Json(op.tau));
        break;
      case PatchOpKind::kRemoveSensor:
        oj.set("sensor", Json(op.target));
        break;
      case PatchOpKind::kChargerDown:
      case PatchOpKind::kChargerUp:
        oj.set("charger", Json(op.target));
        break;
    }
    patch.push_back(std::move(oj));
  }
  doc.set("patch", std::move(patch));
  doc.set("deadline_ms", Json(request.deadline_ms));
  return doc.dump();
}

std::string to_jsonl(const Response& response) {
  // Responses are serialized once per request (serialize_ms on the
  // stage breakdown), so this appends straight into the output string
  // instead of building a Json tree — byte-identical to the tree form
  // (golden_v1_test pins the exact bytes; keys are escape-free literals
  // and values go through the shared append_json_* helpers). The plan
  // body is the one part that scales with n, and a sealed plan carries
  // it pre-rendered: the envelope is built here, the plan is one copy.
  std::string out;
  out.reserve(256 + (response.plan != nullptr ? response.plan->json.size()
                                              : 0));
  out += "{\"v\":\"";
  out += wire_version_name(response.version);
  out += "\",\"id\":";
  append_json_escaped(out, response.id);
  // Both trace fields are conditional so trace-less v1 responses stay
  // byte-identical to the pre-tracing wire format (golden_v1_test).
  if (!response.trace_id.empty()) {
    out += ",\"trace_id\":";
    append_json_escaped(out, response.trace_id);
  }
  out += response.ok ? ",\"ok\":true" : ",\"ok\":false";
  if (!response.ok) {
    out += ",\"error\":\"";
    out += error_code_name(response.error);
    out += "\",\"message\":";
    append_json_escaped(out, response.message);
  }
  out += response.cached ? ",\"cached\":true" : ",\"cached\":false";
  out += ",\"latency_ms\":";
  append_json_number(out, response.latency_ms);
  if (response.has_timings) {
    out += ",\"t\":{\"parse_ms\":";
    append_json_number(out, response.stages.parse_ms);
    out += ",\"queue_ms\":";
    append_json_number(out, response.stages.queue_ms);
    out += ",\"cache_ms\":";
    append_json_number(out, response.stages.cache_ms);
    out += ",\"solve_ms\":";
    append_json_number(out, response.stages.solve_ms);
    out += '}';
  }
  if (response.derived) {
    out += ",\"derived\":true,\"base\":\"";
    out += fingerprint_hex(response.base_fingerprint);
    out += '"';
  }
  if (response.ok && response.plan != nullptr) {
    out += ",\"plan\":";
    append_plan_json(out, *response.plan);
  }
  out += "}\n";
  return out;
}

namespace {

void render_plan_json(std::string& out, const Plan& plan) {
  out += "{\"first_round_tours\":[";
  bool first_tour = true;
  for (const auto& tour : plan.first_round_tours) {
    if (!first_tour) out += ',';
    first_tour = false;
    out += "{\"depot\":";
    append_json_number(out, static_cast<double>(tour.depot));
    out += ",\"sensors\":[";
    bool first_id = true;
    for (std::size_t id : tour.sensors) {
      if (!first_id) out += ',';
      first_id = false;
      append_json_number(out, static_cast<double>(id));
    }
    out += "],\"length\":";
    append_json_number(out, tour.length);
    out += '}';
  }
  out += "],\"first_round_length\":";
  append_json_number(out, plan.first_round_length);
  out += ",\"total_distance\":";
  append_json_number(out, plan.total_distance);
  out += ",\"num_dispatches\":";
  append_json_number(out, static_cast<double>(plan.num_dispatches));
  out += ",\"num_sensor_charges\":";
  append_json_number(out, static_cast<double>(plan.num_sensor_charges));
  out += ",\"dead_sensors\":";
  append_json_number(out, static_cast<double>(plan.dead_sensors));
  out += ",\"fingerprint\":\"";
  out += fingerprint_hex(plan.fingerprint);
  out += "\"}";
}

}  // namespace

void append_plan_json(std::string& out, const Plan& plan) {
  if (plan.json.empty()) {
    render_plan_json(out, plan);
  } else {
    out += plan.json;
  }
}

std::shared_ptr<const Plan> seal_plan(Plan plan) {
  plan.json.clear();
  render_plan_json(plan.json, plan);
  return std::make_shared<const Plan>(std::move(plan));
}

Response error_response(const std::string& id, ErrorCode code,
                        const std::string& message, double latency_ms) {
  Response response;
  response.id = id;
  response.ok = false;
  response.error = code;
  response.message = message;
  response.latency_ms = latency_ms;
  return response;
}

}  // namespace mwc::svc
