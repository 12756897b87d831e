#include "svc/wire.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "svc/json.hpp"

namespace mwc::svc {
namespace {

constexpr const char* kPresetRequest =
    R"({"v":"mwc.svc.v1","id":"r1","policy":"Greedy",)"
    R"("network":{"preset":{"n":40,"q":3,"field":500,"seed":9}},)"
    R"("cycles":{"model":{"dist":"random","tau_min":2,"tau_max":20,)"
    R"("sigma":1,"seed":4}},"horizon":250,"slot_length":10,)"
    R"("improve":true,"deadline_ms":750})";

TEST(Wire, ParsesPresetRequest) {
  const Request r = parse_request(kPresetRequest);
  EXPECT_EQ(r.id, "r1");
  EXPECT_EQ(r.policy, "Greedy");
  EXPECT_FALSE(r.network.inline_points);
  EXPECT_EQ(r.network.deployment.n, 40u);
  EXPECT_EQ(r.network.deployment.q, 3u);
  EXPECT_DOUBLE_EQ(r.network.deployment.field_side, 500.0);
  EXPECT_EQ(r.network.seed, 9u);
  EXPECT_FALSE(r.cycles.inline_values);
  EXPECT_EQ(r.cycles.model.distribution, wsn::CycleDistribution::kRandom);
  EXPECT_DOUBLE_EQ(r.cycles.model.tau_min, 2.0);
  EXPECT_DOUBLE_EQ(r.cycles.model.tau_max, 20.0);
  EXPECT_EQ(r.cycles.seed, 4u);
  EXPECT_DOUBLE_EQ(r.horizon, 250.0);
  EXPECT_DOUBLE_EQ(r.slot_length, 10.0);
  EXPECT_TRUE(r.improve);
  EXPECT_DOUBLE_EQ(r.deadline_ms, 750.0);
}

TEST(Wire, ParsesInlineRequestAndDefaults) {
  const Request r = parse_request(
      R"({"v":"mwc.svc.v1","id":"i1",)"
      R"("network":{"sensors":[[0,0],[10,0],[0,10]],)"
      R"("depots":[[5,5]],"base":[1,1]},)"
      R"("cycles":{"values":[3,4,5]}})");
  EXPECT_EQ(r.policy, "MinTotalDistance");  // default
  ASSERT_TRUE(r.network.inline_points);
  ASSERT_EQ(r.network.sensors.size(), 3u);
  EXPECT_DOUBLE_EQ(r.network.sensors[1].x, 10.0);
  ASSERT_EQ(r.network.depots.size(), 1u);
  EXPECT_DOUBLE_EQ(r.network.base_station.y, 1.0);
  ASSERT_TRUE(r.cycles.inline_values);
  EXPECT_EQ(r.cycles.values, (std::vector<double>{3, 4, 5}));
  EXPECT_DOUBLE_EQ(r.horizon, 1000.0);
  EXPECT_DOUBLE_EQ(r.deadline_ms, 0.0);
  EXPECT_FALSE(r.improve);
}

TEST(Wire, RequestRoundTripsThroughToJson) {
  const Request a = parse_request(kPresetRequest);
  const Request b = parse_request(to_json(a));
  EXPECT_EQ(to_json(a), to_json(b));
}

TEST(Wire, MissingVersionDefaultsToV1) {
  // Pre-versioning clients send no "v"; they must keep working.
  const Request r = parse_request(
      R"({"id":"x","network":{"preset":{"n":1,"q":1}},)"
      R"("cycles":{"values":[1]}})");
  EXPECT_EQ(r.version, WireVersion::kV1);
  // ... and the canonical serialization spells the default explicitly.
  EXPECT_NE(to_json(r).find("\"v\":\"mwc.svc.v1\""), std::string::npos);
}

TEST(Wire, V2FullRequestsParse) {
  const Request r = parse_request(
      R"({"v":"mwc.svc.v2","id":"x","network":{"preset":{"n":1,"q":1}},)"
      R"("cycles":{"values":[1]}})");
  EXPECT_EQ(r.version, WireVersion::kV2);
  EXPECT_NE(to_json(r).find("\"v\":\"mwc.svc.v2\""), std::string::npos);
}

TEST(Wire, UnknownVersionIsStructured) {
  const char* line =
      R"({"v":"mwc.svc.v99","id":"x","network":{"preset":{"n":1,"q":1}},)"
      R"("cycles":{"values":[1]}})";
  EXPECT_THROW(parse_request(line), UnsupportedVersionError);
  EXPECT_THROW(parse_any_request(line), UnsupportedVersionError);
}

TEST(Wire, RejectsBadRequests) {
  // Missing network/cycles.
  EXPECT_THROW(parse_request(R"({"id":"x"})"), WireError);
  // Malformed JSON.
  EXPECT_THROW(parse_request("{"), WireError);
  // Empty id.
  EXPECT_THROW(
      parse_request(
          R"({"v":"mwc.svc.v1","id":"","network":{"preset":{"n":1,"q":1}},)"
          R"("cycles":{"values":[1]}})"),
      WireError);
  // Inline cycle count mismatching the preset sensor count.
  EXPECT_THROW(
      parse_request(
          R"({"v":"mwc.svc.v1","id":"x","network":{"preset":{"n":3,"q":1}},)"
          R"("cycles":{"values":[1,2]}})"),
      WireError);
  // Non-positive cycles.
  EXPECT_THROW(
      parse_request(
          R"({"v":"mwc.svc.v1","id":"x","network":{"preset":{"n":1,"q":1}},)"
          R"("cycles":{"values":[0]}})"),
      WireError);
  // Missing network form.
  EXPECT_THROW(
      parse_request(
          R"({"v":"mwc.svc.v1","id":"x","network":{},"cycles":{"values":[1]}})"),
      WireError);
  // Negative deadline.
  EXPECT_THROW(
      parse_request(
          R"({"v":"mwc.svc.v1","id":"x","network":{"preset":{"n":1,"q":1}},)"
          R"("cycles":{"values":[1]},"deadline_ms":-1})"),
      WireError);
}

TEST(Wire, SlotCountIsBoundedLikeTheCycleCount) {
  // 10^9 cycle redraws for a ten-sensor network: refused, not simulated.
  const std::string tiny_slot =
      R"({"v":"mwc.svc.v2","id":"x","policy":"PeriodicAll",)"
      R"("network":{"preset":{"n":10,"q":1}},)"
      R"("cycles":{"model":{"tau_min":5,"tau_max":50}},)"
      R"("horizon":1000,"slot_length":1e-6})";
  try {
    parse_request(tiny_slot);
    ADD_FAILURE() << "a 10^9-slot horizon parsed";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("slot_length"), std::string::npos)
        << e.what();
  }

  // Exactly kMaxHorizonCycles slots (1000 / 0.01) is still accepted.
  const Request at_bound = parse_request(
      R"({"v":"mwc.svc.v2","id":"x","policy":"PeriodicAll",)"
      R"("network":{"preset":{"n":10,"q":1}},)"
      R"("cycles":{"model":{"tau_min":5,"tau_max":50}},)"
      R"("horizon":1000,"slot_length":0.01})");
  EXPECT_EQ(at_bound.horizon / at_bound.slot_length, kMaxHorizonCycles);
}

TEST(Wire, ParseErrorsCarryTheIdOnceTheSchemaIsKnown) {
  const auto error_of = [](const std::string& line) {
    try {
      parse_any_request(line);
    } catch (const WireError& e) {
      return e;
    }
    ADD_FAILURE() << "expected a WireError: " << line;
    return WireError("");
  };
  const WireError q0 = error_of(
      R"({"v":"mwc.svc.v2","id":"q0","network":{"preset":{"n":3,"q":0}},)"
      R"("cycles":{"values":[1,1,1]}})");
  EXPECT_EQ(q0.id, "q0");
  EXPECT_EQ(q0.version, WireVersion::kV2);
  EXPECT_NE(std::string(q0.what()).find("network.preset.q"),
            std::string::npos);
  EXPECT_EQ(error_of(R"({"id":"nc","network":{"preset":{"n":3,"q":1}}})").id,
            "nc");
  EXPECT_EQ(error_of(R"({"bad json)").id, "");
  EXPECT_EQ(error_of(R"(["id","x"])").id, "");
  EXPECT_EQ(error_of(R"({"id":5,"network":{}})").id, "");
}

TEST(Wire, ErrorResponseSerializesStructuredError) {
  const Response r =
      error_response("r9", ErrorCode::kQueueFull, "queue full (capacity 2)");
  const Json doc = Json::parse(to_jsonl(r));
  EXPECT_EQ(doc.at("v").as_string(), kWireVersion);
  EXPECT_EQ(doc.at("id").as_string(), "r9");
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error").as_string(), "queue_full");
  EXPECT_EQ(doc.at("message").as_string(), "queue full (capacity 2)");
  EXPECT_EQ(doc.find("plan"), nullptr);
}

TEST(Wire, OkResponseCarriesPlan) {
  auto plan = std::make_shared<Plan>();
  plan->first_round_tours.push_back(PlanTour{1, {4, 2, 7}, 123.5});
  plan->first_round_length = 123.5;
  plan->total_distance = 4567.0;
  plan->num_dispatches = 9;
  plan->fingerprint = 0xdeadbeefULL;
  Response r;
  r.id = "ok1";
  r.ok = true;
  r.cached = true;
  r.plan = plan;

  const std::string line = to_jsonl(r);
  EXPECT_EQ(line.back(), '\n');
  const Json doc = Json::parse(line);
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_TRUE(doc.at("cached").as_bool());
  const Json& pj = doc.at("plan");
  ASSERT_EQ(pj.at("first_round_tours").size(), 1u);
  const Json& tour = pj.at("first_round_tours").items()[0];
  EXPECT_EQ(tour.at("depot").as_int(), 1);
  ASSERT_EQ(tour.at("sensors").size(), 3u);
  EXPECT_EQ(tour.at("sensors").items()[2].as_int(), 7);
  EXPECT_DOUBLE_EQ(pj.at("total_distance").as_double(), 4567.0);
  EXPECT_EQ(pj.at("fingerprint").as_string(), "00000000deadbeef");
}

TEST(Wire, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::kBadRequest), "bad_request");
  EXPECT_STREQ(error_code_name(ErrorCode::kUnknownPolicy),
               "unknown_policy");
  EXPECT_STREQ(error_code_name(ErrorCode::kQueueFull), "queue_full");
  EXPECT_STREQ(error_code_name(ErrorCode::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(error_code_name(ErrorCode::kShuttingDown),
               "shutting_down");
  EXPECT_STREQ(error_code_name(ErrorCode::kInternal), "internal");
  EXPECT_STREQ(error_code_name(ErrorCode::kUnsupportedVersion),
               "unsupported_version");
  EXPECT_STREQ(error_code_name(ErrorCode::kUnknownBase), "unknown_base");
}

// v1 responses must stay byte-identical across the v2 redesign; this pins
// the exact serialization of a structured error (see also the pipeline
// goldens in golden_v1_test.cpp).
TEST(Wire, V1ErrorResponseBytesArePinned) {
  const Response r = error_response(
      "", ErrorCode::kBadRequest, "json: unterminated string at offset 10");
  EXPECT_EQ(to_jsonl(r),
            R"({"v":"mwc.svc.v1","id":"","ok":false,"error":"bad_request",)"
            R"("message":"json: unterminated string at offset 10",)"
            R"("cached":false,"latency_ms":0})"
            "\n");
}

TEST(Wire, TraceIdParsesOnFullAndDeltaRequests) {
  const Request full = parse_request(
      R"({"id":"r1","trace_id":"abc-123","network":{"preset":{"n":2,"q":1}},)"
      R"("cycles":{"values":[1,2]}})");
  EXPECT_EQ(full.trace_id, "abc-123");

  const ParsedRequest delta = parse_any_request(
      R"({"v":"mwc.svc.v2","id":"d1","trace_id":"abc-124",)"
      R"("base":"0c0f1095d4693a41",)"
      R"("patch":[{"op":"charger_down","charger":0}]})");
  ASSERT_TRUE(delta.is_delta);
  EXPECT_EQ(delta.delta.trace_id, "abc-124");

  // Absent trace_id stays empty (server generates one).
  const Request plain = parse_request(
      R"({"id":"r2","network":{"preset":{"n":2,"q":1}},)"
      R"("cycles":{"values":[1,2]}})");
  EXPECT_TRUE(plain.trace_id.empty());
}

TEST(Wire, TraceIdRoundTripsThroughBuilders) {
  RequestBuilder builder("r1");
  builder.policy("Greedy").preset(4, 1, 100.0, 3).cycle_values({1, 2, 3, 4});
  builder.trace_id("lg-0007");
  const Request parsed = parse_request(builder.to_json_line());
  EXPECT_EQ(parsed.trace_id, "lg-0007");

  DeltaBuilder delta("d1", 0x0c0f1095d4693a41ull);
  delta.move_sensor(0, {1.0, 2.0}).trace_id("lg-0008");
  const ParsedRequest dparsed = parse_any_request(delta.to_json_line());
  ASSERT_TRUE(dparsed.is_delta);
  EXPECT_EQ(dparsed.delta.trace_id, "lg-0008");
}

TEST(Wire, OversizedTraceIdIsRejected) {
  const std::string long_id(kMaxTraceIdLength + 1, 'x');
  EXPECT_THROW(parse_request(R"({"id":"r1","trace_id":")" + long_id +
                             R"(","network":{"preset":{"n":2,"q":1}},)" +
                             R"("cycles":{"values":[1,2]}})"),
               WireError);
  const std::string max_id(kMaxTraceIdLength, 'x');
  EXPECT_EQ(parse_request(R"({"id":"r1","trace_id":")" + max_id +
                          R"(","network":{"preset":{"n":2,"q":1}},)" +
                          R"("cycles":{"values":[1,2]}})")
                .trace_id,
            max_id);
}

TEST(Wire, ResponseEchoesTraceIdAndStageTimingsWhenSet) {
  Response r = error_response("r9", ErrorCode::kQueueFull, "queue full");
  r.trace_id = "abc-999";
  r.stages.parse_ms = 0.25;
  r.stages.queue_ms = 1.5;
  r.stages.cache_ms = 0.0;
  r.stages.solve_ms = 3.0;
  r.has_timings = true;
  const std::string line = to_jsonl(r);
  const Json doc = Json::parse(line);
  EXPECT_EQ(doc.at("trace_id").as_string(), "abc-999");
  const Json& t = doc.at("t");
  EXPECT_DOUBLE_EQ(t.at("parse_ms").as_double(), 0.25);
  EXPECT_DOUBLE_EQ(t.at("queue_ms").as_double(), 1.5);
  EXPECT_DOUBLE_EQ(t.at("cache_ms").as_double(), 0.0);
  EXPECT_DOUBLE_EQ(t.at("solve_ms").as_double(), 3.0);
  // serialize_ms is not part of the wire echo (it is measured around the
  // write itself); it lives in the access log and tracez instead.
  EXPECT_EQ(t.find("serialize_ms"), nullptr);
}

TEST(Wire, ResponseWithoutTraceIdOmitsTraceAndTimingKeys) {
  const Response r = error_response("r9", ErrorCode::kQueueFull, "full");
  const std::string line = to_jsonl(r);
  EXPECT_EQ(line.find("trace_id"), std::string::npos);
  EXPECT_EQ(line.find("\"t\":"), std::string::npos);
}

TEST(Wire, ParseAnyRequestDispatchesOnBaseKey) {
  // A v2 line WITHOUT "base" is still a full request.
  const ParsedRequest full = parse_any_request(
      R"({"v":"mwc.svc.v2","id":"f1","network":{"preset":{"n":2,"q":1}},)"
      R"("cycles":{"values":[1,2]}})");
  EXPECT_FALSE(full.is_delta);
  EXPECT_EQ(full.full.version, WireVersion::kV2);

  const ParsedRequest delta = parse_any_request(
      R"({"v":"mwc.svc.v2","id":"d1","base":"0c0f1095d4693a41",)"
      R"("patch":[{"op":"move_sensor","sensor":3,"pos":[120.5,80]},)"
      R"({"op":"add_sensor","pos":[40,60],"tau":5},)"
      R"({"op":"remove_sensor","sensor":7},)"
      R"({"op":"update_cycles","sensor":1,"tau":9.5},)"
      R"({"op":"charger_down","charger":2},)"
      R"({"op":"charger_up","charger":2}],"deadline_ms":250})");
  ASSERT_TRUE(delta.is_delta);
  const DeltaRequest& d = delta.delta;
  EXPECT_EQ(d.id, "d1");
  EXPECT_EQ(d.base_fingerprint, 0x0c0f1095d4693a41ULL);
  ASSERT_EQ(d.patch.size(), 6u);
  EXPECT_EQ(d.patch[0].kind, PatchOpKind::kMoveSensor);
  EXPECT_EQ(d.patch[0].target, 3u);
  EXPECT_DOUBLE_EQ(d.patch[0].pos.x, 120.5);
  EXPECT_EQ(d.patch[1].kind, PatchOpKind::kAddSensor);
  EXPECT_DOUBLE_EQ(d.patch[1].tau, 5.0);
  EXPECT_EQ(d.patch[2].kind, PatchOpKind::kRemoveSensor);
  EXPECT_EQ(d.patch[2].target, 7u);
  EXPECT_EQ(d.patch[3].kind, PatchOpKind::kUpdateCycles);
  EXPECT_DOUBLE_EQ(d.patch[3].tau, 9.5);
  EXPECT_EQ(d.patch[4].kind, PatchOpKind::kChargerDown);
  EXPECT_EQ(d.patch[5].kind, PatchOpKind::kChargerUp);
  EXPECT_DOUBLE_EQ(d.deadline_ms, 250.0);
}

TEST(Wire, DeltaRequestRoundTripsThroughToJson) {
  const DeltaRequest a = DeltaBuilder("d2", 0xdeadbeef01020304ULL)
                             .move_sensor(3, {120.5, 80.0})
                             .add_sensor({40.0, 60.0}, 5.0)
                             .remove_sensor(9)
                             .update_cycles(1, 2.25)
                             .charger_down(0)
                             .deadline_ms(125.0)
                             .build();
  const ParsedRequest parsed = parse_any_request(to_json(a));
  ASSERT_TRUE(parsed.is_delta);
  EXPECT_EQ(to_json(parsed.delta), to_json(a));
  EXPECT_EQ(parsed.delta.base_fingerprint, a.base_fingerprint);
  ASSERT_EQ(parsed.delta.patch.size(), 5u);
  EXPECT_EQ(parsed.delta.patch[2].kind, PatchOpKind::kRemoveSensor);
}

TEST(Wire, RejectsBadDeltaRequests) {
  // Empty patch.
  EXPECT_THROW(
      parse_any_request(
          R"({"v":"mwc.svc.v2","id":"d","base":"ab","patch":[]})"),
      WireError);
  // Bad fingerprint spelling.
  EXPECT_THROW(parse_any_request(
                   R"({"v":"mwc.svc.v2","id":"d","base":"xyz",)"
                   R"("patch":[{"op":"remove_sensor","sensor":0}]})"),
               WireError);
  // Unknown op.
  EXPECT_THROW(parse_any_request(
                   R"({"v":"mwc.svc.v2","id":"d","base":"ab",)"
                   R"("patch":[{"op":"teleport_sensor","sensor":0}]})"),
               WireError);
  // The delta form is v2-only: a v1 line with "base" is a full request
  // missing its network.
  EXPECT_THROW(parse_any_request(
                   R"({"v":"mwc.svc.v1","id":"d","base":"ab",)"
                   R"("patch":[{"op":"remove_sensor","sensor":0}]})"),
               WireError);
}

TEST(Wire, RequestBuilderMatchesHandRolledJson) {
  const Request built = RequestBuilder("r1")
                            .policy("Greedy")
                            .preset(40, 3, 500.0, /*seed=*/9)
                            .cycle_model(
                                [] {
                                  wsn::CycleModelConfig model;
                                  model.distribution =
                                      wsn::CycleDistribution::kRandom;
                                  model.tau_min = 2.0;
                                  model.tau_max = 20.0;
                                  model.sigma = 1.0;
                                  return model;
                                }(),
                                4)
                            .horizon(250)
                            .slot_length(10)
                            .improve(true)
                            .deadline_ms(750)
                            .build();
  EXPECT_EQ(to_json(built), to_json(parse_request(kPresetRequest)));
}

TEST(Wire, DerivedResponseCarriesBaseFingerprint) {
  auto plan = std::make_shared<Plan>();
  plan->fingerprint = 0x22ULL;
  Response r;
  r.id = "d1";
  r.version = WireVersion::kV2;
  r.ok = true;
  r.plan = plan;
  r.derived = true;
  r.base_fingerprint = 0x0c0f1095d4693a41ULL;

  const Json doc = Json::parse(to_jsonl(r));
  EXPECT_EQ(doc.at("v").as_string(), kWireVersionV2);
  EXPECT_TRUE(doc.at("derived").as_bool());
  EXPECT_EQ(doc.at("base").as_string(), "0c0f1095d4693a41");

  // Non-derived responses must not sprout the new keys (v1 byte layout).
  r.derived = false;
  r.base_fingerprint = 0;
  r.version = WireVersion::kV1;
  const Json v1doc = Json::parse(to_jsonl(r));
  EXPECT_EQ(v1doc.find("derived"), nullptr);
  EXPECT_EQ(v1doc.find("base"), nullptr);
}

TEST(Wire, IsStreamFrameMatchesVersionMemberNotSubstring) {
  // Genuine stream frames match regardless of key order or whitespace
  // around the colon.
  EXPECT_TRUE(is_stream_frame(
      R"({"v":"mwc.svc.stream.v1","op":"open","id":"x","base":"1"})"));
  EXPECT_TRUE(is_stream_frame(
      R"({"op":"observe","session":1,"v":"mwc.svc.stream.v1"})"));
  EXPECT_TRUE(is_stream_frame("{\"v\" : \"mwc.svc.stream.v1\"}"));

  // A v1/v2 request whose id (or any other string) merely contains the
  // stream version string is NOT a stream frame — it must reach the
  // solver instead of being misrouted to the session hub.
  EXPECT_FALSE(is_stream_frame(
      R"({"v":"mwc.svc.v1","id":"mwc.svc.stream.v1-canary",)"
      R"("network":{"preset":{"n":2,"q":1}}})"));
  EXPECT_FALSE(is_stream_frame(
      R"({"v":"mwc.svc.v2","id":"ask about mwc.svc.stream.v1"})"));
  EXPECT_FALSE(is_stream_frame(R"({"v":"mwc.svc.v1","id":"r1"})"));
  // A "v" key whose value is something else, plus a decoy string value
  // equal to "v", must not match either.
  EXPECT_FALSE(is_stream_frame(
      R"({"x":"v","id":"v","v":"mwc.svc.v2"})"));
}

}  // namespace
}  // namespace mwc::svc
