// Byte-identity goldens for the v1 wire protocol, captured from the
// pre-v2 service binary. The api_redesign contract: a v1 client sees
// responses byte-for-byte identical to what the seed served — same key
// order, same number formatting, same error text. Latency is the one
// nondeterministic field, so each test zeroes it before comparing.
#include <gtest/gtest.h>

#include <future>
#include <string>

#include "svc/engine.hpp"
#include "svc/server.hpp"
#include "svc/wire.hpp"

namespace mwc::svc {
namespace {

std::string serve(const std::string& line) {
  Response response = handle_request(parse_request(line), nullptr);
  response.latency_ms = 0.0;
  return to_jsonl(response);
}

TEST(GoldenV1, SolvedPresetResponseIsByteIdentical) {
  const std::string got = serve(
      R"({"v":"mwc.svc.v1","id":"g1",)"
      R"("network":{"preset":{"n":25,"q":2,"field":400,"seed":11}},)"
      R"("cycles":{"values":[5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,)"
      R"(5,5,5,5,5]},"horizon":120})");
  EXPECT_EQ(
      got,
      R"({"v":"mwc.svc.v1","id":"g1","ok":true,"cached":false,)"
      R"("latency_ms":0,"plan":{"first_round_tours":[{"depot":0,)"
      R"("sensors":[17,3,11,14,20,9,2,7,23,10,24,8,18,21,12,5,13,22,0],)"
      R"("length":1481.0445615993488},{"depot":1,)"
      R"("sensors":[19,1,6,15,16,4],"length":410.28973032833323}],)"
      R"("first_round_length":1891.334291927682,)"
      R"("total_distance":43500.688714336713,"num_dispatches":23,)"
      R"("num_sensor_charges":575,"dead_sensors":0,)"
      R"("fingerprint":"0c0f1095d4693a41"}})"
      "\n");
}

TEST(GoldenV1, ImprovedModelResponseIsByteIdentical) {
  const std::string got = serve(
      R"({"v":"mwc.svc.v1","id":"g3",)"
      R"("network":{"preset":{"n":10,"q":2,"field":300,"seed":3}},)"
      R"("cycles":{"model":{"dist":"random","tau_min":2,"tau_max":9,)"
      R"("seed":5}},"horizon":80,"improve":true})");
  EXPECT_EQ(
      got,
      R"({"v":"mwc.svc.v1","id":"g3","ok":true,"cached":false,)"
      R"("latency_ms":0,"plan":{"first_round_tours":[{"depot":0,)"
      R"("sensors":[7],"length":284.20359518357196},{"depot":1,)"
      R"("sensors":[2,5],"length":233.62568953977978}],)"
      R"("first_round_length":517.82928472335175,)"
      R"("total_distance":25077.433545319916,"num_dispatches":39,)"
      R"("num_sensor_charges":220,"dead_sensors":0,)"
      R"("fingerprint":"6eca9dd5584eace1"}})"
      "\n");
}

TEST(GoldenV1, ServerCacheHitIsByteIdentical) {
  // The repeat of the solved-preset request is answered from the spec
  // memo on the submitting thread, splicing the plan's stored bytes: the
  // client still sees the seed's bytes, with "cached":true.
  const std::string line =
      R"({"v":"mwc.svc.v1","id":"g1",)"
      R"("network":{"preset":{"n":25,"q":2,"field":400,"seed":11}},)"
      R"("cycles":{"values":[5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,)"
      R"(5,5,5,5,5]},"horizon":120})";
  ServerOptions options;
  options.threads = 1;
  Server server(options);
  std::promise<Response> solved;
  server.submit_line(line, [&](const Response& r) { solved.set_value(r); });
  ASSERT_TRUE(solved.get_future().get().ok);
  Response hit;
  ASSERT_TRUE(server.submit_line(line, [&](const Response& r) { hit = r; }));
  server.shutdown();
  hit.latency_ms = 0.0;
  EXPECT_EQ(
      to_jsonl(hit),
      R"({"v":"mwc.svc.v1","id":"g1","ok":true,"cached":true,)"
      R"("latency_ms":0,"plan":{"first_round_tours":[{"depot":0,)"
      R"("sensors":[17,3,11,14,20,9,2,7,23,10,24,8,18,21,12,5,13,22,0],)"
      R"("length":1481.0445615993488},{"depot":1,)"
      R"("sensors":[19,1,6,15,16,4],"length":410.28973032833323}],)"
      R"("first_round_length":1891.334291927682,)"
      R"("total_distance":43500.688714336713,"num_dispatches":23,)"
      R"("num_sensor_charges":575,"dead_sensors":0,)"
      R"("fingerprint":"0c0f1095d4693a41"}})"
      "\n");
}

TEST(GoldenV1, UnknownPolicyErrorIsByteIdentical) {
  const std::string got = serve(
      R"({"v":"mwc.svc.v1","id":"g2","policy":"NoSuchPolicy",)"
      R"("network":{"preset":{"n":5,"q":1}},"cycles":{"values":[1,1,1,1,1]}})");
  EXPECT_EQ(
      got,
      R"({"v":"mwc.svc.v1","id":"g2","ok":false,"error":"unknown_policy",)"
      R"("message":"unknown policy \"NoSuchPolicy\"; registered: Greedy, )"
      R"(MinTotalDistance, MinTotalDistance-var, PerSensorPeriodic, )"
      R"(PeriodicAll","cached":false,"latency_ms":0})"
      "\n");
}

TEST(GoldenV1, ClientTraceIdResponseIsByteIdentical) {
  // The one additive change on the v1 surface: a client that OPTS IN by
  // supplying trace_id gets it echoed (right after "id") plus the stage
  // breakdown "t" (after latency_ms). Stage timings are nondeterministic
  // like latency, so the serve() helper here zeroes them too.
  Response response = handle_request(
      parse_request(
          R"({"v":"mwc.svc.v1","id":"g1","trace_id":"golden-1",)"
          R"("network":{"preset":{"n":25,"q":2,"field":400,"seed":11}},)"
          R"("cycles":{"values":[5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,)"
          R"(5,5,5,5,5]},"horizon":120})"),
      nullptr);
  response.latency_ms = 0.0;
  response.stages = StageTimings{};
  response.has_timings = true;
  EXPECT_EQ(
      to_jsonl(response),
      R"({"v":"mwc.svc.v1","id":"g1","trace_id":"golden-1","ok":true,)"
      R"("cached":false,"latency_ms":0,"t":{"parse_ms":0,"queue_ms":0,)"
      R"("cache_ms":0,"solve_ms":0},"plan":{"first_round_tours":[{"depot":0,)"
      R"("sensors":[17,3,11,14,20,9,2,7,23,10,24,8,18,21,12,5,13,22,0],)"
      R"("length":1481.0445615993488},{"depot":1,)"
      R"("sensors":[19,1,6,15,16,4],"length":410.28973032833323}],)"
      R"("first_round_length":1891.334291927682,)"
      R"("total_distance":43500.688714336713,"num_dispatches":23,)"
      R"("num_sensor_charges":575,"dead_sensors":0,)"
      R"("fingerprint":"0c0f1095d4693a41"}})"
      "\n");
}

TEST(GoldenV1, NoClientTraceIdLeavesResponseUntouched) {
  // Without the opt-in, the solved-preset golden above must hold exactly:
  // no trace_id key, no "t" key, same bytes the seed served. (The
  // SolvedPresetResponseIsByteIdentical test pins the full bytes; this
  // one makes the invariant explicit against accidental echo.)
  const std::string got = serve(
      R"({"v":"mwc.svc.v1","id":"g1",)"
      R"("network":{"preset":{"n":25,"q":2,"field":400,"seed":11}},)"
      R"("cycles":{"values":[5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5,)"
      R"(5,5,5,5,5]},"horizon":120})");
  EXPECT_EQ(got.find("trace_id"), std::string::npos);
  EXPECT_EQ(got.find("\"t\":"), std::string::npos);
}

TEST(GoldenV1, ParseErrorIsByteIdentical) {
  std::string message;
  try {
    parse_request(R"({"bad json)");
    FAIL() << "malformed line must throw";
  } catch (const WireError& e) {
    message = e.what();
  }
  Response response = error_response("", ErrorCode::kBadRequest, message);
  EXPECT_EQ(to_jsonl(response),
            R"({"v":"mwc.svc.v1","id":"","ok":false,"error":"bad_request",)"
            R"("message":"json: unterminated string at offset 10",)"
            R"("cached":false,"latency_ms":0})"
            "\n");
}

}  // namespace
}  // namespace mwc::svc
