#include "svc/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/access_log.hpp"
#include "svc/json.hpp"
#include "svc/snapshot.hpp"

namespace mwc::svc {
namespace {

Request tiny_request(const std::string& id) {
  Request request;
  request.id = id;
  request.network.deployment.n = 12;
  request.network.deployment.q = 2;
  request.network.deployment.field_side = 100.0;
  request.network.seed = 5;
  request.horizon = 50.0;
  return request;
}

Response ok_response(const std::string& id) {
  Response response;
  response.id = id;
  response.ok = true;
  return response;
}

/// Handler whose requests block until release() — lets tests hold the
/// queue at a known occupancy.
class Gate {
 public:
  Handler handler() {
    return [this](const Request& request) {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      entered_cv_.notify_all();
      release_cv_.wait(lock, [this] { return released_; });
      return ok_response(request.id);
    };
  }

  void wait_entered(std::size_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ >= count; });
  }

  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  std::size_t entered_ = 0;
  bool released_ = false;
};

TEST(Server, FullQueueRejectsSynchronouslyWithStructuredError) {
  Gate gate;
  ServerOptions options;
  options.queue_capacity = 2;
  options.threads = 1;
  options.handler = gate.handler();
  Server server(options);

  std::mutex mutex;
  std::vector<Response> accepted_responses;
  const auto collect = [&](const Response& r) {
    std::lock_guard<std::mutex> lock(mutex);
    accepted_responses.push_back(r);
  };

  // Fill the queue: one solving (blocked in the gate), one waiting.
  ASSERT_TRUE(server.submit(tiny_request("a"), collect));
  ASSERT_TRUE(server.submit(tiny_request("b"), collect));
  gate.wait_entered(1);
  EXPECT_EQ(server.in_flight(), 2u);

  // Third submit must be rejected immediately — structured error, no
  // blocking, no crash.
  Response rejection;
  bool callback_ran = false;
  const bool admitted =
      server.submit(tiny_request("c"), [&](const Response& r) {
        rejection = r;
        callback_ran = true;
      });
  EXPECT_FALSE(admitted);
  ASSERT_TRUE(callback_ran);  // synchronous
  EXPECT_FALSE(rejection.ok);
  EXPECT_EQ(rejection.error, ErrorCode::kQueueFull);
  EXPECT_EQ(rejection.id, "c");
  EXPECT_NE(rejection.message.find("capacity 2"), std::string::npos);
  EXPECT_EQ(server.metrics().snapshot().counters.at(
                "svc.rejected.queue_full"),
            1u);

  gate.release();
  server.shutdown();
  EXPECT_EQ(accepted_responses.size(), 2u);
  for (const auto& r : accepted_responses) EXPECT_TRUE(r.ok);
}

TEST(Server, ShutdownDrainsAcceptedWorkThenRejects) {
  Gate gate;
  ServerOptions options;
  options.queue_capacity = 8;
  options.threads = 1;
  options.handler = gate.handler();
  Server server(options);

  std::atomic<int> answered{0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server.submit(tiny_request("d" + std::to_string(i)),
                              [&](const Response& r) {
                                EXPECT_TRUE(r.ok);
                                ++answered;
                              }));
  }
  gate.wait_entered(1);

  // Shut down from another thread while work is still gated; it must
  // block until all four accepted requests are answered.
  auto drained = std::async(std::launch::async, [&] { server.shutdown(); });
  EXPECT_EQ(drained.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  gate.release();
  drained.get();
  EXPECT_EQ(answered.load(), 4);
  EXPECT_EQ(server.in_flight(), 0u);

  // Post-shutdown submits are rejected synchronously.
  Response rejection;
  EXPECT_FALSE(server.submit(tiny_request("late"),
                             [&](const Response& r) { rejection = r; }));
  EXPECT_EQ(rejection.error, ErrorCode::kShuttingDown);
  const auto counters = server.metrics().snapshot().counters;
  EXPECT_EQ(counters.at("svc.requests_accepted"), 4u);
  EXPECT_EQ(counters.at("svc.completed"), 4u);
  EXPECT_EQ(counters.at("svc.rejected.shutdown"), 1u);
}

TEST(Server, ExpiredDeadlineSkipsSolving) {
  Gate gate;
  ServerOptions options;
  options.queue_capacity = 4;
  options.threads = 1;
  options.handler = gate.handler();
  Server server(options);

  // First request occupies the only worker...
  server.submit(tiny_request("blocker"), [](const Response&) {});
  gate.wait_entered(1);

  // ...so this one waits in the queue past its 1 ms deadline.
  Request hurried = tiny_request("hurried");
  hurried.deadline_ms = 1.0;
  std::promise<Response> answered;
  ASSERT_TRUE(server.submit(hurried, [&](const Response& r) {
    answered.set_value(r);
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.release();
  const Response response = answered.get_future().get();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, ErrorCode::kDeadlineExceeded);
  EXPECT_GE(response.latency_ms, 1.0);
  server.shutdown();
  EXPECT_EQ(server.metrics().snapshot().counters.at("svc.deadline_expired"),
            1u);
}

TEST(Server, SubmitLineParsesAndReportsBadLines) {
  ServerOptions options;
  options.threads = 1;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  Server server(options);

  Response bad;
  EXPECT_FALSE(server.submit_line("{not json", [&](const Response& r) {
    bad = r;
  }));
  EXPECT_EQ(bad.error, ErrorCode::kBadRequest);

  std::promise<Response> answered;
  EXPECT_TRUE(server.submit_line(
      R"({"v":"mwc.svc.v1","id":"L1","network":{"preset":{"n":5,"q":1}},)"
      R"("cycles":{"values":[1,1,1,1,1]}})",
      [&](const Response& r) { answered.set_value(r); }));
  EXPECT_TRUE(answered.get_future().get().ok);
  server.shutdown();
}

TEST(Server, UnknownVersionLineGetsStructuredError) {
  ServerOptions options;
  options.threads = 1;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  Server server(options);

  Response rejected;
  EXPECT_FALSE(server.submit_line(
      R"({"v":"mwc.svc.v99","id":"x","network":{"preset":{"n":1,"q":1}},)"
      R"("cycles":{"values":[1]}})",
      [&](const Response& r) { rejected = r; }));
  EXPECT_EQ(rejected.error, ErrorCode::kUnsupportedVersion);
  EXPECT_EQ(rejected.id, "");
  server.shutdown();
}

TEST(Server, DeltaRequestsFlowThroughSubmitAndSubmitLine) {
  ServerOptions options;
  options.threads = 1;
  options.queue_capacity = 8;
  options.cache_capacity = 8;
  Server server(options);

  std::promise<Response> solved;
  ASSERT_TRUE(server.submit(tiny_request("base"), [&](const Response& r) {
    solved.set_value(r);
  }));
  const Response base = solved.get_future().get();
  ASSERT_TRUE(base.ok) << base.message;

  // Typed delta submit.
  std::promise<Response> derived;
  ASSERT_TRUE(server.submit(DeltaBuilder("d1", base.plan->fingerprint)
                                .move_sensor(2, {10.0, 10.0})
                                .build(),
                            [&](const Response& r) {
                              derived.set_value(r);
                            }));
  const Response typed = derived.get_future().get();
  ASSERT_TRUE(typed.ok) << typed.message;
  EXPECT_TRUE(typed.derived);
  EXPECT_EQ(typed.base_fingerprint, base.plan->fingerprint);
  EXPECT_EQ(typed.version, WireVersion::kV2);

  // Same patch over the wire form: a derived-plan cache hit.
  std::promise<Response> again;
  ASSERT_TRUE(server.submit_line(DeltaBuilder("d2", base.plan->fingerprint)
                                     .move_sensor(2, {10.0, 10.0})
                                     .to_json_line(),
                                 [&](const Response& r) {
                                   again.set_value(r);
                                 }));
  const Response wire = again.get_future().get();
  ASSERT_TRUE(wire.ok) << wire.message;
  EXPECT_TRUE(wire.cached);
  EXPECT_EQ(wire.plan->fingerprint, typed.plan->fingerprint);

  // Unknown base comes back structured, with the fingerprint echoed.
  std::promise<Response> orphan;
  ASSERT_TRUE(server.submit(
      DeltaBuilder("d3", 0x1234).remove_sensor(0).build(),
      [&](const Response& r) { orphan.set_value(r); }));
  const Response unknown = orphan.get_future().get();
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.error, ErrorCode::kUnknownBase);
  EXPECT_EQ(unknown.base_fingerprint, 0x1234u);
  server.shutdown();
}

TEST(Server, LatencyHistogramObservesEveryCompletion) {
  ServerOptions options;
  options.threads = 2;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  Server server(options);
  std::atomic<int> answered{0};
  for (int i = 0; i < 10; ++i)
    server.submit(tiny_request("h" + std::to_string(i)),
                  [&](const Response&) { ++answered; });
  server.shutdown();
  EXPECT_EQ(answered.load(), 10);
  const auto snapshot = server.metrics().snapshot();
  const auto& hist = snapshot.histograms.at("svc.request_latency_ms");
  EXPECT_EQ(hist.count, 10u);
  EXPECT_GE(hist.quantile(0.99), hist.quantile(0.5));
}

TEST(Server, V1EchoesSuppliedTraceIdAndTimings) {
  ServerOptions options;
  options.threads = 1;
  Server server(options);

  // Client-supplied trace id: echoed verbatim with stage timings.
  std::promise<Response> traced;
  Request with_trace = tiny_request("t1");
  with_trace.trace_id = "client-abc";
  ASSERT_TRUE(server.submit(std::move(with_trace), [&](const Response& r) {
    traced.set_value(r);
  }));
  const Response echoed = traced.get_future().get();
  ASSERT_TRUE(echoed.ok) << echoed.message;
  EXPECT_EQ(echoed.trace_id, "client-abc");
  EXPECT_TRUE(echoed.has_timings);
  EXPECT_GT(echoed.stages.solve_ms, 0.0);

  // No client trace id on v1: the response omits it (byte-stability).
  std::promise<Response> plain;
  ASSERT_TRUE(server.submit(tiny_request("t2"), [&](const Response& r) {
    plain.set_value(r);
  }));
  const Response untraced = plain.get_future().get();
  ASSERT_TRUE(untraced.ok);
  EXPECT_TRUE(untraced.trace_id.empty());
  EXPECT_FALSE(untraced.has_timings);
  server.shutdown();
}

TEST(Server, V2ResponsesAlwaysCarryAGeneratedTraceId) {
  ServerOptions options;
  options.threads = 1;
  options.cache_capacity = 4;
  Server server(options);

  std::promise<Response> solved;
  ASSERT_TRUE(server.submit(tiny_request("base"), [&](const Response& r) {
    solved.set_value(r);
  }));
  const Response base = solved.get_future().get();
  ASSERT_TRUE(base.ok) << base.message;

  // v2 delta without a client trace id: the server generates a 16-hex
  // id and echoes it.
  std::promise<Response> derived;
  ASSERT_TRUE(server.submit(DeltaBuilder("d1", base.plan->fingerprint)
                                .move_sensor(1, {5.0, 5.0})
                                .build(),
                            [&](const Response& r) {
                              derived.set_value(r);
                            }));
  const Response v2 = derived.get_future().get();
  ASSERT_TRUE(v2.ok) << v2.message;
  ASSERT_EQ(v2.trace_id.size(), 16u);
  EXPECT_EQ(v2.trace_id.find_first_not_of("0123456789abcdef"),
            std::string::npos);
  EXPECT_TRUE(v2.has_timings);
  server.shutdown();
}

TEST(Server, RecentRequestRingKeepsNewestUpToCapacity) {
  ServerOptions options;
  options.threads = 1;
  options.recent_capacity = 4;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  Server server(options);
  for (int i = 0; i < 7; ++i) {
    std::promise<Response> answered;
    ASSERT_TRUE(server.submit(tiny_request("r" + std::to_string(i)),
                              [&](const Response& r) {
                                answered.set_value(r);
                              }));
    answered.get_future().get();
  }
  server.shutdown();
  const auto recent = server.recent_requests();
  ASSERT_EQ(recent.size(), 4u);
  // The four newest ids survive, the first three were overwritten.
  std::size_t newest = 0;
  for (const auto& record : recent) {
    EXPECT_NE(record.id, "r0");
    EXPECT_NE(record.id, "r1");
    EXPECT_NE(record.id, "r2");
    if (record.id == "r6") ++newest;
  }
  EXPECT_EQ(newest, 1u);
}

TEST(Server, EndToEndSolvesThroughDefaultEngineHandler) {
  ServerOptions options;
  options.threads = 2;
  options.queue_capacity = 16;
  options.cache_capacity = 8;
  Server server(options);

  std::vector<Response> responses;
  for (int i = 0; i < 3; ++i) {
    // Identical instances, submitted one at a time so the first solve
    // has deterministically populated the cache before the next probe.
    std::promise<Response> answered;
    ASSERT_TRUE(server.submit(tiny_request("e" + std::to_string(i)),
                              [&](const Response& r) {
                                answered.set_value(r);
                              }));
    responses.push_back(answered.get_future().get());
  }
  server.shutdown();
  ASSERT_EQ(responses.size(), 3u);
  std::size_t cached = 0;
  const Plan* plan = nullptr;
  for (const auto& r : responses) {
    ASSERT_TRUE(r.ok) << r.message;
    ASSERT_NE(r.plan, nullptr);
    if (plan == nullptr) plan = r.plan.get();
    EXPECT_DOUBLE_EQ(r.plan->total_distance, plan->total_distance);
    if (r.cached) ++cached;
  }
  EXPECT_EQ(server.cache().misses(), 1u);
  EXPECT_EQ(cached, 2u);
  EXPECT_EQ(server.cache().hits(), 2u);
}

/// A small preset request line (cycle model, so the solve is real).
std::string preset_line(const std::string& id,
                        WireVersion version = WireVersion::kV1,
                        const std::string& trace_id = "") {
  RequestBuilder builder(id);
  builder.version(version).preset(12, 2, 100.0, 5).horizon(50.0);
  if (!trace_id.empty()) builder.trace_id(trace_id);
  return builder.to_json_line();
}

/// Submits one line and waits for its answer, however it is delivered.
Response answer(Server& server, const std::string& line) {
  std::promise<Response> answered;
  server.submit_line(line,
                     [&](const Response& r) { answered.set_value(r); });
  return answered.get_future().get();
}

/// `response` serialized over an unsealed copy of its plan, so the plan
/// body is rendered field by field instead of copied from `plan.json`.
std::string rendered_bytes(Response response) {
  Plan copy = *response.plan;
  copy.json.clear();
  response.plan = std::make_shared<const Plan>(std::move(copy));
  return to_jsonl(response);
}

TEST(Server, SpecMemoHitsAnswerOnTheSubmittingThread) {
  ServerOptions options;
  options.threads = 1;
  Server server(options);
  const Response primed = answer(server, preset_line("p0"));
  ASSERT_TRUE(primed.ok) << primed.message;
  EXPECT_FALSE(primed.cached);

  bool answered = false;
  std::thread::id answered_on;
  Response hit;
  EXPECT_TRUE(server.submit_line(preset_line("h1"), [&](const Response& r) {
    answered = true;
    answered_on = std::this_thread::get_id();
    hit = r;
  }));
  // Answered before submit_line returned, on this thread.
  ASSERT_TRUE(answered);
  EXPECT_EQ(answered_on, std::this_thread::get_id());
  EXPECT_TRUE(hit.ok);
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.id, "h1");
  EXPECT_EQ(hit.plan, primed.plan);
  EXPECT_EQ(server.cache().hits(), 1u);
  EXPECT_EQ(server.cache().misses(), 1u);
  server.shutdown();
}

TEST(Server, InlineHitBookkeepingCountsEveryRequest) {
  const std::string log_path =
      ::testing::TempDir() + "mwc_server_inline_hits.jsonl";
  std::remove(log_path.c_str());
  AccessLog log(log_path);
  ASSERT_TRUE(log.ok());
  ServerOptions options;
  options.threads = 1;
  options.access_log = &log;
  options.recent_capacity = 64;
  Server server(options);

  constexpr std::size_t kHits = 20;
  ASSERT_TRUE(answer(server, preset_line("p0")).ok);
  for (std::size_t i = 0; i < kHits; ++i) {
    const Response hit = answer(server, preset_line("h" + std::to_string(i)));
    ASSERT_TRUE(hit.cached);
  }
  server.shutdown();
  log.flush();

  const std::uint64_t requests = kHits + 1;
  const auto snapshot = server.metrics().snapshot();
  EXPECT_EQ(snapshot.counters.at("svc.requests_accepted"), requests);
  EXPECT_EQ(snapshot.counters.at("svc.completed"), requests);
  EXPECT_EQ(snapshot.histograms.at("svc.request_latency_ms").count, requests);
  for (const char* stage : {"parse", "queue", "cache", "solve", "serialize"}) {
    const std::string name = std::string("svc.stage.") + stage + "_ms";
    EXPECT_EQ(snapshot.histograms.at(name).count, requests) << name;
    EXPECT_EQ(snapshot.histograms.at(name + ".v1.mintotaldistance").count,
              requests)
        << name;
  }
  EXPECT_EQ(log.lines_written(), requests);
  const auto recent = server.recent_requests();
  EXPECT_EQ(recent.size(), requests);
  std::size_t cached = 0;
  for (const auto& record : recent) cached += record.cached ? 1 : 0;
  EXPECT_EQ(cached, kHits);
  std::remove(log_path.c_str());
}

TEST(Server, InlineHitsAreRefusedOnceShutdownBegins) {
  ServerOptions options;
  options.threads = 1;
  Server server(options);
  ASSERT_TRUE(answer(server, preset_line("p0")).ok);
  server.shutdown();

  Response refused;
  EXPECT_FALSE(server.submit_line(preset_line("late"), [&](const Response& r) {
    refused = r;
  }));
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error, ErrorCode::kShuttingDown);
  EXPECT_EQ(refused.id, "late");
  EXPECT_EQ(server.cache().hits(), 0u);  // the memo was never probed
  EXPECT_EQ(server.metrics().snapshot().counters.at("svc.rejected.shutdown"),
            1u);
}

TEST(Server, TracedHitEchoesParseQueueAndCacheStages) {
  ServerOptions options;
  options.threads = 1;
  Server server(options);
  ASSERT_TRUE(answer(server, preset_line("p0")).ok);

  const Response hit =
      answer(server, preset_line("t1", WireVersion::kV1, "hit-trace"));
  ASSERT_TRUE(hit.cached);
  EXPECT_EQ(hit.trace_id, "hit-trace");
  ASSERT_TRUE(hit.has_timings);
  EXPECT_GT(hit.stages.parse_ms, 0.0);
  EXPECT_EQ(hit.stages.queue_ms, 0.0);
  EXPECT_GT(hit.stages.cache_ms, 0.0);
  EXPECT_EQ(hit.stages.solve_ms, 0.0);
  const Json doc = Json::parse(to_jsonl(hit));
  EXPECT_EQ(doc.at("t").at("queue_ms").as_double(), 0.0);
  EXPECT_GT(doc.at("t").at("parse_ms").as_double(), 0.0);
  EXPECT_GT(doc.at("t").at("cache_ms").as_double(), 0.0);
  server.shutdown();
}

TEST(Server, HitBytesEqualTheFieldByFieldRendering) {
  ServerOptions options;
  options.threads = 1;
  Server server(options);
  const Response primed = answer(server, preset_line("p0"));
  ASSERT_TRUE(primed.ok);
  ASSERT_FALSE(primed.plan->json.empty());  // sealed when solved
  EXPECT_EQ(to_jsonl(primed), rendered_bytes(primed));

  // v1 and v2, traced and untraced: one spec, so every line is a hit.
  for (const WireVersion version : {WireVersion::kV1, WireVersion::kV2}) {
    for (const std::string trace : {"", "bytes-trace"}) {
      const Response hit = answer(server, preset_line("h", version, trace));
      ASSERT_TRUE(hit.cached);
      EXPECT_EQ(hit.version, version);
      EXPECT_EQ(hit.has_timings, !trace.empty() || version == WireVersion::kV2);
      EXPECT_EQ(to_jsonl(hit), rendered_bytes(hit));
    }
  }
  server.shutdown();
}

TEST(Server, DerivedAndSnapshotRestoredHitBytesMatchTheRendering) {
  const std::string snapshot_path =
      ::testing::TempDir() + "mwc_server_hit_bytes.snap";
  ServerOptions options;
  options.threads = 1;
  {
    Server server(options);
    const Response base = answer(server, preset_line("base"));
    ASSERT_TRUE(base.ok);
    const std::string delta = DeltaBuilder("d", base.plan->fingerprint)
                                  .move_sensor(1, {5.0, 5.0})
                                  .to_json_line();
    const Response derived = answer(server, delta);
    ASSERT_TRUE(derived.derived) << derived.message;
    ASSERT_FALSE(derived.plan->json.empty());
    EXPECT_EQ(to_jsonl(derived), rendered_bytes(derived));
    const Response derived_hit = answer(server, delta);
    ASSERT_TRUE(derived_hit.cached);
    EXPECT_EQ(to_jsonl(derived_hit), rendered_bytes(derived_hit));
    server.shutdown();
    ASSERT_EQ(save_cache_snapshot(server.cache(), snapshot_path), 2);
  }

  Server restored(options);
  ASSERT_EQ(load_cache_snapshot(restored.cache(), snapshot_path), 2u);
  // The snapshot holds plans, not the spec memo: the first repeat
  // resolves on the pool and finds the plan, the second is a memo hit.
  for (const char* id : {"r1", "r2"}) {
    const Response hit = answer(restored, preset_line(id));
    ASSERT_TRUE(hit.cached) << id;
    ASSERT_FALSE(hit.plan->json.empty());
    EXPECT_EQ(to_jsonl(hit), rendered_bytes(hit)) << id;
  }
  restored.shutdown();
  std::remove(snapshot_path.c_str());
}

/// Submits a line the wire boundary must refuse: a structured
/// bad_request naming `field`, with the request id echoed. The server
/// then still serves a valid request.
void expect_refused(const std::string& line, const std::string& field) {
  ServerOptions options;
  options.threads = 1;
  Server server(options);
  Response refused;
  EXPECT_FALSE(server.submit_line(line, [&](const Response& r) {
    refused = r;
  }));
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error, ErrorCode::kBadRequest);
  EXPECT_NE(refused.message.find(field), std::string::npos) << refused.message;
  EXPECT_EQ(refused.id, "bad");
  EXPECT_TRUE(answer(server, preset_line("next")).ok);
  server.shutdown();
}

TEST(Server, HorizonBeyondTheCycleCapIsRefused) {
  expect_refused(
      R"({"id":"bad","network":{"preset":{"n":10,"q":1}},)"
      R"("cycles":{"values":[1,1,1,1,1,1,1,1,1,1]},"horizon":1e12})",
      "horizon");
}

TEST(Server, NegativePresetSizeIsRefused) {
  expect_refused(
      R"({"id":"bad","network":{"preset":{"n":-1,"q":1}},)"
      R"("cycles":{"model":{}}})",
      "network.preset.n");
}

TEST(Server, HugePresetSizeIsRefused) {
  expect_refused(
      R"({"id":"bad","network":{"preset":{"n":1e15,"q":1}},)"
      R"("cycles":{"model":{}}})",
      "network.preset.n");
}

TEST(Server, NegativeSlotLengthIsRefused) {
  expect_refused(
      R"({"id":"bad","network":{"preset":{"n":5,"q":1}},)"
      R"("cycles":{"values":[1,1,1,1,1]},"slot_length":-1})",
      "slot_length");
}

TEST(Server, ParseTimeErrorsEchoTheRequestId) {
  expect_refused(
      R"({"id":"bad","network":{"preset":{"n":5,"q":0}},)"
      R"("cycles":{"values":[1,1,1,1,1]}})",
      "network.preset.q");
  expect_refused(R"({"id":"bad","network":{"preset":{"n":5,"q":1}}})",
                 "cycles");

  // A v2 line echoes its version too; a line whose id is not a string
  // (or that never parsed) answers id "".
  ServerOptions options;
  options.threads = 1;
  Server server(options);
  Response v2;
  server.submit_line(
      R"({"v":"mwc.svc.v2","id":"v2bad","network":{"preset":{"n":0,"q":1}},)"
      R"("cycles":{"model":{}}})",
      [&](const Response& r) { v2 = r; });
  EXPECT_EQ(v2.id, "v2bad");
  EXPECT_EQ(v2.version, WireVersion::kV2);
  Response numeric;
  server.submit_line(R"({"id":7,"network":{"preset":{"n":5,"q":1}}})",
                     [&](const Response& r) { numeric = r; });
  EXPECT_EQ(numeric.error, ErrorCode::kBadRequest);
  EXPECT_EQ(numeric.id, "");
  server.shutdown();
}

}  // namespace
}  // namespace mwc::svc
