// svc::Server — bounded scheduling service over util::ThreadPool.
//
// Admission control: the pool's internal queue is unbounded, so the server
// bounds *in-flight* work (queued + running) itself — submit() past
// `queue_capacity` is rejected synchronously with a structured queue_full
// response and never blocks the producer. Accepted requests may carry a
// deadline; one still waiting when its deadline_ms expires is answered
// deadline_exceeded instead of solved. shutdown() stops admissions
// (shutting_down responses) and drains every request already accepted, so
// no callback is ever dropped.
//
// Warm hits never queue: a full request whose spec the PlanCache's spec
// memo knows (svc::spec_memo_hit) is answered on the submitting thread —
// for TCP, the event-loop thread — with queue_ms 0 and the same
// bookkeeping as a pool job (counters, latency and stage histograms,
// access log, tracez ring, in-flight count, shutdown refusal). Hits do
// not count against `queue_capacity`. Misses, deltas, and every request
// of a server with an injected `handler` go through the pool.
//
// Observability: every request gets a trace id (client-supplied or
// server-generated) that is echoed on the wire (always for v2; for v1
// only when the client supplied one, keeping pre-tracing v1 responses
// byte-identical), installed as an obs::TraceContext around the handler
// so solver spans carry the owning request id, and attached to a
// per-request stage breakdown (parse / queue wait / cache probe / solve /
// serialize). Completed requests land in a bounded ring of
// RequestRecords (served by the admin `tracez` endpoint) and, when
// `ServerOptions::access_log` is set, as one JSONL access-log line each.
//
// Telemetry lives on a per-server obs::Registry (exact even under
// MWC_OBS=OFF builds) and is mirrored onto the global registry:
// svc.requests_accepted, svc.completed, svc.rejected.queue_full,
// svc.rejected.shutdown, svc.deadline_expired, the
// svc.request_latency_ms histogram (admission -> completion), and the
// svc.stage.* stage histograms — both unkeyed (svc.stage.solve_ms) and
// keyed by wire version and lowercased policy
// (svc.stage.solve_ms.v1.mintotaldistance).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/registry.hpp"
#include "svc/access_log.hpp"
#include "svc/plan_cache.hpp"
#include "svc/wire.hpp"
#include "util/thread_pool.hpp"

namespace mwc::svc {

/// Invoked exactly once per submitted request, either synchronously (parse
/// error, rejection, cache hit) or from a worker thread (solved /
/// expired). May run concurrently with other callbacks; the callee
/// synchronizes its sink.
using ResponseCallback = std::function<void(const Response&)>;

/// Maps an admitted request to its response. The default (null) handler is
/// engine::handle_request against the server's PlanCache; tests inject
/// blocking or constant handlers to exercise queue and shutdown paths.
using Handler = std::function<Response(const Request&)>;

struct ServerOptions {
  /// Max in-flight requests (queued + solving); further submits are
  /// rejected with queue_full. Must be >= 1.
  std::size_t queue_capacity = 64;
  /// Worker threads; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// PlanCache capacity (plans retained); 0 disables caching.
  std::size_t cache_capacity = 128;
  /// PlanCache shard count (independently-locked LRUs; clamped to the
  /// capacity). More shards take the cache mutex off the warm path.
  std::size_t cache_shards = 8;
  /// Request handler override; null = solve via svc::handle_request.
  Handler handler;
  /// Structured access log; non-owning, may be null (no logging). Must
  /// outlive the server.
  AccessLog* access_log = nullptr;
  /// Completed-request records retained for the admin tracez endpoint;
  /// 0 disables the ring.
  std::size_t recent_capacity = 256;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});

  /// Drains accepted work (shutdown()) before joining the workers.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admits `request`. Returns true when accepted (the callback fires
  /// later from a worker, or has already fired when the request was a
  /// spec-memo cache hit); false when rejected, in which case the
  /// callback has already been invoked synchronously with a queue_full /
  /// shutting_down error. Never blocks. `peer` labels the transport in
  /// the access log and tracez ("stdio", "tcp", ...).
  bool submit(Request request, ResponseCallback callback,
              std::string peer = "local");

  /// Admits a v2 delta request — same backpressure, deadline, and drain
  /// semantics; served by svc::handle_delta against the server's cache.
  bool submit(DeltaRequest request, ResponseCallback callback,
              std::string peer = "local");

  /// Parses one wire line of either form (full or v2 delta) and submits
  /// it. Lines naming a version this server does not speak get the
  /// structured unsupported_version error with id "" (the schema is
  /// unknown, so no field is trusted). Other malformed lines are answered
  /// synchronously with bad_request, echoing the line's string "id" and
  /// version once the line parsed as an object in a known version, and
  /// id "" before that.
  bool submit_line(const std::string& line, ResponseCallback callback,
                   std::string peer = "local");

  /// Stops admissions and blocks until every accepted request has been
  /// answered, then joins the workers. Idempotent; also run by the
  /// destructor.
  void shutdown();

  /// Requests admitted but not yet answered.
  std::size_t in_flight() const;

  PlanCache& cache() noexcept { return cache_; }
  const PlanCache& cache() const noexcept { return cache_; }

  const ServerOptions& options() const noexcept { return options_; }

  /// Per-server telemetry (svc.* instruments); exact under MWC_OBS=OFF.
  const obs::Registry& metrics() const noexcept { return metrics_; }

  /// Copy of the completed-request ring (up to `recent_capacity`
  /// records, unordered). Feeds the admin tracez endpoint.
  std::vector<RequestRecord> recent_requests() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// One admitted request plus its request-scoped observability state.
  struct Job {
    ParsedRequest parsed;
    std::string peer;
    std::string trace_id;        ///< client-supplied or server-generated
    bool trace_supplied = false;
    StageTimings stages;
  };

  static constexpr std::size_t kStageCount = 5;  ///< parse..serialize

  /// One label's stage histograms (parse, queue, cache, solve,
  /// serialize), resolved once: in the per-server registry and, when
  /// telemetry is compiled in, the global one.
  struct StageHistograms {
    obs::Histogram* local[kStageCount] = {};
    obs::Histogram* global[kStageCount] = {};
  };

  Job make_job(ParsedRequest parsed, std::string peer, double parse_ms);
  /// Shared admission path for both request forms: a spec-memo hit is
  /// answered inline, everything else queues for the pool.
  bool admit(Job job, ResponseCallback callback);
  /// Answers a full request from the spec memo on the calling thread;
  /// false (nothing answered) on a miss, a delta, an injected handler,
  /// or once shutdown began.
  bool answer_hit(Job& job, const ResponseCallback& callback);
  Response process(Job& job, Clock::time_point admitted);
  void finish(const Job& job, Response response,
              const ResponseCallback& callback);
  void release_in_flight();
  StageHistograms make_stage_histograms(const std::string& suffix);
  /// The histograms keyed by (wire version, policy label).
  const StageHistograms& keyed_stages(WireVersion version,
                                      const std::string& policy);
  void record_stages(const Job& job, const Response& response);
  std::string generate_trace_id();

  ServerOptions options_;
  PlanCache cache_;
  obs::Registry metrics_;
  obs::Counter& accepted_;
  obs::Counter& completed_;
  obs::Counter& rejected_full_;
  obs::Counter& rejected_shutdown_;
  obs::Counter& expired_;
  obs::Histogram& latency_ms_;
  StageHistograms stage_totals_;  ///< unkeyed svc.stage.*_ms
  std::mutex keyed_stages_mutex_;
  std::unordered_map<std::string, StageHistograms> keyed_stages_;

  std::uint64_t trace_prefix_ = 0;  ///< random per-server id stream salt
  std::atomic<std::uint64_t> trace_seq_{0};

  mutable std::mutex recent_mutex_;
  std::vector<RequestRecord> recent_;  ///< ring; recent_head_ = next slot
  std::size_t recent_head_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable drained_cv_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::unique_ptr<ThreadPool> pool_;  ///< null once shutdown() joined it
};

}  // namespace mwc::svc
