// svc::NetServer — non-blocking epoll transport for the scheduling
// service.
//
// One event-loop thread serves every TCP connection: edge-triggered
// epoll readiness, per-connection read/write buffers, and JSONL
// pipelining — a client may write any number of requests back-to-back on
// one socket and always receives the responses in request order, even
// though solver workers complete out of order (each inbound line takes a
// per-connection sequence number; completed responses park in a reorder
// map until every earlier line has been flushed). Admin requests and
// synchronous rejections (bad_request, queue_full, ...) join the same
// sequence stream, so an error mid-pipeline never desyncs it.
//
// Requests flow through svc::Server::submit_line, so admission control,
// deadlines, and drain semantics are identical to the stdio transport.
// Spec-memo cache hits are answered inside that call, on the loop
// thread: their bytes take the line's sequence slot directly and flush
// with the same read. Worker completions (misses, deltas) serialize the
// response on the worker and hand the bytes back to the loop through an
// eventfd wakeup.
//
// Shutdown is deterministic: request_stop() (async-signal-safe) wakes
// the loop, which closes the listener, stops parsing new input, flushes
// every response already owed, closes all connections, and returns from
// run() — no thread ever blocks in read() past the stop, and a peer
// that stops reading cannot stall the drain: connections whose owed
// output is still unflushed after `drain_timeout_ms` are force-closed
// (`svc.net.drain_dropped`). Accepted
// sockets get TCP_NODELAY so pipelined request/response exchanges are
// not serialized by Nagle / delayed ACKs. Idle connections (nothing
// owed, nothing buffered) close after `idle_timeout_ms`.
//
// Streaming sessions (mwc.svc.stream.v1): when constructed with a
// StreamHub, lines carrying the stream version string are routed to it
// instead of Server::submit_line. The hub answers synchronously on the
// loop thread (the reply joins the sequence stream at the frame's slot)
// and may later push server-initiated lines — plan updates — through
// the same ordered write path. Pushes carry no sequence number: they
// are appended to the output buffer between in-order flushes, so they
// interleave with pipelined responses without ever reordering them.
// Connections with a live session are exempt from idle reaping.
//
// Telemetry: `svc.net.*` counters/gauges on the global registry plus an
// exact local NetStats snapshot (stats()) that mwcd's statusz exposes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "svc/admin.hpp"
#include "svc/server.hpp"

namespace mwc::svc {

/// Session-layer seam: NetServer routes mwc.svc.stream.v1 frames to a
/// StreamHub (svc::SessionManager in production; fakes in tests)
/// instead of the request parser.
class StreamHub {
 public:
  /// Writes one server-initiated JSONL line (newline included) to the
  /// connection the hub received it from. Thread-safe; callable from
  /// worker threads. Returns false when the connection is gone (the
  /// line is dropped and counted in NetStats::pushes_dropped).
  using PushFn = std::function<bool(std::string)>;

  virtual ~StreamHub() = default;

  /// Handles one stream frame on the loop thread and returns the
  /// complete JSONL reply, which joins the connection's in-order
  /// response stream at the frame's sequence slot. `push` may be
  /// retained for the life of the connection. `*streaming` enters as
  /// the connection's current flag and must be left true while the
  /// connection holds any live session (exempts it from idle reaping
  /// and routes its close to drop_connection).
  virtual std::string handle_frame(std::uint64_t conn_token,
                                   const std::string& line, PushFn push,
                                   bool* streaming) = 0;

  /// The transport closed this connection: tear down its sessions.
  /// Runs on the loop thread.
  virtual void drop_connection(std::uint64_t conn_token) = 0;
};

struct NetServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;       ///< 0 = ephemeral; port() reports the bound port
  int backlog = 128;
  std::size_t max_connections = 1024;  ///< accepts beyond are closed
  double idle_timeout_ms = 0.0;        ///< 0 = never reap idle conns
  /// Per-connection buffer guard (unparsed input, or owed output:
  /// responses parked for in-order release plus unflushed bytes); a
  /// connection exceeding it is closed.
  std::size_t max_buffered_bytes = 64 * 1024 * 1024;
  bool tcp_nodelay = true;
  /// After request_stop(), connections whose owed output still cannot
  /// be flushed (peer stopped reading) are force-closed once this many
  /// ms have passed, so shutdown always terminates. 0 = wait forever.
  double drain_timeout_ms = 5000.0;
};

/// Monotonic transport counters (exact, usable under MWC_OBS=OFF);
/// `connections` is the one point-in-time gauge.
struct NetStats {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t connections = 0;  ///< currently open
  std::uint64_t requests = 0;     ///< inbound JSONL lines
  std::uint64_t responses = 0;    ///< response lines flushed to buffers
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t wakeups = 0;      ///< eventfd wakeups (worker -> loop)
  std::uint64_t idle_closed = 0;
  std::uint64_t overflow_closed = 0;  ///< buffer-guard / accept-cap closes
  std::uint64_t drain_dropped = 0;  ///< force-closed at the drain deadline
  std::uint64_t pushes = 0;          ///< server-initiated lines enqueued
  std::uint64_t pushes_dropped = 0;  ///< pushes to already-closed conns
};

class NetServer {
 public:
  /// `admin` may be null (no in-band introspection); `sessions` may be
  /// null (stream frames answered with the structured sessions_disabled
  /// error). All referents must outlive the NetServer.
  NetServer(Server& server, const AdminHandler* admin,
            NetServerOptions options = {}, StreamHub* sessions = nullptr);

  /// Drains the Server (so no worker callback can outlive the loop
  /// state) — safe also when run() never started.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds and listens; false (with a perror line) on failure.
  bool start();

  /// The actually-bound port (after start(); useful with port 0).
  int port() const noexcept { return bound_port_; }

  /// Runs the event loop on the calling thread until request_stop().
  /// Requires start(). When it returns, every connection is closed and
  /// every response owed to a client has been written or the peer is
  /// gone; the caller still runs Server::shutdown() for the drain of
  /// work admitted through other transports.
  void run();

  /// Stops the loop: no new connections, no new requests; in-flight
  /// work is answered and flushed, then run() returns. Async-signal-
  /// safe and callable from any thread.
  void request_stop() noexcept;

  NetStats stats() const;

 private:
  struct Conn;

  void wake() noexcept;
  void handle_accept();
  void handle_conn_event(const std::shared_ptr<Conn>& conn,
                         std::uint32_t events);
  void read_input(const std::shared_ptr<Conn>& conn);
  void process_line(const std::shared_ptr<Conn>& conn, std::string line);
  /// Moves completed responses into the ordered output buffer and
  /// writes as much as the socket accepts; closes the connection when
  /// it is finished or broken.
  void pump(const std::shared_ptr<Conn>& conn);
  /// Enqueues one server-initiated line (thread-safe; see
  /// StreamHub::PushFn for the contract).
  bool push_line(const std::shared_ptr<Conn>& conn, std::string line);
  void close_conn(const std::shared_ptr<Conn>& conn, const char* reason);
  /// close_conn for a connection past `max_buffered_bytes`, counted.
  void overflow_close(const std::shared_ptr<Conn>& conn, const char* reason);
  void drain_completions();
  void sweep_idle();
  void begin_stop();

  Server& server_;
  const AdminHandler* admin_;
  NetServerOptions options_;
  StreamHub* sessions_;
  std::uint64_t next_conn_token_ = 1;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  std::atomic<int> wake_fd_{-1};
  int bound_port_ = 0;

  std::thread::id loop_thread_;  ///< run()'s thread: inline answers
  std::atomic<bool> stop_requested_{false};
  bool stopping_ = false;  ///< loop-thread view (begin_stop ran)
  std::chrono::steady_clock::time_point drain_deadline_{};
  std::atomic<bool> wake_pending_{false};

  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  std::mutex completed_mutex_;
  std::vector<std::shared_ptr<Conn>> completed_;  ///< conns w/ new done

  // Stats (atomics: workers bump responses-side counters).
  std::atomic<std::uint64_t> accepted_{0}, closed_{0}, requests_{0},
      responses_{0}, bytes_read_{0}, bytes_written_{0}, wakeups_{0},
      idle_closed_{0}, overflow_closed_{0}, drain_dropped_{0}, pushes_{0},
      pushes_dropped_{0};
};

}  // namespace mwc::svc
