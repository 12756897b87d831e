// svc::NetServer — the scheduling service's only transport: one
// non-blocking epoll event loop whose connections are accepted TCP
// sockets and adopted descriptor pairs (mwcd's stdin/stdout) alike.
//
// Each connection has read/write buffers and JSONL pipelining: a client
// may write any number of requests back-to-back and always receives the
// responses in request order. Each inbound line takes a sequence number,
// and answers that complete early (solver workers finish out of order)
// park until every earlier one has flushed; admin requests and
// synchronous rejections (bad_request, queue_full, ...) take their slot
// too, so an error mid-pipeline never desyncs the stream. Lines are
// parsed after every read chunk, so the input guard bounds one
// unterminated line. Backpressure: while a connection owes more than
// half the buffer cap, its input is left unread, so a slow reader slows
// its writer down instead of growing the buffers.
//
// Requests flow through svc::Server::submit_line (admission control,
// deadlines, drain). Spec-memo cache hits are answered inside that call
// on the loop thread, straight into the line's slot; worker completions
// serialize on the worker and reach the loop through an eventfd wakeup.
//
// Shutdown: request_stop() (async-signal-safe) wakes the loop, which
// closes the listener, stops parsing input, flushes every response
// owed, closes all connections and returns from run(). A peer that stops
// reading cannot stall it: output still blocked after `drain_timeout_ms`
// is force-closed (`svc.net.drain_dropped`). Accepted sockets get
// TCP_NODELAY (pipelined exchanges must not wait on Nagle / delayed
// ACKs); idle accepted connections close after `idle_timeout_ms`.
//
// Streaming sessions (mwc.svc.stream.v1): with a StreamHub, lines
// carrying the stream version go to it instead of Server::submit_line.
// Its reply takes the frame's slot; the plan updates it pushes later
// carry no sequence number and are appended between in-order flushes, so
// they never reorder pipelined responses. Connections with a live
// session are never idle-reaped.
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

/// The listener always binds 127.0.0.1.
struct NetServerOptions {
  int port = 0;       ///< 0 = ephemeral; port() reports the bound port
  std::size_t max_connections = 1024;  ///< accepts beyond are closed
  double idle_timeout_ms = 0.0;        ///< 0 = never reap idle conns
  /// Per-connection buffer guard (one unparsed line, or owed output:
  /// responses parked for in-order release plus unflushed bytes); a
  /// connection exceeding it is closed. Past half of it in owed output,
  /// the connection's input is not read until the output drains.
  std::size_t max_buffered_bytes = 64 * 1024 * 1024;
  /// After request_stop(), connections whose owed output still cannot
  /// be flushed (peer stopped reading) are force-closed once this many
  /// ms have passed, so shutdown always terminates; connections waiting
  /// on a worker are not. 0 = wait forever.
  double drain_timeout_ms = 5000.0;
};

/// Monotonic transport counters (exact, usable under MWC_OBS=OFF);
/// `connections` is the one point-in-time gauge.
struct NetStats {
  std::uint64_t accepted = 0;  ///< connections opened (accept or adopt)
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

  /// Serves the pre-opened pair (`in_fd` read, `out_fd` written) as one
  /// connection labelled `peer` in access-log and tracez records. The
  /// caller's descriptors are neither changed nor closed: the connection
  /// works on private ones (a dup of a socket or regular file; a pipe,
  /// tty or /dev/null reopened non-blocking through /proc/self/fd) and
  /// closes those when it ends. Descriptors epoll refuses (regular
  /// files, /dev/null) count as always ready. Non-socket output uses
  /// write(), so the host must ignore SIGPIPE (a closed output then fails
  /// like a TCP write). Call before run(); false (with a perror line) on
  /// failure.
  bool adopt(int in_fd, int out_fd, std::string peer);

  /// The actually-bound port (after start(); useful with port 0).
  int port() const noexcept { return bound_port_; }

  /// Runs the event loop on the calling thread until request_stop(), or
  /// until no listener and no connection is left (an adopted pair alone:
  /// input EOF and every owed response flushed). When it returns, every
  /// connection is closed and every response owed to a client has been
  /// written or the peer is gone; the caller still runs
  /// Server::shutdown() for the drain of work admitted elsewhere.
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
  bool add_conn(std::shared_ptr<Conn> conn);
  void handle_conn_event(const std::shared_ptr<Conn>& conn,
                         std::uint32_t events);
  void read_input(const std::shared_ptr<Conn>& conn);
  /// Hands every complete line in `in` to process_line (its first
  /// `scanned` bytes are known newline-free); false when a buffer guard
  /// closed the connection.
  bool parse_lines(const std::shared_ptr<Conn>& conn, std::size_t scanned);
  void process_line(const std::shared_ptr<Conn>& conn, std::string line);
  /// Moves completed responses into the ordered output buffer and
  /// writes as much as the socket accepts; closes the connection when
  /// it is finished or broken, and queues a paused one on `resumed_`
  /// once its owed output is back under half the cap.
  void pump(const std::shared_ptr<Conn>& conn);
  /// Un-pauses a connection pump() queued: parses the lines it held
  /// back, then reads on.
  void resume_input(const std::shared_ptr<Conn>& conn);
  /// Enqueues one server-initiated line (thread-safe; see
  /// StreamHub::PushFn for the contract).
  bool push_line(const std::shared_ptr<Conn>& conn, std::string line);
  void watch_output(Conn& conn, bool on);
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
  const int wake_fd_;  ///< eventfd: worker wakeups and request_stop()
  int bound_port_ = 0;

  std::thread::id loop_thread_;  ///< run()'s thread: inline answers
  std::atomic<bool> stop_requested_{false};
  bool stopping_ = false;  ///< loop-thread view (begin_stop ran)
  std::chrono::steady_clock::time_point drain_deadline_{};
  std::atomic<bool> wake_pending_{false};

  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  ///< by input fd
  /// Connections whose input epoll refused: read every turn until EOF.
  std::vector<std::shared_ptr<Conn>> unpolled_;
  /// Paused connections whose owed output drained: resumed next turn.
  std::vector<std::shared_ptr<Conn>> resumed_;

  std::mutex completed_mutex_;
  std::vector<std::shared_ptr<Conn>> completed_;  ///< conns w/ new done

  // Stats (atomics: workers bump responses-side counters).
  std::atomic<std::uint64_t> accepted_{0}, closed_{0}, requests_{0},
      responses_{0}, bytes_read_{0}, bytes_written_{0}, wakeups_{0},
      idle_closed_{0}, overflow_closed_{0}, drain_dropped_{0}, pushes_{0},
      pushes_dropped_{0};
};

}  // namespace mwc::svc
