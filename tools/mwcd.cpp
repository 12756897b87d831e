// mwcd — the mwc::svc scheduling daemon.
//
// Speaks the mwc.svc.v1/v2 JSONL wire protocol (see docs/SERVICE.md),
// the mwc.svc.admin.v1 introspection family (docs/OBSERVABILITY.md) and,
// with --sessions, mwc.svc.stream.v1 sessions, through one transport:
// svc::NetServer serves stdin/stdout as a connection and, with --port N,
// TCP connections on 127.0.0.1:N — same framing, request order, guards,
// sessions and drain. Without --port the daemon exits after stdin EOF
// once every owed response is written. SIGPIPE is ignored, so a closed
// stdout ends only the stdio connection; SIGINT/SIGTERM stop the loop,
// flush what is owed, and drain.
//
// Every graceful exit, signals included, writes the --metrics-out /
// --trace-out sidecars and, with --cache-snapshot, rewrites the PlanCache
// snapshot loaded at startup (a missing or invalid file is ignored). An
// unknown flag, a stray argument, or a malformed or out-of-range value
// exits 2 before anything starts.
//
// Flags: the allow_only() list in main(), with each default and range
// beside it; docs/SERVICE.md ("mwcd — the daemon") describes them.
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>

#include <unistd.h>

#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "svc/access_log.hpp"
#include "svc/admin.hpp"
#include "svc/event_loop.hpp"
#include "svc/json.hpp"
#include "svc/server.hpp"
#include "svc/session.hpp"
#include "svc/snapshot.hpp"
#include "util/cli.hpp"

namespace {

using mwc::svc::AdminHandler;
using mwc::svc::NetServer;
using mwc::svc::NetServerOptions;
using mwc::svc::NetStats;
using mwc::svc::Server;
using mwc::svc::SessionManager;
using mwc::svc::SessionOptions;
using mwc::svc::StreamStats;

// The NetServer, set while it runs. SIGINT/SIGTERM call its async-signal-
// safe request_stop(); statusz (answered on the loop thread) reads its
// stats.
std::atomic<NetServer*> g_net_server{nullptr};

void stop_net_server(int) {
  NetServer* net = g_net_server.load(std::memory_order_relaxed);
  if (net != nullptr) net->request_stop();
}

/// Serves stdin/stdout, plus TCP when `options.port` > 0, until stopped
/// or, with no listener, until stdio is done; then drains the server.
int serve(Server& server, const AdminHandler& admin,
          const NetServerOptions& options, SessionManager* sessions) {
  NetServer net(server, &admin, options, sessions);
  const int port = options.port;
  if (port > 0 && !net.start()) return 1;
  if (!net.adopt(STDIN_FILENO, STDOUT_FILENO, "stdio") && port <= 0) return 1;
  if (port > 0)
    std::fprintf(stderr, "mwcd: listening on 127.0.0.1:%d (epoll)\n",
                 net.port());
  g_net_server.store(&net, std::memory_order_release);
  std::signal(SIGINT, stop_net_server);
  std::signal(SIGTERM, stop_net_server);
  net.run();
  g_net_server.store(nullptr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  mwc::CliArgs args(argc, argv);
  const double start_us = mwc::obs::now_us();
  constexpr double kMaxMs = 1e9;
  constexpr double kMaxTime = 1e12;  // the session wire bound on times
  args.allow_only({"queue-depth", "threads", "cache-capacity",
                   "cache-shards", "cache-snapshot", "port", "sessions",
                   "max-sessions", "session-gamma", "session-margin",
                   "session-speed", "session-charge-time",
                   "session-interval", "idle-timeout-ms", "drain-timeout-ms",
                   "max-conns", "metrics-out", "trace-out", "access-log",
                   "access-log-slow-ms"});

  mwc::svc::ServerOptions options;
  options.queue_capacity = static_cast<std::size_t>(
      args.get_int_or("queue-depth", 64, 1, 1 << 20));
  options.threads =
      static_cast<std::size_t>(args.get_int_or("threads", 0, 0, 1024));
  options.cache_capacity = static_cast<std::size_t>(
      args.get_int_or("cache-capacity", 128, 0, 1 << 24));
  options.cache_shards =
      static_cast<std::size_t>(args.get_int_or("cache-shards", 8, 1, 1024));
  const std::string metrics_path = args.get_or("metrics-out", "");
  const std::string trace_path = args.get_or("trace-out", "");
  const std::string access_log_path = args.get_or("access-log", "");
  const double access_log_slow_ms =
      args.get_double_or("access-log-slow-ms", 0.0, 0.0, kMaxMs);
  const std::string snapshot_path = args.get_or("cache-snapshot", "");
  const int port = static_cast<int>(args.get_int_or("port", 0, 1, 65535));
  NetServerOptions net_options;
  net_options.port = port;
  net_options.idle_timeout_ms =
      args.get_double_or("idle-timeout-ms", 0.0, 0.0, kMaxMs);
  net_options.drain_timeout_ms =
      args.get_double_or("drain-timeout-ms", 5000.0, 0.0, kMaxMs);
  net_options.max_connections = static_cast<std::size_t>(
      args.get_int_or("max-conns", 1024, 1, 1 << 20));
  const bool sessions_enabled = args.get_bool_or("sessions", false);
  SessionOptions session_options;
  session_options.max_sessions = static_cast<std::size_t>(
      args.get_int_or("max-sessions", 64, 1, 1 << 20));
  // Open ends: the closed range up to the next double inside.
  session_options.gamma =
      args.get_double_or("session-gamma", 0.3, std::nextafter(0.0, 1.0),
                         std::nextafter(1.0, 0.0));
  session_options.margin = args.get_double_or("session-margin", 0.1, 0.0,
                                              std::nextafter(1.0, 0.0));
  session_options.travel_speed = args.get_double_or(
      "session-speed", 1000.0, std::nextafter(0.0, 1.0), kMaxTime);
  session_options.charge_time =
      args.get_double_or("session-charge-time", 0.0, 0.0, kMaxTime);
  session_options.min_replan_interval =
      args.get_double_or("session-interval", 0.0, 0.0, kMaxTime);
  if (!args.error().empty()) {
    std::fprintf(stderr, "mwcd: %s\n", args.error().c_str());
    return 2;
  }
  // A closed stdout ends the stdio connection (EPIPE), not the process;
  // a background `mwcd --port N &` reading its terminal gets EIO.
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTTIN, SIG_IGN);
  if (!trace_path.empty()) mwc::obs::set_trace_enabled(true);

  std::unique_ptr<mwc::svc::AccessLog> access_log;
  if (!access_log_path.empty()) {
    access_log = std::make_unique<mwc::svc::AccessLog>(access_log_path,
                                                       access_log_slow_ms);
    if (!access_log->ok()) {
      std::fprintf(stderr, "mwcd: cannot open access log %s\n",
                   access_log_path.c_str());
      return 1;
    }
    options.access_log = access_log.get();
  }

  int rc;
  {
    Server server(options);
    // Declared after `server` so it is destroyed first (its destructor
    // drains the server, so no replan callback outlives the session
    // table); the NetServer dies before either.
    std::unique_ptr<SessionManager> sessions;
    if (sessions_enabled)
      sessions = std::make_unique<SessionManager>(server, session_options);

    if (!snapshot_path.empty() && options.cache_capacity > 0) {
      std::string error;
      const std::size_t restored =
          mwc::svc::load_cache_snapshot(server.cache(), snapshot_path,
                                        &error);
      if (!error.empty())
        std::fprintf(stderr, "mwcd: cache snapshot %s rejected: %s\n",
                     snapshot_path.c_str(), error.c_str());
      else if (restored > 0)
        std::fprintf(stderr, "mwcd: cache snapshot: restored %zu plans\n",
                     restored);
    }

    SessionManager* const sessions_ptr = sessions.get();
    mwc::svc::AdminInfo info;
    info.build = std::string("mwcd libmwc/1.0.0 (obs ") +
                 (MWC_OBS_ENABLED != 0 ? "on" : "off") + ")";
    info.transport = port > 0 ? "tcp" : "stdio";
    info.start_us = start_us;
    info.metrics_out = metrics_path;
    info.trace_out = trace_path;
    info.statusz_extra = [sessions_ptr](mwc::svc::Json& s) {
      NetServer* net = g_net_server.load(std::memory_order_acquire);
      if (net == nullptr) return;
      const NetStats st = net->stats();
      mwc::svc::Json n = mwc::svc::Json::object();
      n.set("connections", mwc::svc::Json(st.connections));
      n.set("accepted", mwc::svc::Json(st.accepted));
      n.set("closed", mwc::svc::Json(st.closed));
      n.set("requests", mwc::svc::Json(st.requests));
      n.set("responses", mwc::svc::Json(st.responses));
      n.set("bytes_read", mwc::svc::Json(st.bytes_read));
      n.set("bytes_written", mwc::svc::Json(st.bytes_written));
      n.set("wakeups", mwc::svc::Json(st.wakeups));
      n.set("idle_closed", mwc::svc::Json(st.idle_closed));
      n.set("overflow_closed", mwc::svc::Json(st.overflow_closed));
      n.set("drain_dropped", mwc::svc::Json(st.drain_dropped));
      n.set("pushes", mwc::svc::Json(st.pushes));
      n.set("pushes_dropped", mwc::svc::Json(st.pushes_dropped));
      s.set("net", std::move(n));
      SessionManager* hub = sessions_ptr;
      if (hub == nullptr) return;
      const StreamStats ss = hub->stats();
      mwc::svc::Json j = mwc::svc::Json::object();
      j.set("active", mwc::svc::Json(ss.active));
      j.set("opened", mwc::svc::Json(ss.opened));
      j.set("closed", mwc::svc::Json(ss.closed));
      j.set("observes", mwc::svc::Json(ss.observes));
      j.set("rejected", mwc::svc::Json(ss.rejected));
      j.set("replans", mwc::svc::Json(ss.replans));
      j.set("replan_failures", mwc::svc::Json(ss.replan_failures));
      j.set("pushes", mwc::svc::Json(ss.pushes));
      j.set("at_risk", mwc::svc::Json(ss.at_risk));
      j.set("deaths", mwc::svc::Json(ss.deaths));
      j.set("last_replan_ms", mwc::svc::Json(ss.last_replan_ms));
      s.set("sessions", std::move(j));
    };
    AdminHandler admin(server, info);
    rc = serve(server, admin, net_options, sessions.get());

    // Snapshot after the drain (cache fully settled) but while the
    // server is alive; sidecars below then record the save counters.
    if (!snapshot_path.empty() && options.cache_capacity > 0) {
      const long written =
          mwc::svc::save_cache_snapshot(server.cache(), snapshot_path);
      if (written < 0) {
        std::fprintf(stderr, "mwcd: cannot write cache snapshot %s\n",
                     snapshot_path.c_str());
        rc = rc == 0 ? 1 : rc;
      }
    }
  }

  // The log is asynchronous; tear it down before the sidecars so that
  // once metrics.json exists, every access-log line is on disk too.
  access_log.reset();

  if (!metrics_path.empty() &&
      !mwc::obs::Registry::global().write_json(metrics_path)) {
    std::fprintf(stderr, "mwcd: cannot write %s\n", metrics_path.c_str());
    rc = rc == 0 ? 1 : rc;
  }
  if (!trace_path.empty() && !mwc::obs::write_chrome_trace(trace_path)) {
    std::fprintf(stderr, "mwcd: cannot write %s\n", trace_path.c_str());
    rc = rc == 0 ? 1 : rc;
  }
  return rc;
}
