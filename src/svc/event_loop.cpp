#include "svc/event_loop.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/obs.hpp"
#include "svc/wire.hpp"

namespace mwc::svc {

namespace {
using SteadyClock = std::chrono::steady_clock;
constexpr std::uint32_t kInputEvents = EPOLLIN | EPOLLRDHUP | EPOLLET;

/// A descriptor for `fd`'s file that adopt() can drive non-blocking
/// without touching the caller's open file description, whose O_NONBLOCK
/// flag every process holding it shares (a terminal, a parent's pipe).
/// Sockets and regular files get a dup: sockets are driven with
/// MSG_DONTWAIT and regular files never block. Anything else (a pipe, a
/// tty, /dev/null) is reopened through /proc/self/fd as a private
/// O_NONBLOCK description. -1 on failure.
int private_fd(int fd, int access, bool* socket) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) return -1;
  *socket = S_ISSOCK(st.st_mode);
  if (*socket || S_ISREG(st.st_mode)) return ::fcntl(fd, F_DUPFD_CLOEXEC, 0);
  const std::string path = "/proc/self/fd/" + std::to_string(fd);
  const int fresh = ::open(path.c_str(), access | O_NONBLOCK | O_CLOEXEC);
  // ENXIO: a pipe whose reader is gone. Writes fail at once, never block.
  if (fresh < 0 && errno == ENXIO) return ::fcntl(fd, F_DUPFD_CLOEXEC, 0);
  return fresh;
}
}  // namespace

/// Per-connection state. The loop thread owns everything except `done`
/// and `closed`, which workers touch under `mutex`.
struct NetServer::Conn {
  int fd = -1;  ///< input descriptor; keys conns_ and every epoll event
  /// Output descriptor: == fd for an accepted socket, a second private
  /// descriptor for an adopted pair (which is never idle-reaped).
  int out_fd = -1;
  /// Use recv()/send() with MSG_DONTWAIT, else read()/write().
  bool in_socket = true, out_socket = true;
  bool polled = true;  ///< false: epoll refused `fd`; read every loop turn
  /// Input held back (remaining lines in `in`, the rest unread) while
  /// owed output is past half the buffer cap; pump() resumes it.
  bool paused = false;
  std::string peer = "tcp";  ///< access-log / tracez label
  std::uint64_t token = 0;  ///< stable id handed to the StreamHub
  std::string in;   ///< unparsed input tail
  std::string out;  ///< in-order response bytes awaiting the socket
  std::size_t out_pos = 0;  ///< flushed prefix of `out`
  /// Responses completed out of order, parked until every earlier
  /// sequence number has flushed.
  std::map<std::uint64_t, std::string> ready;
  std::size_t ready_bytes = 0;  ///< total size of the `ready` lines
  std::uint64_t next_seq = 0;    ///< sequence of the next inbound line
  std::uint64_t next_flush = 0;  ///< sequence owed to the client next
  bool half_closed = false;      ///< peer sent EOF; flush then close
  bool epollout = false;         ///< EPOLLOUT currently armed
  bool streaming = false;  ///< holds a live stream session (loop thread)
  SteadyClock::time_point last_activity;

  std::mutex mutex;
  bool closed = false;
  std::vector<std::pair<std::uint64_t, std::string>> done;
  /// Server-initiated lines (no sequence number); drained into `out`
  /// between in-order flushes.
  std::vector<std::string> pushed;

  void park(std::uint64_t seq, std::string line) {
    ready_bytes += line.size();
    ready.emplace(seq, std::move(line));
  }
  /// Bytes owed to the client: parked responses plus unflushed output.
  std::size_t owed_bytes() const {
    return ready_bytes + (out.size() - out_pos);
  }
  void close_fds() {
    if (out_fd != fd) ::close(out_fd);
    ::close(fd);
    fd = out_fd = -1;
  }
};

NetServer::NetServer(Server& server, const AdminHandler* admin,
                     NetServerOptions options, StreamHub* sessions)
    : server_(server),
      admin_(admin),
      options_(std::move(options)),
      sessions_(sessions),
      epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  // Level-triggered on purpose: an unread wake count must keep the loop
  // from blocking (request_stop can fire between drain and wait).
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (wake_fd_ < 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    std::perror("epoll_create1/eventfd");
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    epoll_fd_ = -1;  // start() and adopt() refuse
  }
}

NetServer::~NetServer() {
  // Drain the solver first: after shutdown() no worker callback can run,
  // so tearing down connection state below cannot race one.
  server_.shutdown();
  for (auto& [fd, conn] : conns_)
    if (conn->fd >= 0) conn->close_fds();
  conns_.clear();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool NetServer::start() {
  if (epoll_fd_ < 0) return false;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    std::perror("socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    std::perror("bind/listen");
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0)
    bound_port_ = ntohs(bound.sin_port);

  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    std::perror("epoll_ctl listen");
    return false;
  }
  return true;
}

bool NetServer::adopt(int in_fd, int out_fd, std::string peer) {
  if (epoll_fd_ < 0) return false;
  auto conn = std::make_shared<Conn>();
  conn->peer = std::move(peer);
  conn->fd = private_fd(in_fd, O_RDONLY, &conn->in_socket);
  conn->out_fd = private_fd(out_fd, O_WRONLY, &conn->out_socket);
  if (conn->fd < 0 || conn->out_fd < 0 || !add_conn(conn)) {
    std::perror("adopt");
    if (conn->fd >= 0) ::close(conn->fd);
    if (conn->out_fd >= 0) ::close(conn->out_fd);
    return false;
  }
  return true;
}

bool NetServer::add_conn(std::shared_ptr<Conn> conn) {
  epoll_event ev{};
  ev.events = kInputEvents;
  ev.data.fd = conn->fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &ev) < 0) {
    if (errno != EPERM) return false;
    conn->polled = false;  // regular file or /dev/null: always ready
    unpolled_.push_back(conn);
  }
  conn->token = next_conn_token_++;
  conn->last_activity = SteadyClock::now();
  conns_.emplace(conn->fd, std::move(conn));
  accepted_.fetch_add(1, std::memory_order_relaxed);
  MWC_OBS_COUNT("svc.net.accepted");
  MWC_OBS_GAUGE_SET("svc.net.connections",
                    static_cast<double>(conns_.size()));
  return true;
}

void NetServer::request_stop() noexcept {
  stop_requested_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t rc = ::write(wake_fd_, &one, sizeof one);
}

void NetServer::wake() noexcept {
  // Coalesce: one pending eventfd count is enough to get the loop
  // through drain_completions(), which picks up everything queued.
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) return;
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  MWC_OBS_COUNT("svc.net.wakeups");
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t rc = ::write(wake_fd_, &one, sizeof one);
}

void NetServer::handle_accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or listener gone
    }
    if (stopping_ || conns_.size() >= options_.max_connections) {
      ::close(fd);
      if (!stopping_) {
        overflow_closed_.fetch_add(1, std::memory_order_relaxed);
        MWC_OBS_COUNT("svc.net.overflow_closed");
      }
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->out_fd = fd;
    if (!add_conn(std::move(conn))) ::close(fd);
  }
}

void NetServer::process_line(const std::shared_ptr<Conn>& conn,
                             std::string line) {
  const std::uint64_t seq = conn->next_seq++;
  requests_.fetch_add(1, std::memory_order_relaxed);
  MWC_OBS_COUNT("svc.net.requests");

  // Stream-session frames answer synchronously on the loop thread (the
  // hub's reply takes the frame's sequence slot); servers without a hub
  // reject them with the structured error instead of letting the
  // version string hit parse_any_request as unsupported_version.
  if (is_stream_frame(line)) {
    std::string reply;
    if (sessions_ == nullptr) {
      reply = stream_error_line(stream_frame_id(line),
                                ErrorCode::kSessionsDisabled,
                                "server started without --sessions");
    } else {
      auto push = [this, conn](std::string pushed) {
        return push_line(conn, std::move(pushed));
      };
      bool streaming = conn->streaming;
      reply = sessions_->handle_frame(conn->token, line, std::move(push),
                                      &streaming);
      conn->streaming = streaming;
    }
    conn->park(seq, std::move(reply));
    return;
  }

  // Admin requests answer synchronously on the loop thread but join the
  // sequence stream so pipelined responses stay in request order.
  if (admin_ != nullptr) {
    std::string admin_response;
    if (admin_->try_handle(line, &admin_response)) {
      conn->park(seq, std::move(admin_response));
      return;
    }
  }

  // The callback runs inline for cache hits and synchronous rejections,
  // and on a solver worker otherwise. Inline answers park straight in
  // `ready` at their slot (the loop owns it, and read_input's pump
  // flushes it); worker answers serialize on the worker and reach the
  // loop through `done` and an eventfd wake. A connection that died
  // before a worker answered drops the response.
  auto callback = [this, conn, seq](const Response& response) {
    std::string out_line = to_jsonl(response);
    if (std::this_thread::get_id() == loop_thread_) {
      conn->park(seq, std::move(out_line));
      return;
    }
    bool enqueue = false;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      if (!conn->closed) {
        conn->done.emplace_back(seq, std::move(out_line));
        enqueue = true;
      }
    }
    if (enqueue) {
      {
        std::lock_guard<std::mutex> lock(completed_mutex_);
        completed_.push_back(conn);
      }
      wake();
    }
  };
  server_.submit_line(line, std::move(callback), conn->peer);
}

void NetServer::read_input(const std::shared_ptr<Conn>& conn) {
  // Edge-triggered: drain the descriptor completely, unless backpressure
  // pauses it (resume_input reads on without waiting for a new edge). One
  // epoll refused is read a chunk per loop turn instead (a large request
  // file must not starve the other connections).
  char buffer[65536];
  while (!conn->paused && !conn->half_closed) {
    const ssize_t got =
        conn->in_socket ? ::recv(conn->fd, buffer, sizeof buffer, MSG_DONTWAIT)
                        : ::read(conn->fd, buffer, sizeof buffer);
    if (got > 0) {
      bytes_read_.fetch_add(static_cast<std::uint64_t>(got),
                            std::memory_order_relaxed);
      MWC_OBS_COUNT_N("svc.net.bytes_read", static_cast<std::uint64_t>(got));
      const std::size_t scanned = conn->in.size();
      conn->in.append(buffer, static_cast<std::size_t>(got));
      conn->last_activity = SteadyClock::now();
      if (!parse_lines(conn, scanned)) return;
      if (!conn->polled) break;
      continue;
    }
    if (got == 0) {  // EOF ends a final unterminated line
      conn->half_closed = true;
      conn->in += '\n';
      if (!parse_lines(conn, conn->in.size() - 1)) return;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn(conn, "read error");
    return;
  }
  pump(conn);
}

bool NetServer::parse_lines(const std::shared_ptr<Conn>& conn,
                            std::size_t scanned) {
  std::size_t start = 0;
  for (;;) {
    // The first `scanned` bytes held no newline on the previous chunk.
    const std::size_t nl = conn->in.find('\n', std::max(start, scanned));
    if (nl == std::string::npos) break;
    std::string line = conn->in.substr(start, nl - start);
    start = nl + 1;
    while (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || stopping_) continue;  // stop: no new admissions
    process_line(conn, std::move(line));
    // Backpressure: inline answers park without a pump in between, and
    // may wait behind a slow earlier line. Past half the cap, hold the
    // remaining lines (and the unread input) until pump() has flushed
    // below it, so a slow reader slows the writer instead of tripping
    // the output guard.
    if (conn->owed_bytes() > options_.max_buffered_bytes / 2) {
      conn->paused = true;
      break;
    }
  }
  conn->in.erase(0, start);
  // Unless paused, what is left is one unterminated line.
  if (!conn->paused && conn->in.size() > options_.max_buffered_bytes) {
    overflow_close(conn, "input overflow");
    return false;
  }
  return true;
}

void NetServer::pump(const std::shared_ptr<Conn>& conn) {
  if (conn->fd < 0) return;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    for (auto& [seq, line] : conn->done)
      conn->park(seq, std::move(line));
    conn->done.clear();
  }
  // Release responses strictly in request order.
  auto it = conn->ready.begin();
  while (it != conn->ready.end() && it->first == conn->next_flush) {
    conn->out += it->second;
    conn->ready_bytes -= it->second.size();
    it = conn->ready.erase(it);
    ++conn->next_flush;
    responses_.fetch_add(1, std::memory_order_relaxed);
    MWC_OBS_COUNT("svc.net.responses");
  }
  // Server-initiated pushes carry no sequence number: they append after
  // whatever in-order prefix is flushable right now, so they interleave
  // with pipelined responses without perturbing their order (a push
  // never waits on a still-parked earlier response, and the
  // next_flush/next_seq close accounting never sees them).
  {
    std::vector<std::string> pushed;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      pushed.swap(conn->pushed);
    }
    for (std::string& line : pushed) conn->out += line;
  }
  if (conn->owed_bytes() > options_.max_buffered_bytes) {
    overflow_close(conn, "output overflow");
    return;
  }

  while (conn->out_pos < conn->out.size()) {
    const char* data = conn->out.data() + conn->out_pos;
    const std::size_t size = conn->out.size() - conn->out_pos;
    const ssize_t wrote =
        conn->out_socket
            ? ::send(conn->out_fd, data, size, MSG_NOSIGNAL | MSG_DONTWAIT)
            : ::write(conn->out_fd, data, size);
    if (wrote > 0) {
      bytes_written_.fetch_add(static_cast<std::uint64_t>(wrote),
                               std::memory_order_relaxed);
      MWC_OBS_COUNT_N("svc.net.bytes_written",
                      static_cast<std::uint64_t>(wrote));
      conn->out_pos += static_cast<std::size_t>(wrote);
      conn->last_activity = SteadyClock::now();
      continue;
    }
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      watch_output(*conn, true);
      break;
    }
    if (wrote < 0 && errno == EINTR) continue;
    close_conn(conn, "write error");
    return;
  }
  if (conn->out_pos == conn->out.size()) {
    conn->out.clear();
    conn->out_pos = 0;
    watch_output(*conn, false);
  } else if (conn->out_pos > (1u << 20)) {
    conn->out.erase(0, conn->out_pos);  // compact a long flushed prefix
    conn->out_pos = 0;
  }

  // Finished: every line answered and flushed, and no more input coming.
  if (((conn->half_closed && !conn->paused) || stopping_) &&
      conn->out_pos == conn->out.size() && conn->next_flush == conn->next_seq) {
    close_conn(conn, "done");
    return;
  }
  if (conn->paused && conn->owed_bytes() <= options_.max_buffered_bytes / 2)
    resumed_.push_back(conn);
}

void NetServer::resume_input(const std::shared_ptr<Conn>& conn) {
  // Queued more than once, or paused again since: check afresh.
  if (conn->fd < 0 || !conn->paused ||
      conn->owed_bytes() > options_.max_buffered_bytes / 2)
    return;
  conn->paused = false;
  // The lines held back first, then what the descriptor has (an edge
  // that arrived while paused was consumed without a read).
  if (parse_lines(conn, 0)) read_input(conn);
}

void NetServer::watch_output(Conn& conn, bool on) {
  // Output epoll refuses (regular file, /dev/null) never reports EAGAIN,
  // so it never gets here with `on`.
  if (conn.epollout == on) return;
  const bool shared = conn.out_fd == conn.fd;
  epoll_event ev{};
  ev.events = shared ? kInputEvents | (on ? EPOLLOUT : 0u) : EPOLLOUT | EPOLLET;
  ev.data.fd = conn.fd;  // events on either descriptor find the conn
  const int op = shared ? EPOLL_CTL_MOD : on ? EPOLL_CTL_ADD : EPOLL_CTL_DEL;
  if (::epoll_ctl(epoll_fd_, op, conn.out_fd, &ev) == 0) conn.epollout = on;
}

bool NetServer::push_line(const std::shared_ptr<Conn>& conn,
                          std::string line) {
  bool enqueue = false;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (!conn->closed) {
      conn->pushed.push_back(std::move(line));
      enqueue = true;
    }
  }
  if (!enqueue) {
    pushes_dropped_.fetch_add(1, std::memory_order_relaxed);
    MWC_OBS_COUNT("svc.net.pushes_dropped");
    return false;
  }
  pushes_.fetch_add(1, std::memory_order_relaxed);
  MWC_OBS_COUNT("svc.net.pushes");
  {
    std::lock_guard<std::mutex> lock(completed_mutex_);
    completed_.push_back(conn);
  }
  wake();
  return true;
}

void NetServer::overflow_close(const std::shared_ptr<Conn>& conn,
                               const char* reason) {
  overflow_closed_.fetch_add(1, std::memory_order_relaxed);
  MWC_OBS_COUNT("svc.net.overflow_closed");
  close_conn(conn, reason);
}

void NetServer::close_conn(const std::shared_ptr<Conn>& conn,
                           const char* /*reason*/) {
  if (conn->fd < 0) return;
  const int fd = conn->fd;
  // Explicit deletes: a descriptor sharing its open file description
  // with another (an adopted socket's dup) stays registered past close().
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  if (conn->epollout && conn->out_fd != fd)
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->out_fd, nullptr);
  conn->close_fds();
  if (!conn->polled)
    unpolled_.erase(std::find(unpolled_.begin(), unpolled_.end(), conn));
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->closed = true;
    conn->done.clear();
    conn->pushed.clear();
  }
  conn->ready.clear();
  conn->ready_bytes = 0;
  if (conn->streaming && sessions_ != nullptr) {
    conn->streaming = false;
    sessions_->drop_connection(conn->token);
  }
  conns_.erase(fd);
  closed_.fetch_add(1, std::memory_order_relaxed);
  MWC_OBS_COUNT("svc.net.closed");
  MWC_OBS_GAUGE_SET("svc.net.connections",
                    static_cast<double>(conns_.size()));
}

void NetServer::handle_conn_event(const std::shared_ptr<Conn>& conn,
                                  std::uint32_t events) {
  if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0) {
    read_input(conn);
    if (conn->fd < 0) return;
  }
  if ((events & EPOLLOUT) != 0) pump(conn);
}

void NetServer::drain_completions() {
  std::vector<std::shared_ptr<Conn>> batch;
  {
    std::lock_guard<std::mutex> lock(completed_mutex_);
    batch.swap(completed_);
  }
  for (const auto& conn : batch) pump(conn);
}

void NetServer::sweep_idle() {
  if (options_.idle_timeout_ms <= 0.0) return;
  const auto now = SteadyClock::now();
  std::vector<std::shared_ptr<Conn>> idle;
  for (const auto& [fd, conn] : conns_) {
    const double idle_ms =
        std::chrono::duration<double, std::milli>(now - conn->last_activity)
            .count();
    // Only reap quiet connections: nothing owed, nothing buffered —
    // a half-received request line in `in` counts as activity. A live
    // stream session is long-lived by design and never idle-reaped, nor
    // is an adopted pair (stdio; out_fd != fd).
    if (idle_ms > options_.idle_timeout_ms && !conn->streaming &&
        conn->out_fd == conn->fd && conn->in.empty() &&
        conn->next_flush == conn->next_seq &&
        conn->out_pos == conn->out.size())
      idle.push_back(conn);
  }
  for (const auto& conn : idle) {
    idle_closed_.fetch_add(1, std::memory_order_relaxed);
    MWC_OBS_COUNT("svc.net.idle_closed");
    close_conn(conn, "idle");
  }
}

void NetServer::begin_stop() {
  stopping_ = true;
  drain_deadline_ =
      SteadyClock::now() +
      std::chrono::duration_cast<SteadyClock::duration>(
          std::chrono::duration<double, std::milli>(options_.drain_timeout_ms));
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Unread input is dropped (a drain answers what was admitted, not what
  // is still in flight on the wire); connections owing nothing close now.
  std::vector<std::shared_ptr<Conn>> all;
  all.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) all.push_back(conn);
  for (const auto& conn : all) {
    conn->in.clear();
    pump(conn);
  }
}

void NetServer::run() {
  loop_thread_ = std::this_thread::get_id();
  std::vector<epoll_event> events(128);
  for (;;) {
    if (stop_requested_.load(std::memory_order_acquire) && !stopping_)
      begin_stop();
    if (stopping_ && options_.drain_timeout_ms > 0.0 &&
        SteadyClock::now() >= drain_deadline_) {
      // Drain deadline: a peer that stopped reading holds unflushable
      // output forever — force-close those so run() always returns. A
      // connection still waiting on a worker keeps its answer (the
      // server drain waits for that worker anyway).
      std::vector<std::shared_ptr<Conn>> stuck;
      for (const auto& [fd, conn] : conns_)
        if (conn->epollout) stuck.push_back(conn);
      for (const auto& conn : stuck) {
        drain_dropped_.fetch_add(1, std::memory_order_relaxed);
        MWC_OBS_COUNT("svc.net.drain_dropped");
        close_conn(conn, "drain timeout");
      }
    }
    if (listen_fd_ < 0 && conns_.empty()) break;

    int timeout = -1;
    if (options_.idle_timeout_ms > 0.0 && !conns_.empty())
      timeout = std::clamp(static_cast<int>(options_.idle_timeout_ms / 2),
                           10, 1000);
    if (stopping_ && options_.drain_timeout_ms > 0.0)
      timeout = timeout < 0 ? 50 : std::min(timeout, 50);
    // Input epoll refused is always ready: read it every turn to EOF. A
    // resumed connection may hold input no new edge will report.
    if (!resumed_.empty()) timeout = 0;
    for (const auto& conn : unpolled_)
      if (!conn->half_closed && !conn->paused && !stopping_) timeout = 0;
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained;
        while (::read(fd, &drained, sizeof drained) > 0) {
        }
        wake_pending_.store(false, std::memory_order_release);
      } else if (fd == listen_fd_ && listen_fd_ >= 0) {
        handle_accept();
      } else {
        const auto it = conns_.find(fd);
        if (it != conns_.end()) {
          // Copy out of the map: close_conn() inside the handler erases
          // this entry, which would destroy the shared_ptr a reference
          // to it->second still dereferences afterwards.
          const std::shared_ptr<Conn> conn = it->second;
          handle_conn_event(conn, events[static_cast<std::size_t>(i)].events);
        }
      }
    }
    if (!resumed_.empty()) {
      std::vector<std::shared_ptr<Conn>> batch;
      batch.swap(resumed_);  // pump() refills it
      for (const auto& conn : batch) resume_input(conn);
    }
    if (!unpolled_.empty()) {
      const auto batch = unpolled_;  // close_conn edits the list
      for (const auto& conn : batch)
        if (!conn->half_closed && !conn->paused && !stopping_)
          read_input(conn);
    }
    drain_completions();
    sweep_idle();
  }
}

NetStats NetServer::stats() const {
  NetStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.closed = closed_.load(std::memory_order_relaxed);
  s.connections = s.accepted - s.closed;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  s.wakeups = wakeups_.load(std::memory_order_relaxed);
  s.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  s.overflow_closed = overflow_closed_.load(std::memory_order_relaxed);
  s.drain_dropped = drain_dropped_.load(std::memory_order_relaxed);
  s.pushes = pushes_.load(std::memory_order_relaxed);
  s.pushes_dropped = pushes_dropped_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mwc::svc
