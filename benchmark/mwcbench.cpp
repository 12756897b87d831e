// mwcbench — end-to-end benchmark of mwcd over TCP.
//
//   mwcbench --workload NAME --seed N --seconds S --trace 0|1
//            [--setups K] [--out FILE] [--commit SHA] [--dirty 0|1]
//
// One process, one thread, at most 4 connections. For each set-up it
// spawns a fresh `mwcd --port P`, waits for a statusz reply and primes
// the workload's cache (untimed); the last set-up then serves the
// measured window of S seconds:
//
//   cold_2k         closed loop, 2 conns, depth 1, fresh n=2000 instances
//   cold_10k        closed loop, 1 conn, depth 1, fresh n=10000 instances
//   warm_pipelined  closed loop, 4 conns x depth 32, hits on 32 primed
//                   n=800 instances
//   mixed_open      open loop, Poisson arrivals at 400 req/s round-robin
//                   over 4 conns: 88% warm hits, 10% v2 deltas on 2
//                   primed n=2000 bases, 2% fresh n=800 improve-on solves
//
// Closed-loop latency runs from the write of a request's batch to the
// read that completes its response line; open-loop latency runs from the
// request's due time. Every response is validated (in-order ids, plan
// geometry recomputed on the client's own instance, cached/derived
// flags, hit bytes identical to the primed plan); a failed check fails
// the run. With --trace 1 every request carries a trace id, mwcd echoes
// its stage times, and the in-process layer replay (layers.cpp) runs
// after the daemon stops.
//
// Output: a human-readable report on stderr, the full results document
// (environment header, every metric with its sample counts) in --out,
// and as the last stdout line the summary object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Exit status 0 iff every check passed.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "geom/simd.hpp"
#include "layers.hpp"
#include "obs/obs.hpp"
#include "svc/json.hpp"
#include "svc/wire.hpp"
#include "workload.hpp"

namespace {

namespace svc = mwc::svc;
using mwcbench::Kind;
using mwcbench::Workload;
using mwcbench::WorkloadSpec;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ms_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what);
}

// ---------------------------------------------------------------- mwcd --

/// The load generator keeps one CPU to itself and mwcd gets the others.
/// Sharing them lets busy mwcd workers delay the generator's wake-ups by
/// milliseconds: a timer sleeper on a 4-vCPU host overslept 2.9 ms at
/// p99 beside a cold_2k run, and 0.24 ms with mwcd kept off its CPU.
struct CpuSplit {
  cpu_set_t client;
  cpu_set_t server;
};

CpuSplit split_cpus() {
  CpuSplit split;
  if (::sched_getaffinity(0, sizeof split.client, &split.client) != 0)
    fail(std::string("sched_getaffinity: ") + std::strerror(errno));
  split.server = split.client;
  if (CPU_COUNT(&split.client) < 2) return split;  // nothing to split
  int last = CPU_SETSIZE - 1;
  while (!CPU_ISSET(last, &split.client)) --last;
  CPU_ZERO(&split.client);
  CPU_SET(last, &split.client);
  CPU_CLR(last, &split.server);
  return split;
}

std::string cpu_list(const cpu_set_t& set) {
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    if (!out.empty()) out += ',';
    out += std::to_string(c);
  }
  return out;
}

/// A spawned mwcd. The destructor kills and reaps it if stop() did not;
/// PR_SET_PDEATHSIG also kills it should this process die first.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& flags,
         const std::string& log_path, const cpu_set_t& cpus) {
    argv_ = {binary, "--port", std::to_string(free_port())};
    argv_.insert(argv_.end(), flags.begin(), flags.end());
    std::vector<char*> cargv;
    for (std::string& a : argv_) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) fail(std::string("fork: ") + std::strerror(errno));
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      if (::sched_setaffinity(0, sizeof cpus, &cpus) != 0) ::_exit(127);
      const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                             0644);
      if (log >= 0) {
        ::dup2(log, STDOUT_FILENO);
        ::dup2(log, STDERR_FILENO);
        ::close(log);
      }
      ::execv(cargv[0], cargv.data());
      ::_exit(127);
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::vector<std::string>& argv() const { return argv_; }
  int port() const { return std::stoi(argv_[2]); }

  /// True once the process has exited (reaped here).
  bool exited() {
    if (pid_ <= 0) return true;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return true;
    }
    return false;
  }

  /// VmHWM (peak resident set) in MiB, from /proc.
  double peak_rss_mib() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line))
      if (line.rfind("VmHWM:", 0) == 0)
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    fail("no VmHWM for mwcd");
  }

  /// SIGTERM, then wait for the graceful drain; SIGKILL after 10 s.
  /// True iff mwcd exited with status 0.
  bool stop() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const std::int64_t deadline = now_ns() + 10'000'000'000LL;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_ns() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  static int free_port() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
      fail(std::string("picking a port: ") + std::strerror(errno));
    ::close(fd);
    return ntohs(addr.sin_port);
  }

  std::vector<std::string> argv_;
  pid_t pid_ = -1;
};

// ---------------------------------------------------------- connections --

/// One request from its send to its response.
struct Request {
  std::size_t number = 0;     ///< order of issue; its wire id
  Kind kind = Kind::kHit;
  std::size_t index = 0;      ///< warm instance / cold number / delta number
  std::int64_t ref_ns = 0;    ///< batch write (closed) or due time (open)
  double latency_ms = 0.0;    ///< +inf when the request failed
};

struct Conn {
  int fd = -1;
  std::string in;
  std::string out;
  std::size_t out_pos = 0;
  std::deque<Request> waiting;  ///< sent, response not yet read

  explicit Conn(int fd_) : fd(fd_) {}
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Writes what the socket accepts now.
  void flush() {
    while (out_pos < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_pos, out.size() - out_pos,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        fail(std::string("send: ") + std::strerror(errno));
      }
      out_pos += static_cast<std::size_t>(n);
    }
    out.clear();
    out_pos = 0;
  }

  /// Reads what is available; appends every completed line (newline
  /// stripped) to `lines`. Throws when mwcd closed the connection.
  void read_lines(std::vector<std::string>& lines) {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n > 0) {
        in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) fail("mwcd closed a connection");
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      fail(std::string("read: ") + std::strerror(errno));
    }
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = in.find('\n', start);
      if (nl == std::string::npos) break;
      lines.emplace_back(in, start, nl - start);
      start = nl + 1;
    }
    in.erase(0, start);
  }
};

int connect_once(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Waits (up to `timeout_ms`) until every connection has answered all it
/// owes; returns the answered lines per connection in order.
std::vector<std::vector<std::string>> await_all(
    std::vector<std::unique_ptr<Conn>>& conns, double timeout_ms) {
  std::vector<std::vector<std::string>> got(conns.size());
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_ms * 1e6);
  for (;;) {
    std::vector<pollfd> fds;
    bool pending = false;
    for (auto& c : conns) {
      c->flush();
      pending = pending || !c->waiting.empty();
      fds.push_back({c->fd,
                     static_cast<short>(POLLIN | (c->out.empty() ? 0 : POLLOUT)),
                     0});
    }
    if (!pending) return got;
    if (now_ns() > deadline) fail("timed out waiting for mwcd");
    if (::poll(fds.data(), fds.size(), 100) < 0 && errno != EINTR)
      fail(std::string("poll: ") + std::strerror(errno));
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      std::vector<std::string> lines;
      conns[i]->read_lines(lines);
      for (std::string& line : lines) {
        if (conns[i]->waiting.empty()) fail("unsolicited line from mwcd");
        conns[i]->waiting.pop_front();
        got[i].push_back(std::move(line));
      }
    }
  }
}

/// One admin request on the first connection, answered synchronously;
/// the other connections must be idle. `*bytes` gets the reply's size.
svc::Json admin(std::vector<std::unique_ptr<Conn>>& conns,
                const std::string& command, std::size_t* bytes = nullptr) {
  conns[0]->out += "{\"admin\":\"" + command + "\",\"id\":\"a\"}\n";
  conns[0]->waiting.emplace_back();
  for (std::size_t i = 1; i < conns.size(); ++i)
    if (!conns[i]->waiting.empty()) fail("admin call with requests in flight");
  const auto got = await_all(conns, 30'000.0);
  if (bytes != nullptr) *bytes = got[0].at(0).size() + 1;
  svc::Json doc = svc::Json::parse(got[0].at(0));
  if (!doc.at("ok").as_bool()) fail("admin " + command + " failed");
  return doc.at(command);
}

// ------------------------------------------------------------ the run --

struct Options {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t setups = 3;
  std::string out;
  std::string commit = "unknown";
  bool dirty = false;
  CpuSplit cpus{};
};

/// What priming leaves behind for validation of the measured window.
struct Primed {
  std::vector<std::string> warm_plan;     ///< exact plan bytes per instance
  std::vector<mwcbench::PlanLengths> warm_lengths;  ///< per instance
  std::vector<mwcbench::Geometry> base_geometry;
  std::vector<std::uint64_t> base_fp;
};

/// One benchmark run: set-ups, the measured window, and what it observed.
struct Run {
  explicit Run(const Options& options) : o_(options), spec_(*options.spec) {}

  void setup(std::vector<double>& setup_s);
  void measure();
  void finish();
  void invalid(const std::string& what);

  const Options& o_;
  const WorkloadSpec& spec_;
  std::unique_ptr<Daemon> daemon_;
  std::vector<std::unique_ptr<Conn>> conns_;
  Primed primed_;

  // Hit and delta lines are templates built before the window; cold
  // lines are serialized as they are sent.
  std::vector<mwcbench::LineTemplate> warm_lines_;
  std::vector<mwcbench::Arrival> schedule_;  ///< mixed_open only
  std::vector<std::vector<svc::PatchOp>> patches_;  ///< per delta
  std::vector<mwcbench::LineTemplate> delta_lines_;

  std::size_t attempted_ = 0;
  std::int64_t window_start_ = 0, window_end_ = 0;
  /// Ok cold and delta responses whose plan geometry is checked after the
  /// window, so the check never delays a send.
  std::vector<std::pair<Request, std::string>> deferred_;

  // Results.
  std::size_t failed_ = 0;
  std::vector<std::string> errors_;  ///< first few validation failures
  std::size_t invalid_ = 0;
  std::vector<double> all_ms_, hit_ms_, delta_ms_, cold_ms_, lag_ms_;
  std::size_t ok_ = 0, slo_met_ = 0, hits_cached_ = 0, hits_ = 0;
  mwcbench::PlanLengths length_sum_;  ///< over ok plans
  std::vector<double> parse_ms_, queue_ms_, cache_ms_, solve_ms_, other_ms_;
  double peak_rss_mib_ = 0.0;
  std::vector<std::string> mwcd_argv_;
  svc::Json stats_before_, stats_after_, metrics_before_, metrics_after_;
  std::size_t admin_bytes_between_ = 0;

  void spawn();
  /// Primed request p: warm instance p for p < warm_primes(), then the
  /// delta bases.
  std::size_t warm_primes() const;
  std::vector<svc::Request> primes() const;
  /// Sends the priming requests and returns their response lines.
  std::vector<std::string> prime();
  /// Validates the primed plans and keeps what the window checks need.
  void record_primed(const std::vector<std::string>& lines);
  /// The full request behind cold request `index` of this workload.
  svc::Request cold_source(std::size_t index) const;
  void send(std::size_t conn, const Request& r);
  void on_line(Request& r, const std::string& line, std::int64_t read_ns);
  void check(const Request& r, std::string line);
  void check_deferred();
  void read_ready(const std::vector<pollfd>& fds,
                  std::vector<std::pair<Request, std::string>>& done);
};

void Run::invalid(const std::string& what) {
  ++invalid_;
  if (errors_.size() < 8) errors_.push_back(what);
}

void Run::spawn() {
  const std::string log =
      o_.out.empty() ? std::string("/dev/null") : o_.out + ".mwcd.log";
  for (int attempt = 0; attempt < 5; ++attempt) {
    daemon_ = std::make_unique<Daemon>(MWCBENCH_MWCD, spec_.mwcd_flags, log,
                                       o_.cpus.server);
    const std::int64_t deadline = now_ns() + 10'000'000'000LL;
    int fd = -1;
    while ((fd = connect_once(daemon_->port())) < 0 && !daemon_->exited() &&
           now_ns() < deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (fd < 0) continue;  // port raced away, or mwcd failed to start
    conns_.clear();
    conns_.push_back(std::make_unique<Conn>(fd));
    for (std::size_t i = 1; i < spec_.conns; ++i) {
      const int more = connect_once(daemon_->port());
      if (more < 0) fail("connecting to mwcd");
      conns_.push_back(std::make_unique<Conn>(more));
    }
    return;
  }
  fail(std::string("mwcd did not start (binary ") + MWCBENCH_MWCD + ")");
}

std::size_t Run::warm_primes() const {
  return spec_.id == Workload::kWarmPipelined ||
                 spec_.id == Workload::kMixedOpen
             ? mwcbench::kWarmInstances
             : 0;
}

std::vector<svc::Request> Run::primes() const {
  std::vector<svc::Request> primes;
  for (std::size_t w = 0; w < warm_primes(); ++w)
    primes.push_back(mwcbench::warm_request(o_.seed, w));
  if (spec_.id == Workload::kMixedOpen)
    for (std::size_t b = 0; b < mwcbench::kDeltaBases; ++b)
      primes.push_back(mwcbench::delta_base_request(o_.seed, b));
  return primes;
}

std::vector<std::string> Run::prime() {
  const std::vector<svc::Request> requests = primes();
  for (std::size_t p = 0; p < requests.size(); ++p) {
    Conn& c = *conns_[p % conns_.size()];
    svc::Request line = requests[p];
    line.id = std::to_string(p);
    c.out += svc::to_json(line);
    c.out += '\n';
    c.waiting.emplace_back();
  }
  std::vector<std::string> lines;
  for (auto& got : await_all(conns_, 300'000.0))
    for (std::string& line : got) lines.push_back(std::move(line));
  return lines;
}

void Run::record_primed(const std::vector<std::string>& lines) {
  const std::vector<svc::Request> requests = primes();
  const std::size_t warm = warm_primes();
  primed_ = Primed{};
  primed_.warm_plan.resize(warm);
  primed_.warm_lengths.resize(warm);
  primed_.base_geometry.resize(requests.size() - warm);
  primed_.base_fp.resize(requests.size() - warm);
  for (const std::string& line : lines) {
    const mwcbench::Reply reply = mwcbench::parse_reply(line);
    if (!reply.ok) fail("priming " + reply.id + " failed: " + reply.error);
    const std::size_t p = std::stoul(reply.id);
    const bool is_base = p >= warm;
    const std::size_t i = is_base ? p - warm : p;
    mwcbench::Geometry geometry = mwcbench::resolve_geometry(requests.at(p));
    const svc::Json plan = svc::Json::parse(reply.plan);
    mwcbench::PlanLengths lengths;
    const std::string bad = mwcbench::check_plan(plan, geometry, &lengths);
    if (!bad.empty()) fail("primed plan " + reply.id + ": " + bad);
    if (is_base) {
      primed_.base_fp[i] =
          svc::parse_fingerprint_hex(plan.at("fingerprint").as_string());
      primed_.base_geometry[i] = std::move(geometry);
    } else {
      primed_.warm_plan[i].assign(reply.plan);
      primed_.warm_lengths[i] = lengths;
    }
  }
}

void Run::setup(std::vector<double>& setup_s) {
  // Client work, done before the first set-up so it stays outside
  // setup_s.
  for (std::size_t w = 0; w < mwcbench::kWarmInstances; ++w)
    warm_lines_.emplace_back(mwcbench::warm_request(o_.seed, w), o_.trace);
  if (spec_.id == Workload::kMixedOpen) {
    schedule_ = mwcbench::mixed_schedule(o_.seed, o_.seconds);
    for (const auto& a : schedule_)
      if (a.kind == Kind::kDelta) patches_.emplace_back();
  }

  for (std::size_t k = 0; k < o_.setups; ++k) {
    conns_.clear();
    if (daemon_ != nullptr && !daemon_->stop())
      invalid("mwcd did not exit cleanly after a set-up");
    const std::int64_t start = now_ns();
    spawn();
    const svc::Json status = admin(conns_, "statusz");
    if (!status.find("net")) fail("statusz reply without a net section");
    const std::vector<std::string> primed = prime();
    setup_s.push_back(ms_between(start, now_ns()) / 1000.0);
    record_primed(primed);
  }
  mwcd_argv_ = daemon_->argv();

  // Delta lines need the primed base fingerprints (stable across
  // set-ups: solves are deterministic).
  for (std::size_t d = 0; d < patches_.size(); ++d) {
    const std::size_t b = mwcbench::base_of_delta(o_.seed, d);
    patches_[d] = mwcbench::delta_patch(
        o_.seed, d, primed_.base_geometry[b].sensors.size());
    svc::DeltaBuilder builder("d", primed_.base_fp[b]);
    svc::DeltaRequest request = builder.build();
    request.patch = patches_[d];
    delta_lines_.emplace_back(std::move(request), o_.trace);
  }
}

svc::Request Run::cold_source(std::size_t index) const {
  switch (spec_.id) {
    case Workload::kCold2k: return mwcbench::cold_request(o_.seed, 2000, index);
    case Workload::kCold10k: return mwcbench::cold_request(o_.seed, 10000, index);
    default: return mwcbench::mixed_cold_request(o_.seed, index);
  }
}

void Run::send(std::size_t conn, const Request& r) {
  const std::string id = std::to_string(r.number);
  Conn& c = *conns_[conn];
  switch (r.kind) {
    case Kind::kHit:
      warm_lines_[r.index].render(id, c.out);
      break;
    case Kind::kDelta:
      delta_lines_[r.index].render(id, c.out);
      break;
    case Kind::kCold: {
      svc::Request line = cold_source(r.index);
      line.id = id;
      if (o_.trace) line.trace_id = std::string("t").append(id);
      c.out += svc::to_json(line);
      c.out += '\n';
      break;
    }
  }
  c.waiting.push_back(r);
  ++attempted_;
}

void Run::on_line(Request& r, const std::string& line, std::int64_t read_ns) {
  const double latency = ms_between(r.ref_ns, read_ns);
  window_end_ = std::max(window_end_, read_ns);
  // Cheap ok probe; check() parses the line after the next send.
  const bool ok = line.find("\"ok\":true") != std::string::npos;
  // A failed request misses every latency limit.
  r.latency_ms = ok ? latency : INFINITY;
  all_ms_.push_back(r.latency_ms);
  switch (r.kind) {
    case Kind::kHit: hit_ms_.push_back(r.latency_ms); break;
    case Kind::kDelta: delta_ms_.push_back(r.latency_ms); break;
    case Kind::kCold: cold_ms_.push_back(r.latency_ms); break;
  }
  if (ok) {
    ++ok_;
    slo_met_ += latency <= mwcbench::kSloMs;
  } else {
    ++failed_;
  }
}

void Run::check(const Request& r, std::string line) {
  const std::string id = std::to_string(r.number);
  mwcbench::Reply reply;
  try {
    reply = mwcbench::parse_reply(line);
  } catch (const std::exception& e) {
    invalid("request " + id + ": unparseable response: " + e.what());
    return;
  }
  if (reply.id != id) {
    invalid("response id " + reply.id + " where " + id + " was next");
    return;
  }
  if (o_.trace && (!reply.has_stages || reply.trace_id != "t" + id))
    invalid("request " + id + ": no trace echo");
  if (reply.has_stages) {
    parse_ms_.push_back(reply.parse_ms);
    queue_ms_.push_back(reply.queue_ms);
    cache_ms_.push_back(reply.cache_ms);
    solve_ms_.push_back(reply.solve_ms);
    // Everything the four echoed stages do not cover: transport,
    // reorder/head-of-line wait, plan build, serialize, write.
    other_ms_.push_back(r.latency_ms - (reply.parse_ms + reply.queue_ms +
                                        reply.cache_ms + reply.solve_ms));
  }
  if (!reply.ok) {
    if (reply.error == "unknown_base") invalid("delta " + id + ": unknown_base");
    return;  // already counted as failed
  }
  switch (r.kind) {
    case Kind::kHit:
      ++hits_;
      hits_cached_ += reply.cached;
      if (!reply.cached) invalid("warm request " + id + " was not a cache hit");
      if (reply.plan != primed_.warm_plan[r.index])
        invalid("warm request " + id + ": plan differs from the primed plan");
      length_sum_.first_round += primed_.warm_lengths[r.index].first_round;
      length_sum_.total += primed_.warm_lengths[r.index].total;
      return;
    case Kind::kDelta: {
      const std::size_t b = mwcbench::base_of_delta(o_.seed, r.index);
      if (!reply.derived ||
          reply.base != svc::fingerprint_hex(primed_.base_fp[b]))
        invalid("delta " + id + " is not derived from its base");
      break;
    }
    case Kind::kCold:
      if (reply.cached) invalid("cold request " + id + " hit the cache");
      break;
  }
  deferred_.emplace_back(r, std::move(line));
}

void Run::check_deferred() {
  for (const auto& [r, line] : deferred_) {
    const std::string id = std::to_string(r.number);
    mwcbench::Geometry geometry;
    if (r.kind == Kind::kDelta) {
      geometry = mwcbench::patch_geometry(
          primed_.base_geometry[mwcbench::base_of_delta(o_.seed, r.index)],
          patches_[r.index]);
    } else {
      geometry = mwcbench::resolve_geometry(cold_source(r.index));
    }
    try {
      mwcbench::PlanLengths lengths;
      const std::string bad = mwcbench::check_plan(
          svc::Json::parse(mwcbench::parse_reply(line).plan), geometry,
          &lengths);
      if (!bad.empty()) invalid("request " + id + ": " + bad);
      length_sum_.first_round += lengths.first_round;
      length_sum_.total += lengths.total;
    } catch (const std::exception& e) {
      invalid("request " + id + ": malformed plan: " + e.what());
    }
  }
  deferred_.clear();
}

void Run::read_ready(const std::vector<pollfd>& fds,
                     std::vector<std::pair<Request, std::string>>& done) {
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if ((fds[i].revents & POLLOUT) != 0) conns_[i]->flush();
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    std::vector<std::string> lines;
    conns_[i]->read_lines(lines);
    // Every line this read completed had fully arrived by now.
    const std::int64_t read_ns = now_ns();
    for (std::string& line : lines) {
      if (conns_[i]->waiting.empty()) fail("unsolicited line from mwcd");
      Request r = conns_[i]->waiting.front();
      conns_[i]->waiting.pop_front();
      on_line(r, line, read_ns);
      done.emplace_back(r, std::move(line));
    }
  }
}

void Run::measure() {
  if (o_.trace) {
    metrics_before_ = admin(conns_, "metrics");
    stats_before_ = admin(conns_, "statusz", &admin_bytes_between_);
  }
  const bool open_loop = spec_.depth == 0;
  const auto window_ns = static_cast<std::int64_t>(o_.seconds * 1e9);
  std::size_t next_arrival = 0;
  std::size_t next_cold = 0;
  std::size_t issued = 0;

  window_start_ = now_ns();
  window_end_ = window_start_;
  const auto issuing = [&](std::int64_t now) {
    return open_loop ? next_arrival < schedule_.size()
                     : now - window_start_ < window_ns;
  };
  const auto due_ns = [&](std::size_t arrival) {
    return window_start_ +
           static_cast<std::int64_t>(schedule_[arrival].offset_s * 1e9);
  };
  // Closed loop: top a connection up to `depth` in one write; the batch's
  // latency clock starts at that write.
  const auto refill = [&](std::size_t conn) {
    Conn& c = *conns_[conn];
    const std::size_t first = c.waiting.size();
    while (c.waiting.size() < spec_.depth) {
      Request r;
      r.number = issued++;
      if (spec_.id == Workload::kWarmPipelined) {
        r.kind = Kind::kHit;
        r.index = r.number % mwcbench::kWarmInstances;
      } else {
        r.kind = Kind::kCold;
        r.index = next_cold++;
      }
      send(conn, r);
    }
    const std::int64_t write_ns = now_ns();
    for (std::size_t i = first; i < c.waiting.size(); ++i)
      c.waiting[i].ref_ns = write_ns;
    c.flush();
  };
  if (!open_loop)
    for (std::size_t i = 0; i < conns_.size(); ++i) refill(i);

  std::vector<pollfd> fds(conns_.size());
  std::vector<std::pair<Request, std::string>> done;
  std::int64_t last_progress = now_ns();
  for (;;) {
    const std::int64_t now = now_ns();
    if (open_loop) {
      // Send everything due, one write per connection. Latency runs from
      // the due time, so a late generator shows in it and in gen lag.
      std::vector<std::size_t> due;
      while (next_arrival < schedule_.size() && due_ns(next_arrival) <= now)
        due.push_back(next_arrival++);
      for (const std::size_t a : due) {
        Request r;
        r.number = a;
        r.kind = schedule_[a].kind;
        r.index = schedule_[a].index;
        r.ref_ns = due_ns(a);
        send(a % conns_.size(), r);
      }
      if (!due.empty()) {
        const std::int64_t write_ns = now_ns();
        for (const std::size_t a : due)
          lag_ms_.push_back(ms_between(due_ns(a), write_ns));
        for (auto& c : conns_) c->flush();
      }
    }
    bool pending = false;
    for (auto& c : conns_) pending = pending || !c->waiting.empty();
    if (!pending && !issuing(now)) break;
    if (now - last_progress > 120'000'000'000LL)
      fail("no response from mwcd for 120 s");

    std::int64_t timeout_ns = 100'000'000;
    if (open_loop && next_arrival < schedule_.size())
      timeout_ns = std::clamp<std::int64_t>(due_ns(next_arrival) - now_ns(), 0,
                                            timeout_ns);
    for (std::size_t i = 0; i < conns_.size(); ++i)
      fds[i] = {conns_[i]->fd,
                static_cast<short>(POLLIN |
                                   (conns_[i]->out.empty() ? 0 : POLLOUT)),
                0};
    const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                      static_cast<long>(timeout_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR)
      fail(std::string("ppoll: ") + std::strerror(errno));

    done.clear();
    read_ready(fds, done);
    if (done.empty()) continue;
    last_progress = now_ns();
    if (!open_loop && issuing(last_progress))
      for (std::size_t i = 0; i < conns_.size(); ++i) refill(i);
    for (auto& [r, line] : done) check(r, std::move(line));
  }

  if (o_.trace) {
    stats_after_ = admin(conns_, "statusz");
    metrics_after_ = admin(conns_, "metrics");
  }
  peak_rss_mib_ = daemon_->peak_rss_mib();
}

void Run::finish() {
  conns_.clear();
  if (!daemon_->stop()) invalid("mwcd did not exit cleanly");
  daemon_.reset();
  check_deferred();
}

// -------------------------------------------------------------- output --

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return mwcbench::percentile(v, 50.0).value;
}

/// {"value":..,"unit":..,"n":..,"beyond":..} for a percentile metric, or
/// null (with the refusal reason) when too few samples lie beyond it.
svc::Json percentile_json(const std::vector<double>& samples, double p,
                          const char* unit) {
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const mwcbench::Percentile pc = mwcbench::percentile(sorted, p);
  svc::Json j = svc::Json::object();
  j.set("value", pc.reportable && pc.n > 0 && std::isfinite(pc.value)
                     ? svc::Json(pc.value)
                     : svc::Json());
  j.set("unit", svc::Json(unit));
  j.set("percentile", svc::Json(p));
  j.set("n", svc::Json(pc.n));
  j.set("beyond", svc::Json(pc.beyond));
  if (!pc.reportable)
    j.set("refused", svc::Json("fewer than 10 samples beyond this percentile"));
  return j;
}

svc::Json value_json(double value, const char* unit) {
  svc::Json j = svc::Json::object();
  j.set("value", std::isfinite(value) ? svc::Json(value) : svc::Json());
  j.set("unit", svc::Json(unit));
  return j;
}

std::uint64_t counter(const svc::Json& metrics, const char* name) {
  const svc::Json* c = metrics.at("counters").find(name);
  return c == nullptr ? 0 : static_cast<std::uint64_t>(c->as_double());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The [W] rows of the per-layer table.
void wire_layers(const Run& run, mwcbench::LayerValues& layers) {
  const double tail = run.spec_.tail_percentile;
  const auto pct = [](std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    return mwcbench::percentile(v, p).value;
  };
  layers["trace.latency_ms.mean"] = mwcbench::mean(run.all_ms_);
  layers["trace.latency_ms.p50"] = pct(run.all_ms_, 50.0);
  layers["svc.net.other_ms.mean"] = mwcbench::mean(run.other_ms_);
  layers["svc.net.other_ms.p50"] = pct(run.other_ms_, 50.0);
  layers["svc.net.other_ms.tail"] = pct(run.other_ms_, tail);
  layers["svc.wire.parse_ms.mean"] = mwcbench::mean(run.parse_ms_);
  layers["svc.wire.parse_ms.p50"] = pct(run.parse_ms_, 50.0);
  layers["svc.server.queue_ms.mean"] = mwcbench::mean(run.queue_ms_);
  layers["svc.server.queue_ms.p50"] = pct(run.queue_ms_, 50.0);
  layers["svc.server.queue_ms.tail"] = pct(run.queue_ms_, tail);
  layers["svc.engine.cache_ms.mean"] = mwcbench::mean(run.cache_ms_);
  layers["svc.engine.cache_ms.p50"] = pct(run.cache_ms_, 50.0);
  layers["svc.engine.solve_ms.mean"] = mwcbench::mean(run.solve_ms_);
  layers["svc.engine.solve_ms.p50"] = pct(run.solve_ms_, 50.0);

  // statusz deltas over the window. The statusz-before reply itself is
  // flushed inside the window; take it back out.
  const svc::Json& n0 = run.stats_before_.at("net");
  const svc::Json& n1 = run.stats_after_.at("net");
  const auto dnet = [&](const char* key) {
    return n1.at(key).as_double() - n0.at(key).as_double();
  };
  const double responses = dnet("responses") - 1.0;
  layers["svc.net.responses_per_wakeup"] = ratio(responses, dnet("wakeups"));
  layers["svc.net.bytes_per_response"] = ratio(
      dnet("bytes_written") - static_cast<double>(run.admin_bytes_between_),
      responses);
  const svc::Json& c0 = run.stats_before_.at("cache");
  const svc::Json& c1 = run.stats_after_.at("cache");
  const auto dcache = [&](const char* key) {
    return c1.at(key).as_double() - c0.at(key).as_double();
  };
  layers["svc.plan_cache.hit_ratio"] =
      ratio(dcache("hits"), dcache("hits") + dcache("misses"));
  layers["svc.plan_cache.evictions"] = dcache("evictions");

  const auto dcount = [&](const char* name) {
    return static_cast<double>(counter(run.metrics_after_, name) -
                               counter(run.metrics_before_, name));
  };
  layers["svc.server.rejected"] =
      dcount("svc.rejected.queue_full") + dcount("svc.deadline_expired");
  layers["svc.delta.replan_ratio"] =
      ratio(dcount("svc.delta.replans"), dcount("svc.delta.requests"));
}

struct Args {
  Options options;
  bool ok = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  Options& o = args.options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "mwcbench: expected --flag VALUE, got %s\n",
                   flag.c_str());
      return args;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.spec = mwcbench::find_workload(value);
        if (o.spec == nullptr) {
          std::fprintf(stderr, "mwcbench: unknown workload %s\n",
                       value.c_str());
          return args;
        }
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument(value);
        o.trace = value == "1";
      } else if (flag == "--setups") {
        o.setups = std::stoul(value);
      } else if (flag == "--out") {
        o.out = value;
      } else if (flag == "--commit") {
        o.commit = value;
      } else if (flag == "--dirty") {
        o.dirty = value == "1";
      } else {
        std::fprintf(stderr, "mwcbench: unknown flag %s\n", flag.c_str());
        return args;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "mwcbench: bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return args;
    }
  }
  if (o.spec == nullptr || !(o.seconds > 0.0) || o.setups < 1) {
    std::fprintf(stderr,
                 "usage: mwcbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--setups K] [--out FILE] [--commit SHA] "
                 "[--dirty 0|1]\n");
    return args;
  }
  args.ok = true;
  return args;
}

void print_report(const svc::Json& doc) {
  std::fprintf(stderr, "mwcbench %s seed %s: %s\n",
               doc.at("env").at("workload").as_string().c_str(),
               doc.at("env").at("seed").dump().c_str(),
               doc.at("correct").as_bool() ? "all checks passed"
                                           : "CHECKS FAILED");
  for (const svc::Json& e : doc.at("errors").items())
    std::fprintf(stderr, "  error: %s\n", e.as_string().c_str());
  for (const char* section : {"end_to_end", "report", "per_layer"}) {
    const svc::Json* s = doc.find(section);
    if (s == nullptr) continue;
    std::fprintf(stderr, "  %s\n", section);
    for (const auto& [name, m] : s->members()) {
      std::string extra;
      if (const svc::Json* n = m.find("n"))
        extra = "  (p" + m.at("percentile").dump() + " of n=" + n->dump() +
                ", " + m.at("beyond").dump() + " beyond)";
      if (m.find("refused") != nullptr) extra += " refused";
      std::fprintf(stderr, "    %-34s %14s %-8s%s\n", name.c_str(),
                   m.at("value").is_null() ? "-" : m.at("value").dump().c_str(),
                   m.at("unit").as_string().c_str(), extra.c_str());
    }
  }
}

int run_benchmark(const Options& o) {
  Run run(o);
  std::vector<double> setup_s;
  run.setup(setup_s);
  run.measure();
  run.finish();

  mwcbench::LayerValues layers;
  if (o.trace) {
    wire_layers(run, layers);
    const mwcbench::LayerValues replayed =
        mwcbench::replay_layers(*o.spec, o.seed);
    layers.insert(replayed.begin(), replayed.end());
  }

  const std::size_t attempted = run.attempted_;
  const std::size_t unanswered = attempted - run.all_ms_.size();
  const std::size_t failed = run.failed_ + unanswered;
  std::vector<double> lag = run.lag_ms_;
  std::sort(lag.begin(), lag.end());
  const double lag_p99 = mwcbench::percentile(lag, 99.0).value;
  if (o.spec->depth == 0 && lag_p99 > mwcbench::kMaxGenLagP99Ms)
    run.invalid("generator ran late: gen_lag_p99_ms " +
                std::to_string(lag_p99) + " > 2");
  if (o.spec->id == Workload::kMixedOpen && run.hits_cached_ != run.hits_)
    run.invalid("mixed_open warm hit ratio below 1");
  const bool correct = run.invalid_ == 0 && attempted > 0;
  const double window_s =
      ms_between(run.window_start_, run.window_end_) / 1000.0;

  svc::Json env = svc::Json::object();
  env.set("workload", svc::Json(o.spec->name));
  env.set("seed", svc::Json(static_cast<double>(o.seed)));
  env.set("seconds", svc::Json(o.seconds));
  env.set("trace", svc::Json(o.trace));
  env.set("setups", svc::Json(o.setups));
  env.set("commit", svc::Json(o.commit));
  env.set("dirty", svc::Json(o.dirty));
  env.set("nproc", svc::Json(static_cast<std::size_t>(
                       std::thread::hardware_concurrency())));
  env.set("cpu_model", svc::Json(cpu_model()));
  env.set("compiler", svc::Json(compiler()));
  env.set("build_type", svc::Json(MWCBENCH_BUILD_TYPE));
  env.set("mwc_obs", svc::Json(MWC_OBS_ENABLED != 0));
  env.set("mwc_simd", svc::Json(MWC_SIMD_ENABLED != 0));
  svc::Json flags = svc::Json::array();
  for (const std::string& a : run.mwcd_argv_) flags.push_back(svc::Json(a));
  env.set("mwcd_argv", std::move(flags));
  env.set("client_cpus", svc::Json(cpu_list(o.cpus.client)));
  env.set("mwcd_cpus", svc::Json(cpu_list(o.cpus.server)));

  svc::Json e2e = svc::Json::object();
  e2e.set("latency_p50_ms", percentile_json(run.all_ms_, 50.0, "ms"));
  e2e.set("throughput_rps",
          value_json(ratio(static_cast<double>(run.ok_), window_s), "req/s"));
  e2e.set("setup_s", value_json(median_of(setup_s), "s"));
  e2e.set("peak_rss_mb", value_json(run.peak_rss_mib_, "MiB"));
  e2e.set("plan_length_m",
          value_json(ratio(run.length_sum_.total, static_cast<double>(run.ok_)),
                     "m"));

  svc::Json report = svc::Json::object();
  report.set("latency_mean_ms", value_json(mwcbench::mean(run.all_ms_), "ms"));
  report.set("latency_p99_ms", percentile_json(run.all_ms_, 99.0, "ms"));
  const auto by_class = [&](const char* name, const std::vector<double>& v) {
    if (v.empty()) return;
    report.set(std::string(name) + "_latency_p50_ms",
               percentile_json(v, 50.0, "ms"));
    report.set(std::string(name) + "_latency_p99_ms",
               percentile_json(v, 99.0, "ms"));
  };
  by_class("hit", run.hit_ms_);
  by_class("delta", run.delta_ms_);
  by_class("cold", run.cold_ms_);
  report.set("error_rate",
             value_json(ratio(static_cast<double>(failed),
                              static_cast<double>(attempted)),
                        "fraction"));
  if (o.spec->depth == 0) {
    report.set("slo_met_frac",
               value_json(ratio(static_cast<double>(run.slo_met_),
                                static_cast<double>(attempted)),
                          "fraction"));
    report.set("gen_lag_p99_ms", percentile_json(run.lag_ms_, 99.0, "ms"));
  }
  report.set("first_round_length_m",
             value_json(ratio(run.length_sum_.first_round,
                              static_cast<double>(run.ok_)),
                        "m"));
  report.set("window_s", value_json(window_s, "s"));

  svc::Json doc = svc::Json::object();
  doc.set("schema", svc::Json("mwcbench.v1"));
  doc.set("env", std::move(env));
  svc::Json setups = svc::Json::array();
  for (const double s : setup_s) setups.push_back(svc::Json(s));
  doc.set("setup_s_samples", std::move(setups));
  doc.set("correct", svc::Json(correct));
  svc::Json errors = svc::Json::array();
  for (const std::string& e : run.errors_) errors.push_back(svc::Json(e));
  doc.set("errors", std::move(errors));
  doc.set("attempted", svc::Json(attempted));
  doc.set("failed", svc::Json(failed));
  doc.set("end_to_end", e2e);
  doc.set("report", std::move(report));

  // The summary line carries one metric family, every value measured.
  svc::Json metrics = svc::Json::object();
  if (o.trace) {
    svc::Json per_layer = svc::Json::object();
    for (const auto& [name, unit] : mwcbench::layer_metrics()) {
      const auto it = layers.find(name);
      svc::Json m = value_json(it == layers.end() ? 0.0 : it->second,
                               unit.c_str());
      per_layer.set(name, m);
      metrics.set(name, std::move(m));
    }
    doc.set("per_layer", std::move(per_layer));
  } else {
    for (const auto& [name, m] : e2e.members()) {
      if (m.at("value").is_null()) continue;  // refused: never invented
      svc::Json short_form = svc::Json::object();
      short_form.set("value", m.at("value"));
      short_form.set("unit", m.at("unit"));
      metrics.set(name, std::move(short_form));
    }
  }

  print_report(doc);
  if (!o.out.empty()) {
    std::ofstream out(o.out);
    out << doc.dump() << "\n";
    if (!out) std::fprintf(stderr, "mwcbench: cannot write %s\n", o.out.c_str());
  }
  svc::Json summary = svc::Json::object();
  summary.set("correct", svc::Json(correct));
  summary.set("attempted", svc::Json(attempted));
  summary.set("failed", svc::Json(failed));
  summary.set("metrics", std::move(metrics));
  std::printf("%s\n", summary.dump().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  if (!args.ok) return 2;
  try {
    args.options.cpus = split_cpus();
    const cpu_set_t& mine = args.options.cpus.client;
    if (::sched_setaffinity(0, sizeof mine, &mine) != 0)
      fail(std::string("sched_setaffinity: ") + std::strerror(errno));
    return run_benchmark(args.options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mwcbench: %s\n", e.what());
    return 1;
  }
}
