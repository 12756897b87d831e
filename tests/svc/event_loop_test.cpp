#include "svc/event_loop.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "svc/access_log.hpp"
#include "svc/admin.hpp"
#include "svc/json.hpp"
#include "svc/server.hpp"
#include "svc/wire.hpp"

namespace mwc::svc {
namespace {

std::string request_line(const std::string& id) {
  return R"({"v":"mwc.svc.v1","id":")" + id +
         R"(","network":{"preset":{"n":5,"q":1}},)"
         R"("cycles":{"values":[1,1,1,1,1]}})"
         "\n";
}

Response ok_response(const std::string& id) {
  Response response;
  response.id = id;
  response.ok = true;
  return response;
}

/// A NetServer over an injectable Server, with its loop on a thread. It
/// listens on an ephemeral port, or, given an `adopted` descriptor pair
/// (in, out; peer "stdio"), serves only that, so run() returns by itself
/// once the pair is done. The adopted pair is closed right after adopt():
/// the server works on private descriptors of its own.
struct Loop {
  Server server;
  AdminHandler admin;
  NetServer net;
  std::future<void> ran;

  explicit Loop(ServerOptions server_options,
                NetServerOptions net_options = {},
                StreamHub* sessions = nullptr,
                std::pair<int, int> adopted = {-1, -1})
      : server(std::move(server_options)),
        admin(server, AdminInfo{}),
        net(server, &admin, std::move(net_options), sessions) {
    EXPECT_TRUE(adopted.first >= 0
                    ? net.adopt(adopted.first, adopted.second, "stdio")
                    : net.start());
    if (adopted.first >= 0) {
      ::close(adopted.first);
      ::close(adopted.second);
    }
    ran = std::async(std::launch::async, [this] { net.run(); });
  }

  ~Loop() { stop(); }

  void stop() {
    net.request_stop();
    ran.wait();
  }

  /// True once run() returned on its own (no request_stop) within 10 s.
  bool returns() {
    return ran.wait_for(std::chrono::seconds(10)) ==
           std::future_status::ready;
  }
};

/// Reads from `fd` until `n` full lines arrived. EOF, an error, or 10 s
/// without data end the read early, so a regression fails the caller's
/// size assertion instead of hanging the suite.
std::vector<std::string> read_lines(int fd, std::size_t n) {
  std::string buf;
  char chunk[65536];
  std::size_t newlines = 0;
  while (newlines < n) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 10000) <= 0) break;
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got <= 0) break;
    for (ssize_t i = 0; i < got; ++i)
      if (chunk[i] == '\n') ++newlines;
    buf.append(chunk, static_cast<std::size_t>(got));
  }
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = buf.find('\n', start);
    if (nl == std::string::npos) break;
    lines.push_back(buf.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// True when the writer closed `fd`'s other end within 10 s: read
/// returns 0, or ECONNRESET for a socket closed with input unread. Any
/// bytes before that are discarded.
bool read_eof(int fd) {
  char chunk[256];
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 10000) <= 0) return false;
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got == 0) return true;
    if (got < 0) return errno == ECONNRESET;
  }
}

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t put = ::write(fd, data.data() + off, data.size() - off);
    ASSERT_GT(put, 0);
    off += static_cast<std::size_t>(put);
  }
}

/// Blocking test client; reads time out (see read_lines) so a regression
/// fails instead of hanging the suite.
struct Client {
  int fd = -1;

  /// `rcvbuf` > 0 shrinks SO_RCVBUF before connect (tiny TCP window, so
  /// an unread peer backs the server's writes up quickly).
  explicit Client(int port, int rcvbuf = 0) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    if (rcvbuf > 0)
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
  }

  ~Client() {
    if (fd >= 0) ::close(fd);
  }

  void send_all(const std::string& data) const {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t put =
          ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(put, 0);
      off += static_cast<std::size_t>(put);
    }
  }

  void half_close() const { ::shutdown(fd, SHUT_WR); }

  std::vector<std::string> read_lines(std::size_t n) const {
    return svc::read_lines(fd, n);
  }

  /// True when the server closed the connection (read returns 0).
  bool read_eof() const { return svc::read_eof(fd); }
};

std::string id_of(const std::string& line) {
  return Json::parse(line).at("id").as_string();
}

std::string stream_frame(const std::string& id) {
  return R"({"v":"mwc.svc.stream.v1","op":"open","id":")" + id + "\"}\n";
}

/// Minimal StreamHub: acks every frame, marks the connection streaming,
/// and hands the captured PushFn to the test thread so it can inject
/// server-initiated lines at chosen moments.
struct FakeHub final : StreamHub {
  std::mutex mutex;
  std::map<std::uint64_t, PushFn> push_fns;
  std::vector<std::uint64_t> dropped;

  std::string handle_frame(std::uint64_t conn_token, const std::string& line,
                           PushFn push, bool* streaming) override {
    {
      std::lock_guard<std::mutex> lock(mutex);
      push_fns[conn_token] = std::move(push);
    }
    *streaming = true;
    return R"({"v":"mwc.svc.stream.v1","id":")" +
           Json::parse(line).at("id").as_string() + R"(","ok":true})" "\n";
  }

  void drop_connection(std::uint64_t conn_token) override {
    std::lock_guard<std::mutex> lock(mutex);
    dropped.push_back(conn_token);
  }

  /// PushFn of the first (only) registered connection; waits for the
  /// loop thread to process the registering frame first.
  PushFn wait_push_fn() {
    for (int i = 0; i < 2000; ++i) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (!push_fns.empty()) return push_fns.begin()->second;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return {};
  }

  bool was_dropped() {
    std::lock_guard<std::mutex> lock(mutex);
    return !dropped.empty();
  }
};

std::string push_line(const std::string& tag) {
  return R"({"v":"mwc.svc.stream.v1","op":"plan","push":true,"tag":")" + tag +
         "\"}\n";
}

std::string preset_line(const std::string& id, std::uint64_t seed,
                        std::size_t n) {
  return RequestBuilder(id).preset(n, 3, 1000.0, seed).horizon(100.0)
             .to_json_line() +
         "\n";
}

TEST(NetServer, PipelinedOutOfOrderCompletionsFlushInRequestOrder) {
  ServerOptions options;
  options.threads = 4;
  // Later requests finish first: r0 sleeps longest. The transport must
  // still flush responses in request order.
  options.handler = [](const Request& request) {
    const int k = request.id.back() - '0';
    std::this_thread::sleep_for(std::chrono::milliseconds((5 - k) * 20));
    return ok_response(request.id);
  };
  Loop loop(options);

  Client client(loop.net.port());
  std::string burst;
  for (int i = 0; i < 5; ++i) burst += request_line("r" + std::to_string(i));
  client.send_all(burst);

  const auto lines = client.read_lines(5);
  ASSERT_EQ(lines.size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(id_of(lines[static_cast<std::size_t>(i)]),
              "r" + std::to_string(i));

  const NetStats stats = loop.net.stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.responses, 5u);
  EXPECT_EQ(stats.accepted, 1u);
}

TEST(NetServer, BadRequestMidPipelineDoesNotDesyncTheStream) {
  ServerOptions options;
  options.threads = 2;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  Loop loop(options);

  Client client(loop.net.port());
  client.send_all(request_line("r0") + "{this is not json\n" +
                  request_line("r1"));

  const auto lines = client.read_lines(3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(id_of(lines[0]), "r0");
  const Json bad = Json::parse(lines[1]);
  EXPECT_FALSE(bad.at("ok").as_bool());
  EXPECT_EQ(bad.at("error").as_string(), "bad_request");
  EXPECT_EQ(id_of(lines[2]), "r1");
}

TEST(NetServer, AdminResponsesJoinTheSequenceStream) {
  ServerOptions options;
  options.threads = 2;
  options.handler = [](const Request& request) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return ok_response(request.id);
  };
  Loop loop(options);

  Client client(loop.net.port());
  // The admin answer is ready instantly but owes its place in line
  // behind the slow r0.
  client.send_all(request_line("r0") +
                  R"({"admin":"statusz","id":"a1"})" "\n" +
                  request_line("r1"));

  const auto lines = client.read_lines(3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(id_of(lines[0]), "r0");
  EXPECT_EQ(id_of(lines[1]), "a1");
  EXPECT_NE(lines[1].find("statusz"), std::string::npos);
  EXPECT_EQ(id_of(lines[2]), "r1");
}

TEST(NetServer, HalfCloseFlushesEveryOwedResponse) {
  ServerOptions options;
  options.threads = 2;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  Loop loop(options);

  Client client(loop.net.port());
  // Final line deliberately unterminated: EOF must end it, matching the
  // stdio transport.
  std::string burst = request_line("r0") + request_line("r1");
  burst += request_line("r2");
  burst.pop_back();  // strip the trailing newline
  client.send_all(burst);
  client.half_close();

  const auto lines = client.read_lines(3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(id_of(lines[0]), "r0");
  EXPECT_EQ(id_of(lines[1]), "r1");
  EXPECT_EQ(id_of(lines[2]), "r2");
  EXPECT_TRUE(client.read_eof());
}

TEST(NetServer, IdleConnectionsAreReaped) {
  ServerOptions options;
  options.threads = 1;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  NetServerOptions net_options;
  net_options.idle_timeout_ms = 50.0;
  Loop loop(options, net_options);

  Client client(loop.net.port());
  EXPECT_TRUE(client.read_eof());  // server closes us, we sent nothing
  // The loop thread updates stats before/at close; poll briefly.
  for (int i = 0; i < 100 && loop.net.stats().idle_closed == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(loop.net.stats().idle_closed, 1u);
}

TEST(NetServer, StopFlushesInFlightWorkAndClosesIdleConnections) {
  std::mutex mutex;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;
  ServerOptions options;
  options.threads = 1;
  options.handler = [&](const Request& request) {
    std::unique_lock<std::mutex> lock(mutex);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
    return ok_response(request.id);
  };
  Loop loop(options);

  Client busy(loop.net.port());
  Client idle(loop.net.port());  // never sends — the old transport's
                                 // per-connection read() would block on
                                 // this socket past SIGTERM
  busy.send_all(request_line("r0"));
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return entered; });
  }

  loop.net.request_stop();
  {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
  }

  // The loop must exit on its own: owed response flushed, idle
  // connection closed, run() returned.
  auto joined = std::async(std::launch::async, [&] { loop.stop(); });
  ASSERT_EQ(joined.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);

  const auto lines = busy.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(id_of(lines[0]), "r0");
  EXPECT_TRUE(busy.read_eof());
  EXPECT_TRUE(idle.read_eof());
}

TEST(NetServer, BufferedPartialRequestLineIsNotReapedAsIdle) {
  ServerOptions options;
  options.threads = 1;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  NetServerOptions net_options;
  net_options.idle_timeout_ms = 50.0;
  Loop loop(options, net_options);

  // Send half a request line, go quiet past the idle timeout, then
  // finish it: the half-sent request must still be answered, not
  // silently dropped by the idle sweep.
  Client client(loop.net.port());
  const std::string line = request_line("r0");
  client.send_all(line.substr(0, 10));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  client.send_all(line.substr(10));

  const auto lines = client.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(id_of(lines[0]), "r0");
  EXPECT_EQ(loop.net.stats().idle_closed, 0u);
}

TEST(NetServer, StopForceClosesConnectionsThatCannotFlush) {
  ServerOptions options;
  options.threads = 1;
  // An 8 MiB response cannot fit the kernel socket buffers, so a peer
  // that never reads leaves it unflushable forever.
  options.handler = [](const Request&) {
    Response response;
    response.id = std::string(8u << 20, 'x');
    response.ok = true;
    return response;
  };
  NetServerOptions net_options;
  net_options.drain_timeout_ms = 300.0;
  Loop loop(options, net_options);

  Client client(loop.net.port(), /*rcvbuf=*/1);
  client.send_all(request_line("r0"));
  // Wait until the response is queued on the connection's output buffer
  // (flushed as far as the socket accepts) before asking for the stop.
  for (int i = 0; i < 2000 && loop.net.stats().responses == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(loop.net.stats().responses, 1u);

  // run() must return anyway: the drain deadline force-closes the
  // connection the peer refuses to drain.
  loop.net.request_stop();
  auto joined = std::async(std::launch::async, [&] { loop.stop(); });
  ASSERT_EQ(joined.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(loop.net.stats().drain_dropped, 1u);
}

TEST(NetServer, WireBytesMatchInProcessServerModuloLatency) {
  // Same request through the epoll transport and through submit_line on
  // an identical server must serialize identically (latency aside).
  const std::string line = request_line("gold");

  ServerOptions options;
  options.threads = 1;
  Loop loop(options);
  Client client(loop.net.port());
  client.send_all(line);
  const auto wire = client.read_lines(1);
  ASSERT_EQ(wire.size(), 1u);

  Server reference(options);
  std::promise<std::string> answered;
  ASSERT_TRUE(reference.submit_line(
      line.substr(0, line.size() - 1),
      [&](const Response& r) { answered.set_value(to_jsonl(r)); }));
  std::string local = answered.get_future().get();
  ASSERT_EQ(local.back(), '\n');
  local.pop_back();

  Json from_wire = Json::parse(wire[0]);
  Json from_local = Json::parse(local);
  from_wire.set("latency_ms", Json(0.0));
  from_local.set("latency_ms", Json(0.0));
  EXPECT_EQ(from_wire.dump(), from_local.dump());
  reference.shutdown();
}

TEST(NetServer, InlineHitsInterleaveWithPoolMissesInRequestOrder) {
  // Default engine handler: repeats of a primed spec are answered on the
  // loop thread as they are read, while each distinct instance solves on
  // a worker. The replies must still come back in request order.
  ServerOptions options;
  options.threads = 2;
  Loop loop(options);
  Client client(loop.net.port());
  client.send_all(preset_line("prime", 1, 40));
  const auto primed = client.read_lines(1);
  ASSERT_EQ(primed.size(), 1u);
  const std::uint64_t wakeups_before = loop.net.stats().wakeups;

  std::string burst;
  std::vector<std::string> ids;
  std::size_t misses = 0;
  for (std::size_t i = 0; i < 24; ++i) {
    const std::string id = "q" + std::to_string(i);
    if (i % 6 == 0) {
      burst += preset_line(id, 100 + i, 2000);  // a cold solve on the pool
      ++misses;
    } else {
      burst += preset_line(id, 1, 40);  // an inline hit
    }
    ids.push_back(id);
  }
  client.send_all(burst);

  const auto lines = client.read_lines(ids.size());
  ASSERT_EQ(lines.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Json doc = Json::parse(lines[i]);
    EXPECT_EQ(doc.at("id").as_string(), ids[i]);
    EXPECT_TRUE(doc.at("ok").as_bool()) << lines[i];
    EXPECT_EQ(doc.at("cached").as_bool(), i % 6 != 0) << ids[i];
  }
  // Only worker completions wake the loop; hits never do.
  EXPECT_LE(loop.net.stats().wakeups - wakeups_before, misses);
  EXPECT_EQ(loop.server.cache().hits(), ids.size() - misses);
}

TEST(NetServer, InlineHitBurstBeyondTheBufferCapIsAnsweredInFull) {
  // Hits answer inside the read loop, before any flush. A burst whose
  // answers outgrow the per-connection cap pauses the input at half the
  // cap until the output drains, instead of buffering every answer.
  const std::string hit = preset_line("h", 1, 40);
  ServerOptions options;
  options.threads = 1;
  NetServerOptions net_options;
  net_options.max_buffered_bytes = 16 * 1024;
  Loop loop(options, net_options);
  Client client(loop.net.port());
  client.send_all(hit);
  ASSERT_EQ(client.read_lines(1).size(), 1u);

  std::string burst;
  for (int i = 0; i < 200; ++i) burst += hit;
  client.send_all(burst);
  const auto lines = client.read_lines(200);
  ASSERT_EQ(lines.size(), 200u);
  EXPECT_GT(lines.size() * lines[0].size(), net_options.max_buffered_bytes);
  EXPECT_EQ(loop.net.stats().overflow_closed, 0u);
}

TEST(NetServer, UnreadPushesBeyondTheBufferCapCloseTheConnection) {
  // Backpressure cannot hold back server-initiated lines: a streaming
  // peer that never reads them trips the output guard.
  ServerOptions options;
  options.threads = 1;
  FakeHub hub;
  NetServerOptions net_options;
  net_options.max_buffered_bytes = 1 << 20;
  Loop loop(options, net_options, &hub);
  Client client(loop.net.port(), /*rcvbuf=*/1);
  client.send_all(stream_frame("s0"));
  StreamHub::PushFn push = hub.wait_push_fn();
  ASSERT_TRUE(static_cast<bool>(push));
  // 8 MiB cannot fit the kernel socket buffers of a peer that never reads.
  const std::string big = push_line(std::string(256 * 1024, 'p'));
  for (int i = 0; i < 32 && push(big); ++i) {
  }
  for (int i = 0; i < 2000 && loop.net.stats().overflow_closed == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(loop.net.stats().overflow_closed, 1u);
  EXPECT_TRUE(hub.was_dropped());
}

TEST(NetServer, StreamFramesRejectedWithoutHub) {
  ServerOptions options;
  options.threads = 1;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  Loop loop(options);  // no StreamHub attached

  Client client(loop.net.port());
  client.send_all(stream_frame("s0"));
  const auto lines = client.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  const Json doc = Json::parse(lines[0]);
  EXPECT_EQ(doc.at("id").as_string(), "s0");
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error").as_string(), "sessions_disabled");
}

TEST(NetServer, PushesInterleaveWithoutDesyncingThePipeline) {
  std::mutex mutex;
  std::condition_variable cv;
  bool released = false;
  ServerOptions options;
  options.threads = 2;
  // r0 parks the head of the response queue until the test releases it;
  // pushes injected meanwhile must flush without waiting for it.
  options.handler = [&](const Request& request) {
    if (request.id == "r0") {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return released; });
    }
    return ok_response(request.id);
  };
  FakeHub hub;
  Loop loop(options, {}, &hub);

  Client client(loop.net.port());
  client.send_all(request_line("r0") + stream_frame("s0") +
                  request_line("r1"));
  StreamHub::PushFn push = hub.wait_push_fn();
  ASSERT_TRUE(static_cast<bool>(push));
  EXPECT_TRUE(push(push_line("p0")));
  EXPECT_TRUE(push(push_line("p1")));

  // Both pushes must reach the client while r0 still blocks the
  // sequence stream — a push carries no sequence number.
  const auto early = client.read_lines(2);
  ASSERT_EQ(early.size(), 2u);
  EXPECT_EQ(Json::parse(early[0]).at("tag").as_string(), "p0");
  EXPECT_EQ(Json::parse(early[1]).at("tag").as_string(), "p1");

  {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
  }
  // The owed responses then flush in request order: r0, s0's ack, r1.
  const auto lines = client.read_lines(3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(id_of(lines[0]), "r0");
  EXPECT_EQ(id_of(lines[1]), "s0");
  EXPECT_EQ(id_of(lines[2]), "r1");

  const NetStats stats = loop.net.stats();
  EXPECT_EQ(stats.pushes, 2u);
  EXPECT_EQ(stats.pushes_dropped, 0u);
}

TEST(NetServer, PushesCoexistWithMidPipelineRejections) {
  std::mutex mutex;
  std::condition_variable cv;
  bool released = false;
  ServerOptions options;
  options.threads = 2;
  options.handler = [&](const Request& request) {
    if (request.id == "r0") {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return released; });
    }
    return ok_response(request.id);
  };
  FakeHub hub;
  Loop loop(options, {}, &hub);

  Client client(loop.net.port());
  // A malformed line parks its bad_request rejection mid-pipeline while
  // r0 blocks; a push injected on top must not disturb the order.
  client.send_all(request_line("r0") + "{not json\n" + stream_frame("s0") +
                  request_line("r1"));
  StreamHub::PushFn push = hub.wait_push_fn();
  ASSERT_TRUE(static_cast<bool>(push));
  EXPECT_TRUE(push(push_line("p0")));
  {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
  }

  const auto lines = client.read_lines(5);
  ASSERT_EQ(lines.size(), 5u);
  // The push interleaves at an arbitrary point; everything else keeps
  // request order: r0, the rejection, s0's ack, r1.
  std::vector<std::string> ordered;
  std::size_t pushes_seen = 0;
  for (const auto& line : lines) {
    const Json doc = Json::parse(line);
    if (doc.find("tag") != nullptr) {
      ++pushes_seen;
      continue;
    }
    ordered.push_back(line);
  }
  EXPECT_EQ(pushes_seen, 1u);
  ASSERT_EQ(ordered.size(), 4u);
  EXPECT_EQ(id_of(ordered[0]), "r0");
  const Json bad = Json::parse(ordered[1]);
  EXPECT_FALSE(bad.at("ok").as_bool());
  EXPECT_EQ(bad.at("error").as_string(), "bad_request");
  EXPECT_EQ(id_of(ordered[2]), "s0");
  EXPECT_EQ(id_of(ordered[3]), "r1");
}

TEST(NetServer, PushToClosedConnectionReportsDropped) {
  ServerOptions options;
  options.threads = 1;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  FakeHub hub;
  Loop loop(options, {}, &hub);

  {
    Client client(loop.net.port());
    client.send_all(stream_frame("s0"));
    ASSERT_EQ(client.read_lines(1).size(), 1u);
  }  // client disconnects
  StreamHub::PushFn push = hub.wait_push_fn();
  ASSERT_TRUE(static_cast<bool>(push));
  // The loop notices the EOF and tears the streaming connection down,
  // telling the hub; a late push must fail cleanly, not write to a
  // dead socket.
  for (int i = 0; i < 2000 && !hub.was_dropped(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(hub.was_dropped());
  EXPECT_FALSE(push(push_line("late")));
  EXPECT_EQ(loop.net.stats().pushes_dropped, 1u);
}

TEST(NetServer, StreamingConnectionsAreNotReapedAsIdle) {
  ServerOptions options;
  options.threads = 1;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  NetServerOptions net_options;
  net_options.idle_timeout_ms = 50.0;
  FakeHub hub;
  Loop loop(options, net_options, &hub);

  Client client(loop.net.port());
  client.send_all(stream_frame("s0"));
  ASSERT_EQ(client.read_lines(1).size(), 1u);
  // Quiet for several idle periods: a live session holds the line open.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_EQ(loop.net.stats().idle_closed, 0u);
  client.send_all(request_line("r0"));
  const auto lines = client.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(id_of(lines[0]), "r0");
}

TEST(NetServer, TcpInputBeyondTheBufferCapClosesTheConnection) {
  ServerOptions options;
  options.threads = 1;
  NetServerOptions net_options;
  net_options.max_buffered_bytes = 16 * 1024;
  Loop loop(options, net_options);

  // A newline-free stream never becomes a request: past the cap the
  // unterminated line closes the connection instead of growing forever
  // (possibly before the whole stream is sent, so a failed send is fine).
  Client client(loop.net.port());
  const std::string stream(64 * 1024, 'a');
  [[maybe_unused]] const ssize_t put =
      ::send(client.fd, stream.data(), stream.size(), MSG_NOSIGNAL);
  EXPECT_TRUE(client.read_eof());
  EXPECT_EQ(loop.net.stats().overflow_closed, 1u);
}

// --- Adopted descriptor pairs (mwcd's stdin/stdout) ---------------------

/// SIGPIPE ignored for the scope, as mwcd does: writes to a pipe whose
/// reader is gone then fail with EPIPE instead of killing the process.
struct IgnoreSigpipe {
  struct sigaction saved {};
  IgnoreSigpipe() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &saved);
  }
  ~IgnoreSigpipe() { ::sigaction(SIGPIPE, &saved, nullptr); }
};

struct Pipe {
  int read = -1;
  int write = -1;
  Pipe() {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    read = fds[0];
    write = fds[1];
  }
  ~Pipe() {
    close_read();
    close_write();
  }
  void close_read() {
    if (read >= 0) ::close(read);
    read = -1;
  }
  void close_write() {
    if (write >= 0) ::close(write);
    write = -1;
  }
};

/// The server side of a pipe pair: requests travel `in`, replies `out`.
/// server_in()/server_out() hand in.read and out.write to the caller.
struct PipePair {
  Pipe in;
  Pipe out;
  int server_in() {
    const int fd = in.read;
    in.read = -1;
    return fd;
  }
  int server_out() {
    const int fd = out.write;
    out.write = -1;
    return fd;
  }
};

/// A fresh temp file path for this test binary.
std::string temp_path(const char* tag) {
  std::string path = ::testing::TempDir() + "event_loop_" + tag + "_XXXXXX";
  const int fd = ::mkstemp(path.data());
  EXPECT_GE(fd, 0);
  ::close(fd);
  return path;
}

TEST(NetServerAdopt, SlowMissBeforeInlineHitAnswersInRequestOrder) {
  PipePair pipes;
  ServerOptions options;
  options.threads = 2;
  Loop loop(options, {}, nullptr, {pipes.server_in(), pipes.server_out()});

  write_all(pipes.in.write, preset_line("prime", 1, 40));
  ASSERT_EQ(read_lines(pipes.out.read, 1).size(), 1u);
  // The hit is answered on the loop thread while the miss still solves;
  // it must wait for its turn.
  write_all(pipes.in.write,
            preset_line("miss", 7, 2000) + preset_line("hit", 1, 40));
  const auto lines = read_lines(pipes.out.read, 2);
  ASSERT_EQ(lines.size(), 2u);
  const Json miss = Json::parse(lines[0]);
  const Json hit = Json::parse(lines[1]);
  EXPECT_EQ(miss.at("id").as_string(), "miss");
  EXPECT_FALSE(miss.at("cached").as_bool());
  EXPECT_EQ(hit.at("id").as_string(), "hit");
  EXPECT_TRUE(hit.at("cached").as_bool());
}

TEST(NetServerAdopt, StreamFramesReachTheHub) {
  PipePair pipes;
  ServerOptions options;
  options.threads = 1;
  FakeHub hub;
  Loop loop(options, {}, &hub, {pipes.server_in(), pipes.server_out()});

  write_all(pipes.in.write, stream_frame("s0"));
  const auto ack = read_lines(pipes.out.read, 1);
  ASSERT_EQ(ack.size(), 1u);
  EXPECT_EQ(id_of(ack[0]), "s0");
  EXPECT_TRUE(Json::parse(ack[0]).at("ok").as_bool());

  StreamHub::PushFn push = hub.wait_push_fn();
  ASSERT_TRUE(static_cast<bool>(push));
  EXPECT_TRUE(push(push_line("p0")));
  const auto pushed = read_lines(pipes.out.read, 1);
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_EQ(Json::parse(pushed[0]).at("tag").as_string(), "p0");
}

TEST(NetServerAdopt, EofFlushesEveryOwedResponseAndEndsRun) {
  PipePair pipes;
  ServerOptions options;
  options.threads = 2;
  options.handler = [](const Request& request) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return ok_response(request.id);
  };
  Loop loop(options, {}, nullptr, {pipes.server_in(), pipes.server_out()});

  std::string burst = request_line("r0") + request_line("r1");
  burst += request_line("r2");
  burst.pop_back();  // EOF ends the unterminated final line
  write_all(pipes.in.write, burst);
  pipes.in.close_write();

  ASSERT_TRUE(loop.returns());  // no request_stop()
  const auto lines = read_lines(pipes.out.read, 3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(id_of(lines[0]), "r0");
  EXPECT_EQ(id_of(lines[1]), "r1");
  EXPECT_EQ(id_of(lines[2]), "r2");
  EXPECT_TRUE(read_eof(pipes.out.read));
  const NetStats stats = loop.net.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.closed, 1u);
  EXPECT_EQ(stats.responses, 3u);
}

TEST(NetServerAdopt, RegularFilesAnswerEveryLineBeyondTheBufferCap) {
  // epoll refuses regular files (EPERM): they are always ready. Each
  // line fits the 16 KiB cap, the file (40 lines of ~1 KiB) does not.
  const std::string in_path = temp_path("in");
  const std::string out_path = temp_path("out");
  {
    std::ofstream in(in_path);
    for (int i = 0; i < 40; ++i) {
      std::string line = request_line("r" + std::to_string(i));
      line.insert(1, 1024, ' ');  // JSON whitespace pads the line
      in << line;
    }
  }
  ServerOptions options;
  options.threads = 2;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  NetServerOptions net_options;
  net_options.max_buffered_bytes = 16 * 1024;
  {
    Loop loop(options, net_options, nullptr,
              {::open(in_path.c_str(), O_RDONLY),
               ::open(out_path.c_str(), O_WRONLY | O_TRUNC)});
    ASSERT_TRUE(loop.returns());
    EXPECT_EQ(loop.net.stats().overflow_closed, 0u);
  }
  std::ifstream out(out_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(out, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 40u);
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(id_of(lines[i]), "r" + std::to_string(i));
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(NetServerAdopt, DevNullInputEndsRunAtOnce) {
  Pipe out;
  ServerOptions options;
  options.threads = 1;
  Loop loop(options, {}, nullptr, {::open("/dev/null", O_RDONLY), out.write});
  out.write = -1;  // adopted
  ASSERT_TRUE(loop.returns());
  EXPECT_TRUE(read_eof(out.read));
  EXPECT_EQ(loop.net.stats().requests, 0u);
  EXPECT_EQ(loop.net.stats().closed, 1u);
}

TEST(NetServerAdopt, ClosedOutputEndsTheConnectionWithoutHanging) {
  const IgnoreSigpipe ignore;
  PipePair pipes;
  ServerOptions options;
  options.threads = 1;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  Loop loop(options, {}, nullptr, {pipes.server_in(), pipes.server_out()});

  // The reader is gone while input stays open: the reply's write fails
  // with EPIPE and closes the connection, which ends run().
  pipes.out.close_read();
  write_all(pipes.in.write, request_line("r0"));
  ASSERT_TRUE(loop.returns());
  EXPECT_EQ(loop.net.stats().closed, 1u);
}

TEST(NetServerAdopt, InheritedDescriptorsKeepTheirFlags) {
  PipePair pipes;
  // Duplicates share the open file description, hence its flags, which
  // the server must never change: it reads and writes private ones.
  const int in_alias = ::dup(pipes.in.read);
  const int out_alias = ::dup(pipes.out.write);
  const int in_flags = ::fcntl(in_alias, F_GETFL);
  const int out_flags = ::fcntl(out_alias, F_GETFL);
  ASSERT_EQ(in_flags & O_NONBLOCK, 0);
  ASSERT_EQ(out_flags & O_NONBLOCK, 0);
  ServerOptions options;
  options.threads = 1;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  {
    Loop loop(options, {}, nullptr, {pipes.server_in(), pipes.server_out()});
    write_all(pipes.in.write, request_line("r0"));
    ASSERT_EQ(read_lines(pipes.out.read, 1).size(), 1u);
    EXPECT_EQ(::fcntl(in_alias, F_GETFL), in_flags);
    EXPECT_EQ(::fcntl(out_alias, F_GETFL), out_flags);
    pipes.in.close_write();
    ASSERT_TRUE(loop.returns());
  }
  EXPECT_EQ(::fcntl(in_alias, F_GETFL), in_flags);
  EXPECT_EQ(::fcntl(out_alias, F_GETFL), out_flags);
  ::close(in_alias);
  ::close(out_alias);
}

TEST(NetServerAdopt, SlowOutputReaderGetsEveryAnswer) {
  // A request file is read as fast as the disk allows, while the answers
  // (inline hits of a primed spec, ~1 KiB each) leave through a small
  // pipe read slowly. Backpressure must hold the input back rather than
  // let the owed output reach the 16 KiB cap and drop the rest.
  const std::string in_path = temp_path("slow_in");
  constexpr int kLines = 200;
  {
    std::ofstream in(in_path);
    for (int i = 0; i < kLines; ++i)
      in << preset_line("h" + std::to_string(i), 1, 40);
  }
  Pipe out;
  ::fcntl(out.write, F_SETPIPE_SZ, 4096);
  ServerOptions options;
  options.threads = 1;
  Server server(options);
  std::promise<void> primed;
  const std::string prime = preset_line("prime", 1, 40);
  ASSERT_TRUE(server.submit_line(prime.substr(0, prime.size() - 1),
                                 [&](const Response&) { primed.set_value(); }));
  primed.get_future().wait();
  AdminHandler admin(server, AdminInfo{});
  NetServerOptions net_options;
  net_options.max_buffered_bytes = 16 * 1024;
  NetServer net(server, &admin, net_options);
  const int in_fd = ::open(in_path.c_str(), O_RDONLY);
  ASSERT_TRUE(net.adopt(in_fd, out.write, "stdio"));
  ::close(in_fd);
  out.close_write();
  std::thread loop([&net] { net.run(); });

  std::string got;
  char chunk[1024];
  for (;;) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    pollfd pfd{out.read, POLLIN, 0};
    if (::poll(&pfd, 1, 10000) <= 0) break;
    const ssize_t n = ::read(out.read, chunk, sizeof chunk);
    if (n <= 0) break;
    got.append(chunk, static_cast<std::size_t>(n));
  }
  loop.join();
  std::vector<std::string> lines;
  for (std::size_t start = 0, nl; (nl = got.find('\n', start)) !=
                                  std::string::npos;
       start = nl + 1)
    lines.push_back(got.substr(start, nl - start));
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kLines));
  EXPECT_GT(got.size(), 4 * net_options.max_buffered_bytes);
  for (int i = 0; i < kLines; ++i) {
    const Json doc = Json::parse(lines[static_cast<std::size_t>(i)]);
    EXPECT_EQ(doc.at("id").as_string(), "h" + std::to_string(i));
    EXPECT_TRUE(doc.at("cached").as_bool());
  }
  EXPECT_EQ(net.stats().overflow_closed, 0u);
  std::remove(in_path.c_str());
}

TEST(NetServerAdopt, StopWaitsPastTheDrainDeadlineForAWorker) {
  // The drain deadline is for peers that stop reading. A connection
  // still waiting on a worker when it passes gets its answer.
  PipePair pipes;
  ServerOptions options;
  options.threads = 1;
  options.handler = [](const Request& request) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    return ok_response(request.id);
  };
  NetServerOptions net_options;
  net_options.drain_timeout_ms = 50.0;
  Loop loop(options, net_options, nullptr,
            {pipes.server_in(), pipes.server_out()});
  write_all(pipes.in.write, request_line("slow"));
  for (int i = 0; i < 2000 && loop.net.stats().requests == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(loop.net.stats().requests, 1u);
  loop.net.request_stop();
  ASSERT_TRUE(loop.returns());
  const auto lines = read_lines(pipes.out.read, 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(id_of(lines[0]), "slow");
  EXPECT_EQ(loop.net.stats().drain_dropped, 0u);
}

TEST(NetServerAdopt, InputBeyondTheBufferCapClosesTheConnection) {
  const IgnoreSigpipe ignore;  // the server may close mid-write
  PipePair pipes;
  ServerOptions options;
  options.threads = 1;
  NetServerOptions net_options;
  net_options.max_buffered_bytes = 16 * 1024;
  Loop loop(options, net_options, nullptr,
            {pipes.server_in(), pipes.server_out()});

  write_all(pipes.in.write, std::string(32 * 1024, 'a'));
  ASSERT_TRUE(loop.returns());
  EXPECT_TRUE(read_eof(pipes.out.read));
  EXPECT_EQ(loop.net.stats().overflow_closed, 1u);
}

TEST(NetServerAdopt, PeerLabelsTellStdioFromTcp) {
  const std::string log_path = temp_path("access");
  auto log = std::make_unique<AccessLog>(log_path);
  ASSERT_TRUE(log->ok());
  PipePair pipes;
  ServerOptions options;
  options.threads = 1;
  options.handler = [](const Request& request) {
    return ok_response(request.id);
  };
  options.access_log = log.get();
  {
    Server server(options);
    AdminHandler admin(server, AdminInfo{});
    NetServer net(server, &admin);
    ASSERT_TRUE(net.start());
    ASSERT_TRUE(net.adopt(pipes.in.read, pipes.out.write, "stdio"));
    std::thread loop([&net] { net.run(); });

    write_all(pipes.in.write, request_line("via-stdio"));
    ASSERT_EQ(read_lines(pipes.out.read, 1).size(), 1u);
    Client client(net.port());
    client.send_all(request_line("via-tcp"));
    ASSERT_EQ(client.read_lines(1).size(), 1u);
    net.request_stop();
    loop.join();
    server.shutdown();  // every record is written once the drain ends

    std::map<std::string, std::string> tracez;
    for (const RequestRecord& r : server.recent_requests())
      tracez[r.id] = r.peer;
    EXPECT_EQ(tracez["via-stdio"], "stdio");
    EXPECT_EQ(tracez["via-tcp"], "tcp");
  }
  log.reset();  // flushes
  std::ifstream in(log_path);
  std::map<std::string, std::string> logged;
  for (std::string line; std::getline(in, line);) {
    const Json doc = Json::parse(line);
    logged[doc.at("id").as_string()] = doc.at("peer").as_string();
  }
  EXPECT_EQ(logged["via-stdio"], "stdio");
  EXPECT_EQ(logged["via-tcp"], "tcp");
  std::remove(log_path.c_str());
}

}  // namespace
}  // namespace mwc::svc
