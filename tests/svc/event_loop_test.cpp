#include "svc/event_loop.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

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

/// A NetServer over an injectable Server, with its loop on a thread.
struct Loop {
  Server server;
  AdminHandler admin;
  NetServer net;
  std::thread thread;

  explicit Loop(ServerOptions server_options,
                NetServerOptions net_options = {},
                StreamHub* sessions = nullptr)
      : server(std::move(server_options)),
        admin(server, AdminInfo{}),
        net(server, &admin, std::move(net_options), sessions) {
    EXPECT_TRUE(net.start());
    thread = std::thread([this] { net.run(); });
  }

  ~Loop() { stop(); }

  void stop() {
    net.request_stop();
    if (thread.joinable()) thread.join();
  }
};

/// Blocking test client with a 10 s receive timeout so a regression
/// fails instead of hanging the suite.
struct Client {
  int fd = -1;

  /// `rcvbuf` > 0 shrinks SO_RCVBUF before connect (tiny TCP window, so
  /// an unread peer backs the server's writes up quickly).
  explicit Client(int port, int rcvbuf = 0) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    timeval tv{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
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

  /// Reads until `n` full lines arrived (EOF or timeout end the read
  /// early — the caller's size assertion then fails loudly).
  std::vector<std::string> read_lines(std::size_t n) const {
    std::string buf;
    char chunk[65536];
    std::size_t newlines = 0;
    while (newlines < n) {
      const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
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

  /// True when the server closed the connection (read returns 0).
  bool read_eof() const {
    char chunk[256];
    for (;;) {
      const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
      if (got == 0) return true;
      if (got < 0) return false;  // timeout
    }
  }
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
  const auto preset = [](const std::string& id, std::uint64_t seed,
                         std::size_t n) {
    return RequestBuilder(id).preset(n, 3, 1000.0, seed).horizon(100.0)
               .to_json_line() +
           "\n";
  };
  ServerOptions options;
  options.threads = 2;
  Loop loop(options);
  Client client(loop.net.port());
  client.send_all(preset("prime", 1, 40));
  const auto primed = client.read_lines(1);
  ASSERT_EQ(primed.size(), 1u);
  const std::uint64_t wakeups_before = loop.net.stats().wakeups;

  std::string burst;
  std::vector<std::string> ids;
  std::size_t misses = 0;
  for (std::size_t i = 0; i < 24; ++i) {
    const std::string id = "q" + std::to_string(i);
    if (i % 6 == 0) {
      burst += preset(id, 100 + i, 2000);  // a cold solve on the pool
      ++misses;
    } else {
      burst += preset(id, 1, 40);  // an inline hit
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

TEST(NetServer, InlineHitBurstBeyondTheBufferCapClosesTheConnection) {
  // Hits answer inside the read loop, before any flush: a burst whose
  // answers outgrow the per-connection cap closes the connection instead
  // of buffering them all.
  const std::string hit = RequestBuilder("h").preset(40, 3, 1000.0, 1)
                              .horizon(100.0)
                              .to_json_line() +
                          "\n";
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
  EXPECT_TRUE(client.read_eof());
  EXPECT_EQ(loop.net.stats().overflow_closed, 1u);
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

}  // namespace
}  // namespace mwc::svc
