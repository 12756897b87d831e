// mwcctl — command-line client for the mwc.svc.admin.v1 endpoint.
//
// Talks to a running mwcd over TCP, sends one admin request, and
// pretty-prints the response for humans (or emits machine-readable
// payloads for scripts):
//
//   mwcctl statusz --connect 127.0.0.1:9191
//   mwcctl metrics --connect 127.0.0.1:9191 --openmetrics --out met.txt
//   mwcctl tracez  --connect 127.0.0.1:9191 --limit 5
//   mwcctl config  --connect 127.0.0.1:9191
//
// Flags:
//   --connect HOST:PORT  daemon address (required)
//   --openmetrics        metrics only: request the OpenMetrics text form
//   --limit N            tracez only: slowest-N window (default 10)
//   --raw                print the raw JSONL response line and exit
//   --out FILE           write the payload to FILE instead of stdout:
//                        the OpenMetrics text (--openmetrics), the
//                        mwc.metrics.v1 JSON (metrics), or the response
//                        section JSON (statusz/tracez/config)
//
// Exits 0 on an ok response, 1 on transport/daemon errors, 2 on usage
// errors (an unknown flag or a malformed value prints one line).
#include <cstdio>
#include <cstring>
#include <string>

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "svc/json.hpp"
#include "util/cli.hpp"

namespace {

using mwc::svc::Json;

int connect_tcp(const std::string& hostport) {
  const auto colon = hostport.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "mwcctl: --connect wants HOST:PORT\n");
    return -1;
  }
  const std::string host = hostport.substr(0, colon);
  const std::string port = hostport.substr(colon + 1);
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* info = nullptr;
  if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &info) != 0 ||
      info == nullptr) {
    std::fprintf(stderr, "mwcctl: cannot resolve %s\n", hostport.c_str());
    return -1;
  }
  const int fd = ::socket(info->ai_family, info->ai_socktype, 0);
  const bool ok =
      fd >= 0 && ::connect(fd, info->ai_addr, info->ai_addrlen) == 0;
  ::freeaddrinfo(info);
  if (!ok) {
    std::perror("mwcctl: connect");
    if (fd >= 0) ::close(fd);
    return -1;
  }
  return fd;
}

/// One round trip: send `request` (newline appended), read one line.
bool round_trip(int fd, const std::string& request, std::string* response) {
  const std::string line = request + "\n";
  if (::write(fd, line.data(), line.size()) !=
      static_cast<ssize_t>(line.size())) {
    std::perror("mwcctl: write");
    return false;
  }
  response->clear();
  char byte;
  ssize_t got;
  while ((got = ::read(fd, &byte, 1)) == 1) {
    if (byte == '\n') return true;
    response->push_back(byte);
  }
  std::fprintf(stderr, "mwcctl: connection closed before a response\n");
  return false;
}

std::string scalar_to_string(const Json& v) {
  if (v.is_string()) return v.as_string();
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  if (v.is_null()) return "null";
  if (v.is_number()) {
    char buf[64];
    const double d = v.as_double();
    if (d == static_cast<double>(static_cast<std::int64_t>(d)))
      std::snprintf(buf, sizeof buf, "%lld",
                    static_cast<long long>(d));
    else
      std::snprintf(buf, sizeof buf, "%.6g", d);
    return buf;
  }
  return v.dump();
}

/// Indented `key: value` rendering of nested objects (statusz, config).
void print_tree(const Json& node, int depth) {
  for (const auto& [key, value] : node.members()) {
    if (value.is_object()) {
      std::printf("%*s%s:\n", depth * 2, "", key.c_str());
      print_tree(value, depth + 1);
    } else {
      std::printf("%*s%-18s %s\n", depth * 2, "", (key + ":").c_str(),
                  scalar_to_string(value).c_str());
    }
  }
}

void print_tracez(const Json& tracez) {
  std::printf("recent-request ring: capacity %s, showing %s slowest\n",
              scalar_to_string(tracez.at("ring_capacity")).c_str(),
              scalar_to_string(tracez.at("count")).c_str());
  std::printf("%-18s %-8s %-6s %-22s %-12s %9s  %s\n", "trace_id", "id",
              "kind", "policy", "outcome", "total_ms", "stages_ms");
  for (const Json& r : tracez.at("slowest").items()) {
    const Json& t = r.at("t");
    char stages[160];
    std::snprintf(stages, sizeof stages,
                  "parse %.3f queue %.3f cache %.3f solve %.3f ser %.3f",
                  t.at("parse_ms").as_double(),
                  t.at("queue_ms").as_double(),
                  t.at("cache_ms").as_double(),
                  t.at("solve_ms").as_double(),
                  t.at("serialize_ms").as_double());
    std::printf("%-18s %-8s %-6s %-22s %-12s %9.3f  %s\n",
                r.at("trace_id").as_string().c_str(),
                r.at("id").as_string().c_str(),
                r.at("kind").as_string().c_str(),
                r.at("policy").as_string().c_str(),
                r.at("outcome").as_string().c_str(),
                r.at("latency_ms").as_double(), stages);
  }
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror("mwcctl: fopen --out");
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  mwc::CliArgs args(argc, argv);
  args.allow_only({"connect", "openmetrics", "limit", "raw", "out"}, 1);
  const auto& positional = args.positional();
  if (positional.empty()) {
    std::fprintf(stderr,
                 "usage: mwcctl statusz|metrics|tracez|config "
                 "--connect HOST:PORT [--openmetrics] [--limit N] "
                 "[--raw] [--out FILE]\n");
    return 2;
  }
  const std::string command = positional.front();
  if (command != "statusz" && command != "metrics" && command != "tracez" &&
      command != "config") {
    std::fprintf(stderr, "mwcctl: unknown command %s\n", command.c_str());
    return 2;
  }
  const std::string connect = args.get_or("connect", "");
  const bool openmetrics = args.get_bool_or("openmetrics", false);
  const long long limit = args.get_int_or("limit", 10, 1, 1 << 20);
  const bool raw = args.get_bool_or("raw", false);
  const std::string out_path = args.get_or("out", "");
  if (!args.error().empty()) {
    std::fprintf(stderr, "mwcctl: %s\n", args.error().c_str());
    return 2;
  }
  if (connect.empty()) {
    std::fprintf(stderr, "mwcctl: --connect HOST:PORT is required\n");
    return 2;
  }
  if (openmetrics && command != "metrics") {
    std::fprintf(stderr, "mwcctl: --openmetrics only applies to metrics\n");
    return 2;
  }

  Json request = Json::object();
  request.set("admin", Json(command));
  request.set("id", Json("mwcctl"));
  if (openmetrics) request.set("format", Json("openmetrics"));
  if (command == "tracez")
    request.set("limit", Json(static_cast<std::int64_t>(limit)));

  const int fd = connect_tcp(connect);
  if (fd < 0) return 1;
  std::string response_line;
  const bool got = round_trip(fd, request.dump(), &response_line);
  ::close(fd);
  if (!got) return 1;

  if (raw) {
    std::printf("%s\n", response_line.c_str());
    return 0;
  }

  Json response;
  try {
    response = Json::parse(response_line);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mwcctl: bad response: %s\n", e.what());
    return 1;
  }
  if (!response.at("ok").as_bool()) {
    std::fprintf(stderr, "mwcctl: daemon error: %s\n",
                 response.find("message") != nullptr
                     ? response.at("message").as_string().c_str()
                     : response.at("error").as_string().c_str());
    return 1;
  }

  try {
    if (command == "metrics" && openmetrics) {
      const std::string& text = response.at("openmetrics").as_string();
      if (!out_path.empty()) return write_file(out_path, text) ? 0 : 1;
      std::fwrite(text.data(), 1, text.size(), stdout);
      return 0;
    }
    const char* section = command == "metrics" ? "metrics" : command.c_str();
    const Json& payload = response.at(section);
    if (!out_path.empty())
      return write_file(out_path, payload.dump() + "\n") ? 0 : 1;
    if (command == "tracez") {
      print_tracez(payload);
    } else if (command == "metrics") {
      std::printf("%s\n", payload.dump().c_str());
    } else {
      print_tree(payload, 0);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mwcctl: malformed response payload: %s\n",
                 e.what());
    return 1;
  }
  return 0;
}
