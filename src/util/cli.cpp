#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace mwc {

CliArgs::CliArgs(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      continue;
    }
    // --name value (when the next token is not itself a flag), else bool.
    if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      flags_[std::string(arg)] = "";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::optional<std::string> CliArgs::get(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_or(const std::string& name,
                            const std::string& def) const {
  const auto v = get(name);
  return v ? *v : def;
}

long long CliArgs::get_int_or(const std::string& name, long long def,
                              long long lo, long long hi) const {
  const auto v = get(name);
  if (!v) return def;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (!v->empty() && *end == '\0' && errno == 0 && parsed >= lo &&
      parsed <= hi)
    return parsed;
  fail("--" + name + ": expected an integer in [" + std::to_string(lo) +
       ", " + std::to_string(hi) + "], got '" + *v + "'");
  return def;
}

double CliArgs::get_double_or(const std::string& name, double def,
                              double lo, double hi) const {
  const auto v = get(name);
  if (!v) return def;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  // NaN fails every comparison, so it is never in range.
  if (!v->empty() && *end == '\0' && parsed >= lo && parsed <= hi)
    return parsed;
  char range[96];
  std::snprintf(range, sizeof range, "[%.17g, %.17g]", lo, hi);
  fail("--" + name + ": expected a number in " + range + ", got '" + *v +
       "'");
  return def;
}

bool CliArgs::get_bool_or(const std::string& name, bool def) const {
  const auto v = get(name);
  if (!v) return def;
  if (v->empty() || *v == "1" || *v == "true" || *v == "yes") return true;
  if (*v == "0" || *v == "false" || *v == "no") return false;
  fail("--" + name + ": expected true or false, got '" + *v + "'");
  return def;
}

void CliArgs::allow_only(std::initializer_list<const char*> known) {
  for (const auto& [flag, value] : flags_)
    if (std::none_of(known.begin(), known.end(),
                     [&](const char* name) { return flag == name; }))
      return fail("unknown flag --" + flag);
  if (!positional_.empty())
    fail("unexpected argument '" + positional_.front() + "'");
}

void CliArgs::fail(std::string message) const {
  if (error_.empty()) error_ = std::move(message);
}

long long env_int_or(const char* name, long long def) {
  const char* raw = std::getenv(name);
  if (!raw || !*raw) return def;
  char* end = nullptr;
  const long long parsed = std::strtoll(raw, &end, 10);
  return (end && *end == '\0') ? parsed : def;
}

}  // namespace mwc
