// Tiny command-line flag parser shared by bench and example binaries.
// Supports --name=value, --name value, and boolean --name; positional
// arguments are collected. A malformed or out-of-range value falls back
// to the default and records error(); allow_only() records an unknown
// flag. Binaries that must refuse a bad command line check error().
#pragma once

#include <climits>
#include <cmath>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mwc {

class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  /// True if --name was present (with or without a value).
  bool has(const std::string& name) const;

  /// The get_*_or accessors return `def` when --name is absent, or when
  /// its value does not parse completely or lies outside [lo, hi].
  std::optional<std::string> get(const std::string& name) const;
  std::string get_or(const std::string& name, const std::string& def) const;
  long long get_int_or(const std::string& name, long long def,
                       long long lo = LLONG_MIN,
                       long long hi = LLONG_MAX) const;
  double get_double_or(const std::string& name, double def,
                       double lo = -HUGE_VAL, double hi = HUGE_VAL) const;
  bool get_bool_or(const std::string& name, bool def) const;

  /// Records an error for the first flag not named in `known`, or for a
  /// positional argument beyond the first `positionals`.
  void allow_only(std::initializer_list<const char*> known,
                  std::size_t positionals = 0);

  /// Empty while every flag read so far was valid, else one line naming
  /// the first bad flag.
  const std::string& error() const { return error_; }

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  mutable std::string error_;

  void fail(std::string message) const;
};

/// Reads an environment variable as integer, returning `def` when unset or
/// malformed. Benches use MWC_TRIALS to scale trial counts.
long long env_int_or(const char* name, long long def);

}  // namespace mwc
