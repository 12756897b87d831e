// Minimal JSON document model for the mwc::svc wire format.
//
// The serving layer speaks JSONL (one JSON document per line), so it
// needs what the rest of the repo never did: *parsing* JSON, not just
// emitting it. This is a deliberately small recursive-descent
// implementation — objects keep insertion order (deterministic dumps),
// numbers are doubles (round-tripped with %.17g semantics), and parse
// errors throw JsonError with a byte offset. No external dependency;
// stdlib only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mwc::svc {

/// Malformed document (parse) or wrong-type access (as_*).
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

/// One JSON value. Copyable value type; arrays/objects own their
/// children. Objects preserve insertion order so dump() is stable.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), number_(v) {}
  Json(int v) : Json(static_cast<double>(v)) {}
  Json(std::int64_t v) : Json(static_cast<double>(v)) {}
  Json(std::size_t v) : Json(static_cast<double>(v)) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(const char* s) : Json(std::string(s)) {}

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  /// Parses one complete document; trailing non-whitespace is an error.
  /// Throws JsonError on malformed input.
  static Json parse(std::string_view text);

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  /// Typed accessors; throw JsonError on a type mismatch.
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;  ///< as_double, checked integral and in range
  const std::string& as_string() const;
  const std::vector<Json>& items() const;  ///< array elements
  /// Object members in insertion order.
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Object member, or nullptr when absent (or not an object).
  const Json* find(std::string_view key) const;
  /// Object member; throws JsonError when absent.
  const Json& at(std::string_view key) const;

  /// Array append / object insert (replaces an existing key).
  void push_back(Json value);
  void set(std::string key, Json value);

  std::size_t size() const noexcept;

  /// Serializes compactly (no whitespace); objects in insertion order.
  std::string dump() const;

 private:
  void dump_to(std::string& out) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

/// Appends `s` as a JSON string literal (quotes + escapes) to `out`.
void append_json_escaped(std::string& out, std::string_view s);

/// Appends `v` in exactly the form Json::dump uses for numbers. Direct-
/// append serializers share this so their bytes match a Json-tree dump.
///   * whole numbers in the int64 range print as plain integers
///     (-0.0 prints "0");
///   * every other finite value prints as %.17g ("-1e+19", "2.5");
///   * NaN and ±inf have no JSON spelling and print as `null`.
void append_json_number(std::string& out, double v);

}  // namespace mwc::svc
