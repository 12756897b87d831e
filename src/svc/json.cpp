#include "svc/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace mwc::svc {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  /// Containers may nest at most this deep; crafted inputs like
  /// "[[[[..." otherwise recurse without bound.
  static constexpr std::size_t kMaxDepth = 64;

  Json parse_document() {
    skip_ws();
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("json: " + what + " at offset " +
                    std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size())
      throw JsonError("json: unexpected end of input at offset " +
                      std::to_string(pos_));
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  void expect_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal)
      fail("invalid literal");
    pos_ += literal.size();
  }

  Json parse_value() {
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json(parse_string());
      case 't':
        expect_literal("true");
        return Json(true);
      case 'f':
        expect_literal("false");
        return Json(false);
      case 'n':
        expect_literal("null");
        return Json();
      case 'N':
      case 'I':
      case 'i':
        fail("NaN/Infinity are not valid JSON");
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    if (++depth_ > kMaxDepth) fail("nesting too deep (depth cap 64)");
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) {
      --depth_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      if (obj.find(key) != nullptr)
        fail("duplicate object key \"" + key + "\"");
      skip_ws();
      expect(':');
      skip_ws();
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (consume('}')) {
        --depth_;
        return obj;
      }
      expect(',');
    }
  }

  Json parse_array() {
    expect('[');
    if (++depth_ > kMaxDepth) fail("nesting too deep (depth cap 64)");
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) {
      --depth_;
      return arr;
    }
    while (true) {
      skip_ws();
      arr.push_back(parse_value());
      skip_ws();
      if (consume(']')) {
        --depth_;
        return arr;
      }
      expect(',');
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // \uXXXX — decode the code point as UTF-8 (no surrogate-pair
          // recombination; the wire format is ASCII in practice).
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= unsigned(h - '0');
            else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
            else fail("invalid \\u escape");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
            text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      pos_ = start;
      fail("invalid number");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

void append_json_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

namespace {

/// True when `v` is a whole number inside the int64 range, so the cast
/// below it is defined (NaN, ±inf and |v| >= 2^63 all fail the check).
bool is_int64_integral(double v) {
  constexpr double kTwo63 = 9223372036854775808.0;
  return v >= -kTwo63 && v < kTwo63 && v == std::trunc(v);
}

}  // namespace

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  // Integral values print without exponent/decimal noise so ids and
  // counts stay readable; everything else keeps the historical %.17g
  // round-trip bytes (the v1 golden responses pin them). Both go through
  // std::to_chars, which is specified to match printf in the C locale
  // and, unlike snprintf, costs nanoseconds per sensor id.
  const auto result =
      is_int64_integral(v)
          ? std::to_chars(buf, buf + sizeof buf, static_cast<std::int64_t>(v))
          : std::to_chars(buf, buf + sizeof buf, v,
                          std::chars_format::general, 17);
  out.append(buf, result.ptr);
}

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) throw JsonError("json: not a bool");
  return bool_;
}

double Json::as_double() const {
  if (type_ != Type::kNumber) throw JsonError("json: not a number");
  return number_;
}

std::int64_t Json::as_int() const {
  const double v = as_double();
  if (!is_int64_integral(v)) throw JsonError("json: not an integer");
  return static_cast<std::int64_t>(v);
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) throw JsonError("json: not a string");
  return string_;
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::kArray) throw JsonError("json: not an array");
  return array_;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (type_ != Type::kObject) throw JsonError("json: not an object");
  return object_;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* found = find(key);
  if (found == nullptr)
    throw JsonError("json: missing key \"" + std::string(key) + "\"");
  return *found;
}

void Json::push_back(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) throw JsonError("json: not an array");
  array_.push_back(std::move(value));
}

void Json::set(std::string key, Json value) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) throw JsonError("json: not an object");
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

std::size_t Json::size() const noexcept {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  return 0;
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      append_json_number(out, number_);
      break;
    case Type::kString:
      append_json_escaped(out, string_);
      break;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        array_[i].dump_to(out);
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        append_json_escaped(out, object_[i].first);
        out += ':';
        object_[i].second.dump_to(out);
      }
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

}  // namespace mwc::svc
