#include "svc/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace mwc::svc {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("3.25").as_double(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("-17").as_double(), -17.0);
  EXPECT_DOUBLE_EQ(Json::parse("2.5e3").as_double(), 2500.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNested) {
  const Json doc = Json::parse(
      R"({"a":[1,2,{"b":true}],"c":{"d":null},"e":"x"})");
  ASSERT_TRUE(doc.is_object());
  const Json& a = doc.at("a");
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a.items()[1].as_double(), 2.0);
  EXPECT_TRUE(a.items()[2].at("b").as_bool());
  EXPECT_TRUE(doc.at("c").at("d").is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, StringEscapes) {
  const Json doc = Json::parse(R"("line\n\t\"q\" \\ A")");
  EXPECT_EQ(doc.as_string(), "line\n\t\"q\" \\ A");
  // Control characters and quotes must re-escape on dump (controls use
  // the uniform \uXXXX form).
  Json s("a\"b\n\x01");
  EXPECT_EQ(s.dump(), "\"a\\\"b\\u000a\\u0001\"");
  EXPECT_EQ(Json::parse(s.dump()).as_string(), "a\"b\n\x01");
}

TEST(Json, RoundTripsThroughDump) {
  const std::string text =
      R"({"name":"x","vals":[1,2.5,-3],"flag":false,"nested":{"k":"v"}})";
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.dump(), text);  // objects preserve insertion order
  EXPECT_EQ(Json::parse(doc.dump()).dump(), text);
}

TEST(Json, IntegralNumbersPrintWithoutExponent) {
  Json j = Json::object();
  j.set("big", Json(static_cast<std::int64_t>(1234567890123LL)));
  j.set("zero", Json(0.0));
  EXPECT_EQ(j.dump(), R"({"big":1234567890123,"zero":0})");
}

TEST(Json, NumberRenderingIsDefinedEverywhere) {
  const auto render = [](double v) {
    std::string out;
    append_json_number(out, v);
    return out;
  };
  // Whole numbers in the int64 range print as integers.
  EXPECT_EQ(render(9007199254740992.0), "9007199254740992");  // 2^53
  EXPECT_EQ(render(-9223372036854775808.0), "-9223372036854775808");
  EXPECT_EQ(render(-0.0), "0");
  EXPECT_EQ(render(-17.0), "-17");
  // Beyond int64 (no defined cast) and fractions print as %.17g.
  EXPECT_EQ(render(-1e19), "-1e+19");
  EXPECT_EQ(render(9223372036854775808.0), "9.2233720368547758e+18");
  EXPECT_EQ(render(1e300), "1.0000000000000001e+300");
  EXPECT_EQ(render(2.5), "2.5");
  // Non-finite values have no JSON spelling: null keeps the line valid.
  EXPECT_EQ(render(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(render(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(render(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_TRUE(Json::parse("[" + render(1e300) + "," +
                          render(std::nan("")) + "]")
                  .is_array());
}

TEST(Json, AsIntRejectsValuesOutsideInt64) {
  EXPECT_EQ(Json::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW(Json::parse("9223372036854775808").as_int(), JsonError);
  EXPECT_THROW(Json::parse("1e300").as_int(), JsonError);
  EXPECT_THROW(Json::parse("-1e19").as_int(), JsonError);
  EXPECT_THROW(Json::parse("2.5").as_int(), JsonError);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);  // trailing garbage
}

TEST(Json, RejectsNonFiniteNumbers) {
  EXPECT_THROW(Json::parse("NaN"), JsonError);
  EXPECT_THROW(Json::parse("nan"), JsonError);
  EXPECT_THROW(Json::parse("Infinity"), JsonError);
  EXPECT_THROW(Json::parse("-Infinity"), JsonError);
  EXPECT_THROW(Json::parse(R"({"x":NaN})"), JsonError);
  EXPECT_THROW(Json::parse(R"([1,Infinity])"), JsonError);
  // Overflow to infinity during conversion is also rejected.
  EXPECT_THROW(Json::parse("1e999"), JsonError);
}

TEST(Json, RejectsDuplicateObjectKeys) {
  EXPECT_THROW(Json::parse(R"({"a":1,"a":2})"), JsonError);
  EXPECT_THROW(Json::parse(R"({"a":{"b":1,"b":2}})"), JsonError);
  // Same key at different depths is fine.
  EXPECT_NO_THROW(Json::parse(R"({"a":{"a":1}})"));
}

TEST(Json, CapsNestingDepth) {
  const auto nested = [](std::size_t depth) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) text += "[";
    text += "1";
    for (std::size_t i = 0; i < depth; ++i) text += "]";
    return text;
  };
  EXPECT_NO_THROW(Json::parse(nested(64)));
  EXPECT_THROW(Json::parse(nested(65)), JsonError);
  // Mixed object/array nesting counts both container kinds.
  std::string mixed;
  for (std::size_t i = 0; i < 33; ++i) mixed += R"({"k":[)";
  mixed += "1";
  for (std::size_t i = 0; i < 33; ++i) mixed += "]}";
  EXPECT_THROW(Json::parse(mixed), JsonError);
}

TEST(Json, TypeMismatchThrows) {
  const Json doc = Json::parse("{\"a\":1}");
  EXPECT_THROW(doc.at("a").as_string(), JsonError);
  EXPECT_THROW(doc.at("b"), JsonError);
  EXPECT_THROW(doc.as_double(), JsonError);
}

}  // namespace
}  // namespace mwc::svc
