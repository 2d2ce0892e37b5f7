// Unit tests for src/util/json.h: value model, parser, writer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "util/json.h"

namespace mvsim::json {
namespace {

TEST(JsonValue, KindsAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(nullptr).is_null());
  EXPECT_TRUE(Value(true).as_bool());
  EXPECT_DOUBLE_EQ(Value(3.5).as_number(), 3.5);
  EXPECT_DOUBLE_EQ(Value(7).as_number(), 7.0);
  EXPECT_EQ(Value("hi").as_string(), "hi");
  EXPECT_TRUE(Value(Array{}).is_array());
  EXPECT_TRUE(Value(Object{}).is_object());
}

TEST(JsonValue, WrongKindAccessThrows) {
  Value v(3.5);
  EXPECT_THROW((void)v.as_string(), std::runtime_error);
  EXPECT_THROW((void)v.as_bool(), std::runtime_error);
  EXPECT_THROW((void)v.as_array(), std::runtime_error);
  EXPECT_THROW((void)Value("x").as_number(), std::runtime_error);
}

TEST(JsonObject, PreservesInsertionOrderAndOverwrites) {
  Object o;
  o.set("z", Value(1));
  o.set("a", Value(2));
  o.set("z", Value(3));
  ASSERT_EQ(o.size(), 2u);
  EXPECT_EQ(o.entries()[0].first, "z");
  EXPECT_EQ(o.entries()[1].first, "a");
  EXPECT_DOUBLE_EQ(o.at("z").as_number(), 3.0);
  EXPECT_TRUE(o.contains("a"));
  EXPECT_FALSE(o.contains("missing"));
  EXPECT_EQ(o.find("missing"), nullptr);
  EXPECT_THROW((void)o.at("missing"), std::out_of_range);
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_DOUBLE_EQ(parse("0").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(parse("-12.5").as_number(), -12.5);
  EXPECT_DOUBLE_EQ(parse("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(parse("2.5E-2").as_number(), 0.025);
  EXPECT_EQ(parse("\"abc\"").as_string(), "abc");
}

TEST(JsonParse, NestedStructures) {
  Value v = parse(R"({
    "name": "fig2",
    "delays": [6, 12, 24],
    "nested": {"enabled": true, "ratio": 0.25},
    "note": null
  })");
  const Object& o = v.as_object();
  EXPECT_EQ(o.at("name").as_string(), "fig2");
  const Array& delays = o.at("delays").as_array();
  ASSERT_EQ(delays.size(), 3u);
  EXPECT_DOUBLE_EQ(delays[1].as_number(), 12.0);
  EXPECT_TRUE(o.at("nested").as_object().at("enabled").as_bool());
  EXPECT_TRUE(o.at("note").is_null());
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b")").as_string(), "a\"b");
  EXPECT_EQ(parse(R"("a\\b")").as_string(), "a\\b");
  EXPECT_EQ(parse(R"("line\nbreak\ttab")").as_string(), "line\nbreak\ttab");
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
  EXPECT_EQ(parse(R"("é")").as_string(), "\xc3\xa9");   // é in UTF-8
  EXPECT_EQ(parse(R"("€")").as_string(), "\xe2\x82\xac");  // €
}

TEST(JsonParse, ErrorsCarryPosition) {
  try {
    (void)parse("{\n  \"a\": tru\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_GT(e.column(), 1);
  }
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_THROW((void)parse(""), ParseError);
  EXPECT_THROW((void)parse("{"), ParseError);
  EXPECT_THROW((void)parse("[1,]"), ParseError);
  EXPECT_THROW((void)parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW((void)parse("{\"a\": 1,}"), ParseError);
  EXPECT_THROW((void)parse("01"), ParseError);
  EXPECT_THROW((void)parse("1."), ParseError);
  EXPECT_THROW((void)parse("1e"), ParseError);
  EXPECT_THROW((void)parse("\"unterminated"), ParseError);
  EXPECT_THROW((void)parse("\"bad\\q\""), ParseError);
  EXPECT_THROW((void)parse("nul"), ParseError);
  EXPECT_THROW((void)parse("true false"), ParseError) << "trailing garbage";
  EXPECT_THROW((void)parse("{\"a\":1, \"a\":2}"), ParseError) << "duplicate key";
  EXPECT_THROW((void)parse("\"\\ud800\""), ParseError) << "surrogate";
}

TEST(JsonParse, NestingLimitIs256) {
  const auto nested = [](int depth, char open, const std::string& inner, char close) {
    return std::string(static_cast<std::size_t>(depth), open) + inner +
           std::string(static_cast<std::size_t>(depth), close);
  };
  EXPECT_NO_THROW((void)parse(nested(256, '[', "", ']')));
  EXPECT_NO_THROW((void)parse("{\"a\":" + nested(255, '[', "1", ']') + "}"));
  try {
    (void)parse(nested(257, '[', "", ']'));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "JSON parse error at 1:257: nesting too deep");
  }
  EXPECT_THROW((void)parse("{\"a\":" + nested(256, '[', "1", ']') + "}"), ParseError);
  // Far past the limit the parser still fails cleanly instead of
  // exhausting the stack.
  EXPECT_THROW((void)parse(nested(50000, '[', "", ']')), ParseError);
}

TEST(JsonStringify, CompactAndPretty) {
  Object o;
  o.set("n", Value(1));
  Array a;
  a.push_back(Value(true));
  a.push_back(Value("x"));
  o.set("list", Value(std::move(a)));
  Value v{std::move(o)};
  EXPECT_EQ(stringify(v, 0), R"({"n":1,"list":[true,"x"]})");
  std::string pretty = stringify(v, 2);
  EXPECT_NE(pretty.find("\n  \"n\": 1"), std::string::npos);
}

TEST(JsonStringify, EmptyContainers) {
  EXPECT_EQ(stringify(Value(Array{}), 2), "[]");
  EXPECT_EQ(stringify(Value(Object{}), 2), "{}");
  EXPECT_EQ(stringify(Value(), 2), "null");
}

TEST(JsonStringify, NumbersRoundTripShortest) {
  EXPECT_EQ(stringify(Value(42.0), 0), "42");
  EXPECT_EQ(stringify(Value(-7.0), 0), "-7");
  EXPECT_EQ(stringify(Value(0.25), 0), "0.25");
  EXPECT_EQ(stringify(Value(1.0 / 3.0), 0),
            stringify(parse(stringify(Value(1.0 / 3.0), 0)), 0))
      << "serialized doubles reparse to the same value";
}

/// The number writer before it asked std::to_chars for the shortest
/// digit count: %.*g from precision 1 up, reparsed with sscanf until it
/// round-trips. Kept as the reference the writer must match byte for
/// byte.
std::string reference_number(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  for (int precision = 1; precision < 17; ++precision) {
    char candidate[40];
    std::snprintf(candidate, sizeof candidate, "%.*g", precision, v);
    double reparsed = 0.0;
    std::sscanf(candidate, "%lf", &reparsed);
    if (reparsed == v) return candidate;
  }
  return buf;
}

TEST(JsonStringify, NumbersMatchTheReferenceWriterByteForByte) {
  std::mt19937_64 rng(20070625);
  std::vector<double> values;
  // Simulated minutes: exponential delays, as the stats stream and the
  // trace carry them.
  std::exponential_distribution<double> minutes(1.0 / 60.0);
  for (int i = 0; i < 250000; ++i) values.push_back(minutes(rng));
  // Magnitudes across 10^-300 .. 10^300, both signs.
  std::uniform_real_distribution<double> mantissa(1.0, 10.0);
  std::uniform_int_distribution<int> exponent(-300, 300);
  for (int i = 0; i < 250000; ++i) {
    const double v = mantissa(rng) * std::pow(10.0, exponent(rng));
    values.push_back(i % 2 == 0 ? v : -v);
  }
  // Values rounded to four decimals (config and report figures).
  std::uniform_real_distribution<double> plain(0.0, 1000.0);
  for (int i = 0; i < 250000; ++i) values.push_back(std::round(plain(rng) * 1e4) / 1e4);
  // Powers of two and their neighbours, where the shortest digit count
  // and the nearest %.*g rounding can disagree.
  for (int e = -1074; e <= 1023; ++e) {
    double up = std::ldexp(1.0, e);
    double down = up;
    values.push_back(up);
    for (int k = 0; k < 60; ++k) {
      up = std::nextafter(up, HUGE_VAL);
      down = std::nextafter(down, 0.0);
      values.push_back(up);
      values.push_back(down);
    }
  }
  std::size_t mismatches = 0;
  for (double v : values) {
    const std::string expected = reference_number(v);
    const std::string actual = stringify(Value(v), 0);
    if (actual != expected && ++mismatches <= 10) {
      ADD_FAILURE() << "wrote " << actual << ", reference " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

TEST(JsonStringify, EscapesStrings) {
  EXPECT_EQ(stringify(Value("a\"b\\c\n"), 0), R"("a\"b\\c\n")");
  EXPECT_EQ(stringify(Value(std::string("ctrl\x01")), 0), "\"ctrl\\u0001\"");
}

TEST(JsonRoundTrip, ParseStringifyParse) {
  const char* doc = R"({"name":"x","values":[1,2.5,-3],"flags":{"on":true,"off":false},"z":null})";
  Value first = parse(doc);
  Value second = parse(stringify(first, 0));
  EXPECT_EQ(stringify(first, 0), stringify(second, 0));
  EXPECT_EQ(stringify(first, 0), doc);
}

TEST(JsonRoundTrip, PrettyOutputReparses) {
  Value v = parse(R"({"a":[{"b":1},{"c":[true,null]}]})");
  Value round = parse(stringify(v, 4));
  EXPECT_EQ(stringify(v, 0), stringify(round, 0));
}

}  // namespace
}  // namespace mvsim::json
