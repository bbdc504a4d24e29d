/// \file json_test.cpp
/// The strict reader of support/json.hpp, which reads every JSON input
/// of the tree (manifests, traces, stats snapshots); in the `svc` suite,
/// so the sanitizer sweep runs it. A key answers only from its own
/// object; malformed input throws with its byte offset; escape() and
/// parse() are inverses for every byte.

#include "support/json.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "support/error.hpp"

namespace elrr::json {
namespace {

/// The JSON string literal of `s`.
std::string string_literal(std::string_view s) {
  std::string out(1, '"');
  out += escape(s);
  out += '"';
  return out;
}

/// EXPECT that parsing `text` throws and the message carries `fragment`.
void expect_error(const std::string& text, const std::string& fragment) {
  try {
    parse(text);
    ADD_FAILURE() << "expected InvalidInputError for: " << text;
  } catch (const InvalidInputError& error) {
    EXPECT_NE(std::string(error.what()).find(fragment), std::string::npos)
        << error.what();
  }
}

TEST(Json, ReadsAKeyInsideItsObject) {
  const Value doc = parse(
      "{\"cases\": {\"small\": {\"circuit\": \"s27\", \"cycles_per_sec\": "
      "1250, \"bit_exact\": true}, \"large\": {\"cycles_per_sec\": 7.5e2}}}");
  EXPECT_EQ(doc.number_at("cases.small.cycles_per_sec"), 1250.0);
  EXPECT_EQ(doc.number_at("cases.large.cycles_per_sec"), 750.0);
  EXPECT_EQ(doc.at("cases").at("small").at("circuit").as_string(), "s27");
  EXPECT_TRUE(doc.find_path("cases.small.bit_exact")->as_bool());
}

TEST(Json, KeyOfALaterObjectDoesNotAnswer) {
  const Value doc = parse(
      "{\"fleet\": {\"candidates\": 8}, \"fleet_dedup\": {\"fleet_seconds\": "
      "3.5}, \"proc\": {\"proc_seconds\": 1}}");
  EXPECT_FALSE(doc.number_at("fleet.fleet_seconds").has_value());
  EXPECT_EQ(doc.number_at("fleet_dedup.fleet_seconds"), 3.5);
  EXPECT_FALSE(doc.number_at("fleet.proc_seconds").has_value());
}

TEST(Json, NestedObjectsAndStringsNeverAnswerForAMissingKey) {
  const Value doc = parse(
      "{\"milp\": {\"workload\": \"a \\\"warm_seconds\\\": 9 } trap\", "
      "\"inner\": {\"warm_seconds\": 8, \"list\": [1, {\"x\": 2}]}, "
      "\"warm_seconds\": 0.25}, \"other\": {\"inner\": {\"x\": 1}}}");
  EXPECT_EQ(doc.number_at("milp.warm_seconds"), 0.25);
  EXPECT_FALSE(doc.number_at("milp.x").has_value());
  EXPECT_FALSE(doc.number_at("other.warm_seconds").has_value());
  EXPECT_EQ(doc.number_at("milp.inner.warm_seconds"), 8.0);
  EXPECT_EQ(doc.find_path("milp.workload")->as_string(),
            "a \"warm_seconds\": 9 } trap");
  // A path through a scalar or a string ends there.
  EXPECT_EQ(doc.find_path("milp.workload.warm_seconds"), nullptr);
  EXPECT_FALSE(doc.number_at("milp.workload").has_value());  // a string
  EXPECT_EQ(doc.find_path("missing.warm_seconds"), nullptr);
}

TEST(Json, ArrayRowsReadByStructure) {
  // A "}" inside a name and a nested object inside a row do not end the
  // row early.
  const Value doc = parse(
      "{\"obs\": {\"phases\": [{\"name\": \"a}b\", \"count\": 5, "
      "\"x\": {\"count\": 9}}, 7, {\"name\": \"c\", \"count\": 2}], "
      "\"count\": 1}}");
  const std::vector<Value>& rows = doc.find_path("obs.phases")->items();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].at("name").as_string(), "a}b");
  EXPECT_EQ(rows[0].number_at("count"), 5.0);
  EXPECT_EQ(rows[1].as_number(), 7.0);
  EXPECT_EQ(rows[1].find("count"), nullptr);  // not an object
  EXPECT_EQ(rows[2].at("name").as_string(), "c");
  EXPECT_EQ(rows[2].number_at("count"), 2.0);
  EXPECT_EQ(doc.number_at("obs.count"), 1.0);
  EXPECT_THROW(doc.at("obs").at("count").items(), InvalidInputError);
}

TEST(Json, MembersKeepDocumentOrderAndAccessorsCheckTypes) {
  const Value doc = parse("{\"z\": null, \"a\": [], \"m\": {}, \"b\": false}");
  const std::vector<Value::Member>& members = doc.members();
  ASSERT_EQ(members.size(), 4u);
  EXPECT_EQ(members[0].key, "z");
  EXPECT_EQ(members[0].value.type(), Value::Type::kNull);
  EXPECT_EQ(members[1].key, "a");
  EXPECT_TRUE(members[1].value.items().empty());
  EXPECT_EQ(members[2].key, "m");
  EXPECT_TRUE(members[2].value.members().empty());
  EXPECT_FALSE(doc.at("b").as_bool());
  EXPECT_THROW(doc.at("b").as_string(), InvalidInputError);
  EXPECT_THROW(doc.at("z").as_number(), InvalidInputError);
  EXPECT_THROW(doc.at("a").members(), InvalidInputError);
  EXPECT_THROW(doc.at("missing"), InvalidInputError);
}

TEST(Json, DuplicateKeysThrowAtTheirObject) {
  expect_error("{\"a\": 1, \"a\": 2}", "at byte 0: duplicate key \"a\"");
  expect_error("{\"o\": {\"k\": 1, \"k\": 1}}", "at byte 6: duplicate key");
  // The same key in two objects is no duplicate.
  EXPECT_NO_THROW(parse("[{\"a\": 1}, {\"a\": 2}, {\"b\": {\"a\": 3}}]"));
  std::string big = "{";
  for (int i = 0; i < 40; ++i) {
    big += "\"k";
    big += std::to_string(i);
    big += "\": 0, ";
  }
  EXPECT_NO_THROW(parse(big + "\"end\": 1}"));
  expect_error(big + "\"k30\": 1}", "at byte 0: duplicate key \"k30\"");
}

TEST(Json, TrailingBytesAndTruncationThrow) {
  expect_error("{} x", "at byte 3: trailing characters");
  expect_error("1 2", "trailing characters");
  expect_error("{\"a\": 1}}", "trailing characters");
  expect_error("", "expected a string, a number");
  expect_error("   ", "expected a string, a number");
  expect_error("{\"a\": ", "at byte 6: expected a string, a number");
  expect_error("{\"a\" 1}", "expected ':'");
  expect_error("{\"a\": 1", "expected ',' or '}'");
  expect_error("[1, 2", "expected ',' or ']'");
  expect_error("[1,]", "expected a string, a number");
  expect_error("{\"a\": 1,}", "expected a string (an object key)");
  expect_error("{a: 1}", "expected a string (an object key)");
  expect_error("\"abc", "unterminated string");
  expect_error("{\"s\": {\"j\": \"unterminated}", "unterminated string");
  expect_error("{\"a\": [}]}", "expected a string, a number");
  expect_error("{\"a\": [{\"x\": 1}, ]]}", "expected a string, a number");
  expect_error("tru", "expected a string, a number");
  expect_error("nul", "expected a string, a number");
  EXPECT_NO_THROW(parse(" \t\r\n{} \n"));
}

TEST(Json, NumbersFollowTheGrammar) {
  EXPECT_EQ(parse("0").as_number(), 0.0);
  EXPECT_EQ(parse("-0.5").as_number(), -0.5);
  EXPECT_EQ(parse("12e3").as_number(), 12000.0);
  EXPECT_EQ(parse("1.25E-2").as_number(), 0.0125);
  EXPECT_EQ(parse("2e+1").as_number(), 20.0);
  EXPECT_EQ(parse("0.1").as_number(), 0.1);  // correctly rounded
  expect_error("+1", "expected a string, a number");
  expect_error(".5", "expected a string, a number");
  expect_error("01", "leading zero");
  expect_error("-01", "leading zero");
  expect_error("1.", "expected a digit after '.'");
  expect_error("1.e3", "expected a digit after '.'");
  expect_error("1e", "expected a digit in the exponent");
  expect_error("1e+", "expected a digit in the exponent");
  expect_error("-", "expected a digit after '-'");
  expect_error("-x", "expected a digit after '-'");
  expect_error("0x10", "trailing characters");
  expect_error("inf", "expected a string, a number");
  expect_error("NaN", "expected a string, a number");
  expect_error("1e999", "outside the range of a double");
  expect_error("-1e999", "outside the range of a double");
}

TEST(Json, StringsDecodeEveryEscape) {
  EXPECT_EQ(parse(R"("\" \\ \/ \b \f \n \r \t")").as_string(),
            "\" \\ / \b \f \n \r \t");
  EXPECT_EQ(parse(R"("A\u00e9\u20AC")").as_string(),
            "A\xC3\xA9\xE2\x82\xAC");
  EXPECT_EQ(parse(R"("\ud83d\ude00")").as_string(), "\xF0\x9F\x98\x80");
  EXPECT_EQ(parse(R"("a\u0000b")").as_string(), std::string("a\0b", 3));
  EXPECT_EQ(parse("\"\xC3\xA9\xFF\"").as_string(), "\xC3\xA9\xFF");
  expect_error(R"("\x")", "unknown escape \\x");
  expect_error(R"("\u12")", "expected four hex digits");
  expect_error(R"("\u12g4")", "expected four hex digits");
  expect_error(R"("\ud83d")", "high surrogate without a low one");
  expect_error(R"("\ud83dA")", "high surrogate without a low one");
  expect_error(R"("\ude00")", "low surrogate without a high one");
  expect_error("\"a\nb\"", "at byte 2: raw control character");
  expect_error("\"a\tb\"", "raw control character");
  expect_error("\"a\\", "unterminated string");
}

TEST(Json, EscapeRoundTripsEveryByte) {
  std::string all;
  for (int byte = 0x01; byte <= 0xFF; ++byte) {
    const std::string one(1, static_cast<char>(byte));
    EXPECT_EQ(parse(string_literal(one)).as_string(), one) << byte;
    all += one;
  }
  EXPECT_EQ(parse(string_literal(all)).as_string(), all);
  const std::string nul("x\0y", 3);
  EXPECT_EQ(parse(string_literal(nul)).as_string(), nul);
}

TEST(Json, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  const int deep = 100000;
  expect_error(std::string(deep, '['), "nesting deeper than");
  std::string objects;
  for (int i = 0; i < deep; ++i) objects += "{\"a\": ";
  expect_error(objects, "nesting deeper than");
  // kMaxDepth levels themselves parse.
  const std::string ok = std::string(kMaxDepth, '[') +
                         std::string(kMaxDepth, ']');
  EXPECT_NO_THROW(parse(ok));
  expect_error("[" + ok + "]", "nesting deeper than");
}

}  // namespace
}  // namespace elrr::json
