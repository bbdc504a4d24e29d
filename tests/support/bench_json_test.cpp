/// \file bench_json_test.cpp
/// bench_json::find_number reads by structure: a key answers only from
/// the direct members of its section's brace-matched object, so a later
/// section, a nested object or a string value can never stand in for a
/// missing field. `elrr top` and trace-summary both rely on this; `top`
/// also reads the snapshot's phase rows through find_objects and
/// find_string.

#include "support/bench_json.hpp"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

namespace elrr::bench_json {
namespace {

TEST(BenchJson, ReadsAKeyInsideItsSection) {
  const char* json =
      "{\"cases\": {\"small\": {\"circuit\": \"s27\", \"cycles_per_sec\": "
      "1250, \"bit_exact\": true}, \"large\": {\"cycles_per_sec\": 7.5e2}}}";
  EXPECT_EQ(find_number(json, "small", "cycles_per_sec"), 1250.0);
  EXPECT_EQ(find_number(json, "large", "cycles_per_sec"), 750.0);
}

TEST(BenchJson, KeyOfALaterSectionDoesNotAnswer) {
  // "fleet" lacks fleet_seconds; the next section has it. The old
  // positional scan returned 3.5 here.
  const char* json =
      "{\"fleet\": {\"candidates\": 8}, \"fleet_dedup\": {\"fleet_seconds\": "
      "3.5}, \"proc\": {\"proc_seconds\": 1}}";
  EXPECT_FALSE(find_number(json, "fleet", "fleet_seconds").has_value());
  EXPECT_EQ(find_number(json, "fleet_dedup", "fleet_seconds"), 3.5);
  EXPECT_FALSE(find_number(json, "fleet", "proc_seconds").has_value());
}

TEST(BenchJson, NestedObjectsAndStringsAreSkipped) {
  const char* json =
      "{\"milp\": {\"workload\": \"a \\\"warm_seconds\\\": 9 } trap\", "
      "\"inner\": {\"warm_seconds\": 8, \"list\": [1, {\"x\": 2}]}, "
      "\"warm_seconds\": 0.25}}";
  EXPECT_EQ(find_number(json, "milp", "warm_seconds"), 0.25);
  EXPECT_FALSE(find_number(json, "milp", "x").has_value());
  EXPECT_EQ(find_number(json, "inner", "warm_seconds"), 8.0);
}

TEST(BenchJson, SectionMustLabelAnObject) {
  // A section name that first appears as a string value or labels a
  // scalar is not a section; the first object it labels is.
  const char* json =
      "{\"name\": \"obs\", \"obs\": 3, \"later\": {\"obs\": {\"fleet_seconds\": "
      "2}}}";
  EXPECT_EQ(find_number(json, "obs", "fleet_seconds"), 2.0);
  EXPECT_FALSE(find_number(json, "missing", "fleet_seconds").has_value());
}

TEST(BenchJson, EmptySectionIsTheRootObject) {
  const char* json =
      "{\"snapshot\": true, \"uptime_s\": 12.5, \"stats\": {\"queued\": 9}, "
      "\"queued\": 3}";
  EXPECT_EQ(find_number(json, "", "uptime_s"), 12.5);
  EXPECT_EQ(find_number(json, "", "queued"), 3.0);
  EXPECT_FALSE(find_number(json, "", "snapshot").has_value());  // not a number
  EXPECT_FALSE(find_number("[1, 2]", "", "uptime_s").has_value());
}

TEST(BenchJson, ArrayObjectsAndStringsReadByStructure) {
  // A "}" inside a name and a nested object inside a row must not end
  // the row early; non-object elements are skipped.
  const char* json =
      "{\"obs\": {\"phases\": [{\"name\": \"a}b\", \"count\": 5, "
      "\"x\": {\"count\": 9}}, 7, {\"name\": \"c\", \"count\": 2}], "
      "\"count\": 1}}";
  const std::vector<std::string_view> rows = find_objects(json, "obs", "phases");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(find_string(rows[0], "", "name"), "a}b");
  EXPECT_EQ(find_number(rows[0], "", "count"), 5.0);
  EXPECT_EQ(find_string(rows[1], "", "name"), "c");
  EXPECT_EQ(find_number(rows[1], "", "count"), 2.0);
  EXPECT_FALSE(find_string(rows[1], "", "count").has_value());  // a number
  EXPECT_TRUE(find_objects(json, "obs", "count").empty());      // not an array
  EXPECT_TRUE(find_objects(json, "missing", "phases").empty());
}

TEST(BenchJson, MalformedInputReturnsNothing) {
  EXPECT_FALSE(find_number("", "small", "k").has_value());
  EXPECT_FALSE(find_number("{\"small\": {\"k\": ", "small", "k").has_value());
  EXPECT_FALSE(find_number("{\"small\": {\"k\" 1}}", "small", "k").has_value());
  EXPECT_FALSE(
      find_number("{\"small\": {\"j\": \"unterminated}", "small", "k")
          .has_value());
  EXPECT_TRUE(find_objects("{\"a\": [}]}", "", "a").empty());
  EXPECT_EQ(find_objects("{\"a\": [{\"x\": 1}, ]]}", "", "a").size(), 1u);
}

}  // namespace
}  // namespace elrr::bench_json
