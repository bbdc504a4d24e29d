/// \file manifest_test.cpp
/// The batch manifest contract: strict JSONL, line-numbered errors.
/// Every malformed shape -- empty lines included -- must throw
/// InvalidInputError naming the offending line, so a CI batch fails at
/// the line instead of silently skipping jobs.

#include "svc/manifest.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "bench89/generator.hpp"
#include "io/rrg_format.hpp"
#include "support/error.hpp"

namespace elrr::svc {
namespace {

/// EXPECT that parsing `text` as line `line` throws and the message
/// carries both the line number and `fragment`.
void expect_line_error(const std::string& text, int line,
                       const std::string& fragment) {
  try {
    parse_manifest_line(text, line);
    FAIL() << "expected InvalidInputError for: " << text;
  } catch (const InvalidInputError& error) {
    const std::string what = error.what();
    const std::string prefix = "manifest line " + std::to_string(line);
    EXPECT_NE(what.find(prefix), std::string::npos) << what;
    EXPECT_NE(what.find(fragment), std::string::npos) << what;
  }
}

TEST(Manifest, ParsesAllKeys) {
  const ManifestEntry entry = parse_manifest_line(
      R"({"circuit": "s27", "name": "warmup", "mode": "min_cyc", )"
      R"("priority": "low", "seed": 7, "epsilon": 0.05, "timeout": 2.5, )"
      R"("cycles": 4000, "heur": false, "polish": true, "min_cyc_x": 1.5})",
      3);
  EXPECT_EQ(entry.line, 3);
  EXPECT_EQ(entry.circuit, "s27");
  EXPECT_EQ(entry.name, "warmup");
  EXPECT_EQ(entry.mode, JobMode::kMinCyc);
  EXPECT_EQ(entry.priority, JobPriority::kLow);
  ASSERT_TRUE(entry.seed.has_value());
  EXPECT_EQ(*entry.seed, 7u);
  ASSERT_TRUE(entry.epsilon.has_value());
  EXPECT_DOUBLE_EQ(*entry.epsilon, 0.05);
  ASSERT_TRUE(entry.timeout.has_value());
  EXPECT_DOUBLE_EQ(*entry.timeout, 2.5);
  ASSERT_TRUE(entry.cycles.has_value());
  EXPECT_EQ(*entry.cycles, 4000u);
  ASSERT_TRUE(entry.heur.has_value());
  EXPECT_FALSE(*entry.heur);
  ASSERT_TRUE(entry.polish.has_value());
  EXPECT_TRUE(*entry.polish);
  ASSERT_TRUE(entry.min_cyc_x.has_value());
  EXPECT_DOUBLE_EQ(*entry.min_cyc_x, 1.5);
}

TEST(Manifest, DefaultsAreMinimal) {
  const ManifestEntry entry = parse_manifest_line(R"({"circuit":"s526"})", 1);
  EXPECT_FALSE(entry.mode.has_value());  // materialize applies default_mode
  EXPECT_EQ(entry.priority, JobPriority::kNormal);
  EXPECT_FALSE(entry.seed.has_value());
  EXPECT_TRUE(entry.name.empty());  // materialize defaults it to "s526"
}

TEST(Manifest, ModeAliases) {
  EXPECT_EQ(parse_manifest_line(R"({"circuit":"x","mode":"flow"})", 1).mode,
            JobMode::kMinEffCyc);
  EXPECT_EQ(
      parse_manifest_line(R"({"circuit":"x","mode":"score_only"})", 1).mode,
      JobMode::kScoreOnly);
  EXPECT_EQ(parse_manifest_line(R"({"circuit":"x","mode":"score"})", 1).mode,
            JobMode::kScoreOnly);
}

TEST(Manifest, EmptyAndMalformedLinesThrowWithLineNumbers) {
  expect_line_error("", 4, "empty manifest line");
  expect_line_error("   \t ", 9, "empty manifest line");
  expect_line_error("not json", 2, "expected '{'");
  expect_line_error(R"({"circuit": "s27")", 5, "expected ',' or '}'");
  expect_line_error(R"({"circuit": "s27"} trailing)", 6, "trailing");
  expect_line_error(R"({"circuit": })", 7, "expected a string");
  expect_line_error(R"({circuit: "s27"})", 8, "expected a string");
}

TEST(Manifest, UnknownAndDuplicateKeysThrow) {
  expect_line_error(R"({"circuit": "s27", "bogus": 1})", 2,
                    "unknown key \"bogus\"");
  expect_line_error(R"({"circuit": "s27", "circuit": "s526"})", 3,
                    "duplicate key \"circuit\"");
}

TEST(Manifest, ValueValidation) {
  expect_line_error(R"({"circuit":"x","mode":"warp"})", 1, "unknown mode");
  expect_line_error(R"({"circuit":"x","priority":"urgent"})", 1,
                    "unknown priority");
  expect_line_error(R"({"circuit":"x","seed": -1})", 1,
                    "non-negative integer");
  expect_line_error(R"({"circuit":"x","seed": 1.5})", 1,
                    "non-negative integer");
  expect_line_error(R"({"circuit":"x","cycles": 0})", 1, "must be >= 1");
  expect_line_error(R"({"circuit":"x","epsilon": 0})", 1, "must be positive");
  expect_line_error(R"({"circuit":"x","timeout": -2})", 1,
                    "must be positive");
  expect_line_error(R"({"circuit":"x","min_cyc_x": 0.5})", 1,
                    "must be >= 1");
  expect_line_error(R"({"circuit":"x","heur": "yes"})", 1,
                    "expected true or false");
  expect_line_error(R"({"circuit":"x","epsilon": "fast"})", 1,
                    "expected a number");
}

TEST(Manifest, IntegersPastDoublePrecisionThrow) {
  // A double holds every integer only up to 2^53: a larger seed would
  // run as another value.
  expect_line_error(R"({"circuit":"x","seed": 1e30})", 1, "up to 2^53");
  expect_line_error(R"({"circuit":"x","seed": 18446744073709551615})", 1,
                    "up to 2^53");
  EXPECT_EQ(parse_manifest_line(R"({"circuit":"x","seed": 9007199254740992})",
                                1).seed,
            9007199254740992u);
}

TEST(Manifest, RequiresExactlyOneSource) {
  expect_line_error(R"({"name": "nothing"})", 1, "exactly one");
  expect_line_error(R"({"circuit": "s27", "input": "x.rrg"})", 1,
                    "exactly one");
}

TEST(Manifest, WholeManifestReportsTheOffendingLine) {
  const std::string text =
      "{\"circuit\": \"s27\"}\n"
      "{\"circuit\": \"s526\"}\n"
      "oops\n";
  try {
    parse_manifest(text);
    FAIL() << "expected InvalidInputError";
  } catch (const InvalidInputError& error) {
    EXPECT_NE(std::string(error.what()).find("manifest line 3"),
              std::string::npos)
        << error.what();
  }
}

TEST(Manifest, BlankInteriorLineIsAnError) {
  const std::string text =
      "{\"circuit\": \"s27\"}\n"
      "\n"
      "{\"circuit\": \"s526\"}\n";
  try {
    parse_manifest(text);
    FAIL() << "expected InvalidInputError";
  } catch (const InvalidInputError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("manifest line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("empty manifest line"), std::string::npos) << what;
  }
}

TEST(Manifest, TrailingNewlineIsNotAJob) {
  const std::vector<ManifestEntry> entries =
      parse_manifest("{\"circuit\": \"s27\"}\n{\"circuit\": \"s420\"}\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].circuit, "s27");
  EXPECT_EQ(entries[0].line, 1);
  EXPECT_EQ(entries[1].circuit, "s420");
  EXPECT_EQ(entries[1].line, 2);
}

TEST(Manifest, MaterializeGeneratesTheCircuit) {
  flow::FlowOptions base;
  base.seed = 2;
  base.sim_cycles = 1234;
  const ManifestEntry entry =
      parse_manifest_line(R"({"circuit": "s27", "cycles": 999})", 1);
  const JobSpec spec = materialize(entry, base);
  EXPECT_EQ(spec.name, "s27");
  EXPECT_GT(spec.rrg.num_nodes(), 0u);
  EXPECT_EQ(spec.flow.sim_cycles, 999u);   // per-line override
  EXPECT_EQ(spec.flow.seed, 2u);           // inherited from base
  EXPECT_FALSE(spec.flow.heuristic_only);  // s27 is under the exact ceiling
}

TEST(Manifest, MaterializeSharesRepeatedInputs) {
  const flow::FlowOptions base;
  const ManifestEntry s27 = parse_manifest_line(R"({"circuit": "s27"})", 1);
  JobSpec a = materialize(s27, base);
  const JobSpec b = materialize(s27, base);
  EXPECT_TRUE(b.rrg.shares_structure());
  EXPECT_EQ(io::write_rrg(a.rrg), io::write_rrg(b.rrg));
  a.rrg.set_delay(0, a.rrg.delay(0) + 1.0);  // the other job's copy stays
  EXPECT_NE(io::write_rrg(a.rrg), io::write_rrg(b.rrg));
  EXPECT_EQ(io::write_rrg(b.rrg),
            io::write_rrg(bench89::make_table2_rrg(
                bench89::spec_by_name("s27"), base.seed)));
  const JobSpec seed2 = materialize(
      parse_manifest_line(R"({"circuit": "s27", "seed": 2})", 1), base);
  EXPECT_NE(io::write_rrg(seed2.rrg), io::write_rrg(b.rrg));

  // Files are keyed by their bytes: a rewritten file is read again.
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("elrr_manifest_" + std::to_string(::getpid()) + ".rrg");
  const ManifestEntry file = parse_manifest_line(
      R"({"input": ")" + path.string() + R"("})", 1);
  io::save_text_file(path.string(), io::write_rrg(b.rrg, "first"));
  const JobSpec f1 = materialize(file, base);
  const JobSpec f2 = materialize(file, base);
  EXPECT_TRUE(f2.rrg.shares_structure());
  EXPECT_EQ(f2.name, "first");
  io::save_text_file(path.string(), io::write_rrg(seed2.rrg, "second"));
  const JobSpec f3 = materialize(file, base);
  std::filesystem::remove(path);
  EXPECT_EQ(f3.name, "second");
  EXPECT_EQ(io::write_rrg(f3.rrg), io::write_rrg(seed2.rrg));
  EXPECT_EQ(io::write_rrg(f1.rrg), io::write_rrg(b.rrg));
}

TEST(Manifest, MaterializeUnknownCircuitThrows) {
  const ManifestEntry entry =
      parse_manifest_line(R"({"circuit": "s9999"})", 1);
  EXPECT_THROW(materialize(entry, flow::FlowOptions{}), Error);
}

TEST(Manifest, DeadlineAndRetriesKeys) {
  const ManifestEntry entry = parse_manifest_line(
      R"({"circuit": "s27", "deadline": 2.5, "retries": 0})", 1);
  ASSERT_TRUE(entry.deadline.has_value());
  EXPECT_EQ(*entry.deadline, 2.5);
  ASSERT_TRUE(entry.retries.has_value());
  EXPECT_EQ(*entry.retries, 0u);

  const JobSpec spec = materialize(entry, flow::FlowOptions{});
  ASSERT_TRUE(spec.deadline_s.has_value());
  EXPECT_EQ(*spec.deadline_s, 2.5);
  ASSERT_TRUE(spec.retries.has_value());
  EXPECT_EQ(*spec.retries, 0u);

  // Unset keys leave the scheduler defaults in charge.
  const JobSpec plain = materialize(
      parse_manifest_line(R"({"circuit": "s27"})", 1), flow::FlowOptions{});
  EXPECT_FALSE(plain.deadline_s.has_value());
  EXPECT_FALSE(plain.retries.has_value());

  // Strict validation, with the line number.
  EXPECT_THROW(
      parse_manifest_line(R"({"circuit": "s27", "deadline": 0})", 3),
      InvalidInputError);
  EXPECT_THROW(
      parse_manifest_line(R"({"circuit": "s27", "retries": -1})", 3),
      InvalidInputError);
  EXPECT_THROW(
      parse_manifest_line(R"({"circuit": "s27", "retries": 1.5})", 3),
      InvalidInputError);
}

}  // namespace
}  // namespace elrr::svc
