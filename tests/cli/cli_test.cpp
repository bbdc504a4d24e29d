/// \file cli_test.cpp
/// Drives every elrr subcommand in process through cli::run.

#include "tools/elrr/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "io/rrg_format.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"

namespace elrr::cli {
namespace {

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult run_cli(std::initializer_list<std::string> tokens) {
  std::vector<std::string> storage{"elrr"};
  storage.insert(storage.end(), tokens.begin(), tokens.end());
  std::vector<const char*> argv;
  for (const std::string& s : storage) argv.push_back(s.c_str());
  std::ostringstream out, err;
  CliResult result;
  result.code = run(static_cast<int>(argv.size()), argv.data(), out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

TEST(Cli, HelpAndUnknown) {
  const CliResult help = run_cli({"help"});
  EXPECT_EQ(help.code, 0);
  EXPECT_NE(help.out.find("usage: elrr"), std::string::npos);

  const CliResult none = run_cli({});
  EXPECT_EQ(none.code, 2);

  const CliResult bad = run_cli({"frobnicate"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("unknown command"), std::string::npos);
}

TEST(Cli, UnknownFlagIsAnError) {
  const CliResult r = run_cli({"analyze", "--circuit", "s208", "--bogus"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--bogus"), std::string::npos);
}

TEST(Cli, GenerateAnalyzeRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cli_s208.rrg";
  const CliResult gen =
      run_cli({"generate", "--circuit", "s208", "--seed", "3", "--output",
               path});
  ASSERT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("wrote s208"), std::string::npos);

  const CliResult ana =
      run_cli({"analyze", "--input", path, "--cycles", "2000"});
  ASSERT_EQ(ana.code, 0) << ana.err;
  EXPECT_NE(ana.out.find("cycle time tau"), std::string::npos);
  EXPECT_NE(ana.out.find("simulated Theta"), std::string::npos);
}

TEST(Cli, InputAndCircuitAreMutuallyExclusive) {
  const CliResult r =
      run_cli({"analyze", "--circuit", "s208", "--input", "x.rrg"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("exactly one"), std::string::npos);
}

TEST(Cli, OptimizeHeuristicAndSave) {
  const std::string path = ::testing::TempDir() + "/cli_best.rrg";
  const CliResult r = run_cli({"optimize", "--circuit", "s208", "--method",
                               "heur", "--save-best", path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("heuristic:"), std::string::npos);
  EXPECT_NE(r.out.find("<== best"), std::string::npos);
  // The saved best configuration parses and is live.
  const io::NamedRrg best = io::load_rrg_file(path);
  EXPECT_GT(best.rrg.num_edges(), 0u);
}

TEST(Cli, OptimizeRejectsUnknownMethod) {
  const CliResult r =
      run_cli({"optimize", "--circuit", "s208", "--method", "magic"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown --method"), std::string::npos);
}

TEST(Cli, SimulateTokenAndControl) {
  const CliResult token = run_cli(
      {"simulate", "--circuit", "s208", "--cycles", "2000", "--runs", "1"});
  ASSERT_EQ(token.code, 0) << token.err;
  EXPECT_NE(token.out.find("token-level kernel"), std::string::npos);

  const CliResult control =
      run_cli({"simulate", "--circuit", "s208", "--cycles", "2000",
               "--control", "--capacity", "1"});
  ASSERT_EQ(control.code, 0) << control.err;
  EXPECT_NE(control.out.find("SELF control network"), std::string::npos);
}

TEST(Cli, ExportFormats) {
  for (const char* format : {"rrg", "json", "dot", "tgmg-dot", "mps",
                             "verilog"}) {
    const CliResult r =
        run_cli({"export", "--circuit", "s208", "--format", format});
    ASSERT_EQ(r.code, 0) << format << ": " << r.err;
    EXPECT_FALSE(r.out.empty()) << format;
  }
  const CliResult dot = run_cli({"export", "--circuit", "s208",
                                 "--format", "dot"});
  EXPECT_NE(dot.out.find("digraph"), std::string::npos);
  const CliResult bad =
      run_cli({"export", "--circuit", "s208", "--format", "png"});
  EXPECT_EQ(bad.code, 1);
}

TEST(Cli, SizeFifos) {
  const CliResult r = run_cli(
      {"size-fifos", "--circuit", "s208", "--cycles", "1500"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("smallest uniform capacity"), std::string::npos);
}

TEST(Cli, FromBench) {
  // A tiny netlist with a 2-gate SCC through two DFFs.
  const std::string bench_path = ::testing::TempDir() + "/cli_tiny.bench";
  io::save_text_file(bench_path, R"(
# tiny
INPUT(i)
OUTPUT(o)
q1 = DFF(g2)
q2 = DFF(g1)
g1 = NAND(i, q1)
g2 = NOT(g1)
o = BUFF(q2)
)");
  const std::string out_path = ::testing::TempDir() + "/cli_tiny.rrg";
  const CliResult r = run_cli({"from-bench", "--input", bench_path,
                               "--output", out_path, "--annotate",
                               "--seed", "5"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("largest SCC"), std::string::npos);
  const io::NamedRrg rrg = io::load_rrg_file(out_path);
  EXPECT_GT(rrg.rrg.num_nodes(), 0u);
}

TEST(Cli, MinArea) {
  const CliResult r = run_cli({"min-area", "--circuit", "s208"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("buffers:"), std::string::npos);
  // A looser period can only need fewer or equal buffers.
  const CliResult loose =
      run_cli({"min-area", "--circuit", "s208", "--period", "1000"});
  ASSERT_EQ(loose.code, 0) << loose.err;
}

TEST(Cli, MissingFileProducesCleanError) {
  const CliResult r = run_cli({"analyze", "--input", "/no/such/file.rrg"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(Cli, FlowRunsThePipelinedEngine) {
  const CliResult r =
      run_cli({"flow", "--circuit", "s208", "--epsilon", "0.1", "--cycles",
               "2000", "--runs", "2", "--threads", "1"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("walk:"), std::string::npos);
  EXPECT_NE(r.out.find("candidates streamed"), std::string::npos);
  EXPECT_NE(r.out.find("<== best by simulation"), std::string::npos);
  EXPECT_NE(r.out.find("(overlapped)"), std::string::npos);

  // The sequential baseline reports identical candidates (determinism:
  // overlap is purely a wall-clock knob), marked as sequential.
  const CliResult seq =
      run_cli({"flow", "--circuit", "s208", "--epsilon", "0.1", "--cycles",
               "2000", "--runs", "2", "--threads", "1", "--sequential"});
  ASSERT_EQ(seq.code, 0) << seq.err;
  EXPECT_NE(seq.out.find("(sequential)"), std::string::npos);
  const auto table_of = [](const std::string& text) {
    // Everything between the header row and the "pipeline:" footer is
    // the scored-candidate table; it must match bit for bit.
    const std::size_t begin = text.find("   #");
    const std::size_t end = text.find("pipeline:");
    return text.substr(begin, end - begin);
  };
  EXPECT_EQ(table_of(r.out), table_of(seq.out));
}

/// The batch service end to end through the CLI: a JSONL manifest in,
/// JSONL results + a trailing summary record out; per-line validation
/// errors carry the manifest line number; --jobs/--threads are
/// range-checked like the ELRR_* env knobs.
TEST(Cli, BatchRunsAManifest) {
  const std::string manifest_path = ::testing::TempDir() + "/batch.jsonl";
  io::save_text_file(manifest_path,
                     "{\"circuit\": \"s208\", \"mode\": \"score\", "
                     "\"cycles\": 2000}\n"
                     "{\"circuit\": \"s208\", \"mode\": \"score\", "
                     "\"cycles\": 2000, \"name\": \"repeat\"}\n"
                     "{\"circuit\": \"s420\", \"mode\": \"score\", "
                     "\"cycles\": 2000, \"priority\": \"high\"}\n");
  // Two workers: even when the duplicate dispatches concurrently with
  // its twin, the result cache's dispatch-time reservation guarantees
  // exactly one of them runs -- the assertion below holds at any -j.
  const CliResult r = run_cli({"batch", manifest_path, "--jobs", "2"});
  EXPECT_EQ(r.code, 0) << r.out << r.err;
  // One result line per manifest line, in submission order, plus the
  // summary record.
  EXPECT_NE(r.out.find("{\"job\": 0, \"name\": \"s208\", \"mode\": "
                       "\"score\", \"state\": \"done\""),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("\"name\": \"repeat\""), std::string::npos);
  EXPECT_NE(r.out.find("\"name\": \"s420\""), std::string::npos);
  EXPECT_NE(r.out.find("\"summary\": true"), std::string::npos);
  EXPECT_NE(r.out.find("\"theta_sim\""), std::string::npos);
  // The duplicate score job dedups through the cross-job result cache.
  EXPECT_NE(r.out.find("\"job_cache_hits\": 1"), std::string::npos) << r.out;

  // --output writes the same JSONL to a file instead of stdout.
  const std::string out_path = ::testing::TempDir() + "/batch_out.jsonl";
  const CliResult to_file =
      run_cli({"batch", manifest_path, "--output", out_path});
  EXPECT_EQ(to_file.code, 0) << to_file.err;
  EXPECT_EQ(to_file.out, "");
  const std::string written = io::load_text_file(out_path);
  EXPECT_NE(written.find("\"summary\": true"), std::string::npos);
}

/// `batch --trace` end to end: the summary gains the unified nested
/// stats object and a trace_summary record, the Chrome trace-event file
/// lands on disk with scheduler span names in it, and `trace-summary`
/// renders the aggregate table back from that file.
TEST(Cli, BatchTraceAndTraceSummary) {
  const std::string manifest_path =
      ::testing::TempDir() + "/batch_trace.jsonl";
  io::save_text_file(manifest_path,
                     "{\"circuit\": \"s208\", \"mode\": \"score\", "
                     "\"cycles\": 2000}\n");
  const std::string trace_path = ::testing::TempDir() + "/cli_trace.json";
  const CliResult r = run_cli({"batch", manifest_path, "--trace", trace_path});
  EXPECT_EQ(r.code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("\"stats\": {\"scheduler\""), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("\"fleet_cache\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"milp\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"trace_summary\": true"), std::string::npos) << r.out;
  EXPECT_NE(r.err.find("wrote trace"), std::string::npos) << r.err;
  const std::string trace = io::load_text_file(trace_path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"job.run\""), std::string::npos) << trace;

  const CliResult summary = run_cli({"trace-summary", trace_path});
  EXPECT_EQ(summary.code, 0) << summary.err;
  EXPECT_NE(summary.out.find("phase"), std::string::npos) << summary.out;
  EXPECT_NE(summary.out.find("job.run"), std::string::npos) << summary.out;

  // --trace armed the process-wide obs layer; disarm it for whatever
  // runs next in this process.
  obs::reset();
}

/// The --json twin of trace-summary is a published schema (dashboards
/// parse it), so the keys are pinned here, not just "some JSON came
/// out": input, per-phase rows with count/total_s/p50_s/p95_s/p99_s,
/// and the ring health at the tail. The text table reports the same
/// ring health as a footer.
TEST(Cli, TraceSummaryJsonPinsTheSchema) {
  const std::string manifest_path =
      ::testing::TempDir() + "/trace_json.jsonl";
  io::save_text_file(manifest_path,
                     "{\"circuit\": \"s208\", \"mode\": \"score\", "
                     "\"cycles\": 2000}\n");
  const std::string trace_path =
      ::testing::TempDir() + "/trace_json_trace.json";
  const CliResult r = run_cli({"batch", manifest_path, "--trace", trace_path});
  ASSERT_EQ(r.code, 0) << r.out << r.err;

  const CliResult js = run_cli({"trace-summary", trace_path, "--json"});
  EXPECT_EQ(js.code, 0) << js.err;
  EXPECT_NE(js.out.find("\"input\": \""), std::string::npos) << js.out;
  EXPECT_NE(js.out.find("\"phases\": ["), std::string::npos) << js.out;
  EXPECT_NE(js.out.find("{\"name\": \"job.run\", \"count\": "),
            std::string::npos)
      << js.out;
  EXPECT_NE(js.out.find("\"total_s\": "), std::string::npos);
  EXPECT_NE(js.out.find("\"p50_s\": "), std::string::npos);
  EXPECT_NE(js.out.find("\"p95_s\": "), std::string::npos);
  EXPECT_NE(js.out.find("\"p99_s\": "), std::string::npos);
  EXPECT_NE(js.out.find("\"dropped_spans\": 0"), std::string::npos) << js.out;
  EXPECT_NE(js.out.find("\"ring_capacity\": "), std::string::npos) << js.out;
  // Nothing dropped: no ELRR_OBS_BUF advice on stderr.
  EXPECT_EQ(js.err.find("dropped"), std::string::npos) << js.err;

  // The trace's counters, equal to the batch stream's trace_summary
  // record's (both read the one obs registry at the end of the batch).
  const json::Value summary = json::parse(js.out);
  const json::Value* counters = summary.find("counters");
  ASSERT_NE(counters, nullptr) << js.out;
  ASSERT_TRUE(counters->is_object());
  const json::Value* batch_counters = nullptr;
  std::istringstream lines(r.out);
  std::optional<json::Value> record;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"trace_summary\"") == std::string::npos) continue;
    record = json::parse(line);
    batch_counters = record->find("counters");
  }
  ASSERT_NE(batch_counters, nullptr) << r.out;
  ASSERT_FALSE(batch_counters->members().empty());
  ASSERT_EQ(counters->members().size(), batch_counters->members().size());
  for (const json::Value::Member& member : batch_counters->members()) {
    const json::Value* value = counters->find(member.key);
    ASSERT_NE(value, nullptr) << member.key;
    EXPECT_EQ(value->as_number(), member.value.as_number()) << member.key;
  }

  const CliResult txt = run_cli({"trace-summary", trace_path});
  EXPECT_EQ(txt.code, 0) << txt.err;
  EXPECT_NE(txt.out.find("spans dropped: 0 (per-thread ring capacity "),
            std::string::npos)
      << txt.out;
  EXPECT_NE(txt.out.find("counters:\n"), std::string::npos) << txt.out;

  obs::reset();
}

/// `value` written out again with one member or item per line, every
/// object's keys in reverse order, and string values `from` made `to`.
std::string relayout(const json::Value& value, const std::string& from,
                     const std::string& to) {
  using Type = json::Value::Type;
  std::string out;
  if (value.type() == Type::kString) {
    out += '"';
    out += json::escape(value.as_string() == from ? to : value.as_string());
    out += '"';
  } else if (value.type() == Type::kNumber) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value.as_number());
    out = buf;
  } else if (value.type() == Type::kArray) {
    for (const json::Value& item : value.items()) {
      out += (out.empty() ? "[\n" : ",\n") + relayout(item, from, to);
    }
    out = out.empty() ? "[]" : out + "\n]";
  } else if (value.type() == Type::kObject) {
    const std::vector<json::Value::Member>& members = value.members();
    for (auto it = members.rbegin(); it != members.rend(); ++it) {
      out += out.empty() ? "{\n\"" : ",\n\"";
      out += json::escape(it->key) + "\":\n" + relayout(it->value, from, to);
    }
    out = out.empty() ? "{}" : out + "\n}";
  } else {
    out = value.type() == Type::kNull ? "null"
                                      : (value.as_bool() ? "true" : "false");
  }
  return out;
}

/// trace-summary reads the trace by structure, not by line: the same
/// trace laid out one field per line, with its keys reordered and a
/// thread label holding a quote and a backslash, yields the same table
/// and the same --json document as the compact file `elrr batch` wrote.
TEST(Cli, TraceSummaryReadsAnyLayoutOfTheTrace) {
  const std::string manifest_path =
      ::testing::TempDir() + "/trace_layout.jsonl";
  io::save_text_file(manifest_path,
                     "{\"circuit\": \"s208\", \"mode\": \"score\", "
                     "\"cycles\": 2000}\n");
  const std::string compact = ::testing::TempDir() + "/trace_compact.json";
  const std::string relaid = ::testing::TempDir() + "/trace_relaid.json";
  const CliResult r = run_cli({"batch", manifest_path, "--trace", compact});
  ASSERT_EQ(r.code, 0) << r.out << r.err;
  obs::reset();

  const std::string text =
      relayout(json::parse(io::load_text_file(compact)), "sched-worker",
               "sched \"worker\" \\ 0");
  ASSERT_NE(text.find("\"sched \\\"worker\\\" \\\\ 0\""),
            std::string::npos)
      << text;
  ASSERT_NE(text.find("\"ph\":\n\"X\""), std::string::npos);
  io::save_text_file(relaid, text + "\n");

  const CliResult table = run_cli({"trace-summary", compact});
  ASSERT_EQ(table.code, 0) << table.err;
  EXPECT_NE(table.out.find("job.run"), std::string::npos) << table.out;
  const CliResult relaid_table = run_cli({"trace-summary", relaid});
  EXPECT_EQ(relaid_table.code, 0) << relaid_table.err;
  EXPECT_EQ(relaid_table.out, table.out);

  const CliResult js = run_cli({"trace-summary", compact, "--json"});
  ASSERT_EQ(js.code, 0) << js.err;
  CliResult relaid_js = run_cli({"trace-summary", relaid, "--json"});
  EXPECT_EQ(relaid_js.code, 0) << relaid_js.err;
  // The documents differ only in the "input" path they echo.
  const std::size_t at = relaid_js.out.find(relaid);
  ASSERT_NE(at, std::string::npos) << relaid_js.out;
  relaid_js.out.replace(at, relaid.size(), compact);
  EXPECT_EQ(relaid_js.out, js.out);
}

/// --trace vs ELRR_TRACE precedence: both arm the same obs layer, and
/// when both name a path the flag wins -- the trace lands at the
/// --trace path. Env alone still arms.
TEST(Cli, TraceFlagWinsOverTraceEnv) {
  const std::string manifest_path =
      ::testing::TempDir() + "/trace_prec.jsonl";
  io::save_text_file(manifest_path,
                     "{\"circuit\": \"s208\", \"mode\": \"score\", "
                     "\"cycles\": 2000}\n");
  const std::string env_path = ::testing::TempDir() + "/trace_env.json";
  const std::string flag_path = ::testing::TempDir() + "/trace_flag.json";
  std::remove(env_path.c_str());
  std::remove(flag_path.c_str());
  const auto exists = [](const std::string& p) {
    return std::ifstream(p).good();
  };

  ::setenv("ELRR_TRACE", env_path.c_str(), 1);
  const CliResult both = run_cli({"batch", manifest_path, "--trace",
                                  flag_path});
  EXPECT_EQ(both.code, 0) << both.err;
  EXPECT_TRUE(exists(flag_path)) << "flag path did not receive the trace";
  EXPECT_FALSE(exists(env_path))
      << "env path received a trace although the flag named another";
  ::unsetenv("ELRR_TRACE");
  obs::reset();

  // Env alone arms and the trace lands at the env path.
  ::setenv("ELRR_TRACE", env_path.c_str(), 1);
  const CliResult env_only = run_cli({"batch", manifest_path});
  EXPECT_EQ(env_only.code, 0) << env_only.err;
  EXPECT_TRUE(exists(env_path)) << "ELRR_TRACE alone did not write a trace";
  ::unsetenv("ELRR_TRACE");
  obs::reset();
}

/// `elrr postmortem` renders the line-oriented flight-recorder dump as
/// a report: reason/pid, ring health, in-flight identities, the event
/// tail and the registry mirror; a dump with no `end` marker gets an
/// explicit truncation warning, and a non-postmortem file is rejected.
TEST(Cli, PostmortemRendersADump) {
  const std::string path = ::testing::TempDir() + "/postmortem-4242.txt";
  io::save_text_file(
      path,
      "ELRR-POSTMORTEM 1\n"
      "reason: SIGSEGV\n"
      "pid: 4242\n"
      "events_recorded: 3\n"
      "events_dropped: 1\n"
      "inflight: tid=7 slice 128\n"
      "event: seq=2 t_ns=1000000 tid=7 name=job.pick a=3 b=0\n"
      "event: seq=3 t_ns=1500000 tid=7 name=slice.dispatch a=128 b=64\n"
      "counter: fleet.slices 12\n"
      "hist: fleet.slice count=3 total_ns=4500000 p50_le_ns=2097152 "
      "p95_le_ns=2097152 p99_le_ns=2097152\n"
      "end\n");
  const CliResult r = run_cli({"postmortem", path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("reason: SIGSEGV    pid: 4242"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("3 recorded, 1 dropped (ring wrapped"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("in flight when the process died:"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("tid=7 slice 128"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("job.pick"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("fleet.slices 12"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("phase latencies"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("WARNING"), std::string::npos) << r.out;

  // No `end` marker (the handler died mid-write, or the disk filled):
  // the report itself says the dump is incomplete.
  const std::string cut = ::testing::TempDir() + "/postmortem-cut.txt";
  io::save_text_file(cut, "ELRR-POSTMORTEM 1\nreason: SIGABRT\npid: 1\n");
  const CliResult truncated = run_cli({"postmortem", cut});
  EXPECT_EQ(truncated.code, 0) << truncated.err;
  EXPECT_NE(truncated.out.find(
                "WARNING: no 'end' marker -- dump is truncated"),
            std::string::npos)
      << truncated.out;

  const std::string bogus = ::testing::TempDir() + "/not_a_postmortem.txt";
  io::save_text_file(bogus, "{\"snapshot\": true}\n");
  const CliResult bad = run_cli({"postmortem", bogus});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("not a flight-recorder postmortem"),
            std::string::npos)
      << bad.err;
}

/// `elrr top` over a snapshot with every section present pins the
/// dashboard rendering: queue/fleet/jobs/cache/milp rows plus the
/// per-phase table from the embedded obs summary.
TEST(Cli, TopRendersASnapshot) {
  const std::string path = ::testing::TempDir() + "/snap.json";
  io::save_text_file(
      path,
      "{\"snapshot\": true, \"uptime_s\": 12.500, \"queued\": 3, "
      "\"running\": 2, \"workers\": 4, \"fleet\": {\"pool\": 8, "
      "\"busy\": 6}, \"stats\": {\"scheduler\": "
      "{\"submitted\": 10, \"completed\": 7, \"failed\": 1, "
      "\"rejected\": 0, \"retries\": 2, \"job_cache_hits\": 3}, "
      "\"fleet_cache\": {\"hits\": 30, \"misses\": 10}, \"milp\": "
      "{\"solves\": 7, \"solve_seconds\": 1.25}}, \"obs\": {\"phases\": "
      "[{\"name\": \"job.run\", \"count\": 5, \"total_s\": 2.000000, "
      "\"p50_s\": 0.400000000, \"p95_s\": 0.500000000, \"p99_s\": "
      "0.500000000}], \"counters\": {}, \"dropped_spans\": 0, "
      "\"ring_capacity\": 8192}}\n");
  const CliResult r = run_cli({"top", path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("uptime 12.5s   queued 3   running 2   "
                       "scheduler workers 4"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("fleet: pool 8, busy 6 (75%)\n"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("jobs:  submitted 10, completed 7, failed 1, "
                       "rejected 0, retries 2"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("cache: fleet 75.0% hit (30/40), job hits 3"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("milp:  solves 7, 1.25s total"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("phases:"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("  job.run                       5     2.000000"
                       "    0.400000    0.500000    0.500000\n"),
            std::string::npos)
      << r.out;
}

/// End to end: ELRR_STATS_SNAPSHOT through a real batch. The scheduler
/// publishes periodically and its destructor writes a terminal
/// snapshot, so after the batch returns the file renders through `top`;
/// a file that is not a snapshot is rejected with the expected-shape
/// hint.
TEST(Cli, TopReadsALiveSchedulerSnapshot) {
  const std::string manifest_path = ::testing::TempDir() + "/top_live.jsonl";
  io::save_text_file(manifest_path,
                     "{\"circuit\": \"s208\", \"mode\": \"score\", "
                     "\"cycles\": 2000}\n");
  const std::string snap_path = ::testing::TempDir() + "/top_live_snap.json";
  ::setenv("ELRR_STATS_SNAPSHOT", (snap_path + ":50").c_str(), 1);
  const CliResult batch = run_cli({"batch", manifest_path});
  ::unsetenv("ELRR_STATS_SNAPSHOT");
  ASSERT_EQ(batch.code, 0) << batch.out << batch.err;

  const CliResult top = run_cli({"top", snap_path});
  EXPECT_EQ(top.code, 0) << top.err;
  EXPECT_NE(top.out.find("uptime "), std::string::npos) << top.out;
  EXPECT_NE(top.out.find("jobs:  submitted 1, completed 1"),
            std::string::npos)
      << top.out;

  const CliResult bad = run_cli({"top", manifest_path});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("not a stats snapshot"), std::string::npos)
      << bad.err;
}

TEST(Cli, BatchRejectsBadManifestsWithLineNumbers) {
  const std::string manifest_path = ::testing::TempDir() + "/batch_bad.jsonl";
  io::save_text_file(manifest_path,
                     "{\"circuit\": \"s208\", \"mode\": \"score\"}\n"
                     "{\"circuit\": \"s208\", \"bogus\": 1}\n");
  const CliResult r = run_cli({"batch", manifest_path});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("manifest line 2"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("bogus"), std::string::npos) << r.err;
}

TEST(Cli, BatchValidatesKnobs) {
  const std::string manifest_path = ::testing::TempDir() + "/batch_ok.jsonl";
  io::save_text_file(manifest_path,
                     "{\"circuit\": \"s208\", \"mode\": \"score\"}\n");
  const CliResult zero = run_cli({"batch", manifest_path, "--jobs", "0"});
  EXPECT_EQ(zero.code, 1);
  EXPECT_NE(zero.err.find("--jobs"), std::string::npos) << zero.err;
  const CliResult huge =
      run_cli({"batch", manifest_path, "--threads", "100000"});
  EXPECT_EQ(huge.code, 1);
  EXPECT_NE(huge.err.find("--threads"), std::string::npos) << huge.err;
  const CliResult junk = run_cli({"batch", manifest_path, "--jobs", "two"});
  EXPECT_EQ(junk.code, 1);
  const CliResult missing = run_cli({"batch"});
  EXPECT_EQ(missing.code, 1);
  EXPECT_NE(missing.err.find("usage"), std::string::npos) << missing.err;
}

}  // namespace
}  // namespace elrr::cli
