/// \file obs_test.cpp
/// In-process suite for the obs tracing + metrics layer (obs/trace.hpp):
/// the disarmed no-op contract (the suite runs under the sanitizer
/// sweep -- `ctest -L obs` on an ELRR_SANITIZE build -- so the one-load
/// fast path is ASan/UBSan-covered), ring wrap-around semantics, span
/// nesting, histogram percentile brackets, the Chrome trace-event JSON
/// emitted by write_trace (parsed back by the strict support/json
/// reader: "the emitted JSON parses" is the contract, not a substring
/// match), and the bit-exactness of fleet thetas armed vs disarmed.

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench89/generator.hpp"
#include "core/opt.hpp"
#include "flow/engine.hpp"
#include "heur/heuristic.hpp"
#include "lp/milp.hpp"
#include "obs/trace.hpp"
#include "sim/fleet.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace elrr::obs {
namespace {

/// Every test leaves the process-wide registry disarmed and empty: the
/// obs state is a singleton, and suite order must not matter.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("ELRR_TRACE");
    ::unsetenv("ELRR_OBS_BUF");
    reset();
  }
  void TearDown() override {
    ::unsetenv("ELRR_TRACE");
    ::unsetenv("ELRR_OBS_BUF");
    reset();
  }
};

TEST_F(ObsTest, DisarmedSitesRecordNothing) {
  EXPECT_FALSE(armed());
  EXPECT_EQ(now_ns_if_armed(), 0);
  record_span("never", 1, 2);
  count("never", 3);
  { OBS_SPAN("never.scope"); }
  { OBS_SPAN_ID("never.scope", 42); }
  EXPECT_TRUE(snapshot_spans().empty());
  EXPECT_TRUE(counters().empty());
  EXPECT_TRUE(histogram_summary().empty());
  EXPECT_EQ(dropped_spans(), 0u);
}

TEST_F(ObsTest, SpanGuardRecordsNestedSpans) {
  configure("", 1024);
  arm(true);
  {
    OBS_SPAN("outer");
    { OBS_SPAN("inner"); }
  }
  const std::vector<SpanRecord> spans = snapshot_spans();
  ASSERT_EQ(spans.size(), 2u);
  // snapshot_spans sorts by start: outer opened first.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[1].name, "inner");
  // Strict nesting: inner lies within outer on the same track.
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
  EXPECT_EQ(spans[0].tid, spans[1].tid);
  EXPECT_GT(spans[0].tid, 0u);
  EXPECT_EQ(spans[0].arg, kNoArg);
}

TEST_F(ObsTest, ArmedHeuristicRecordsItsRunAndEveryEvaluation) {
  configure("", 4096);
  arm(true);
  HeuristicOptions options;
  options.max_lp_evals = 12;
  const HeuristicResult heur = heur_eff_cyc(
      bench89::make_table2_rrg(bench89::spec_by_name("s27"), 1), options);
  arm(false);
  const std::vector<SpanRecord> spans = snapshot_spans();
  ASSERT_FALSE(spans.empty());
  // Sorted by start: the run opens first and holds every evaluation.
  EXPECT_STREQ(spans[0].name, "heur.eff_cyc");
  int evals = 0;
  for (const SpanRecord& span : spans) {
    if (std::string(span.name) != "heur.eval") continue;
    ++evals;
    EXPECT_GE(span.start_ns, spans[0].start_ns);
    EXPECT_LE(span.end_ns, spans[0].end_ns);
  }
  EXPECT_EQ(evals, heur.lp_evals);
  EXPECT_GT(evals, 1);
}

TEST_F(ObsTest, ArmedEngineScoreRecordsItsWaitAndItsCertificates) {
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s420"), 1);
  flow::EngineOptions options;
  options.opt.epsilon = 0.05;
  options.sim.measure_cycles = 2000;
  options.sim.warmup_cycles = 200;
  options.sim.runs = 2;
  flow::Engine engine(rrg, options);
  const std::vector<ParetoPoint> points = min_eff_cyc(rrg, options.opt).points;
  configure("", 4096);
  arm(true);
  const std::vector<flow::ScoredPoint> scored = engine.score(points);
  arm(false);
  const std::vector<SpanRecord> spans = snapshot_spans();
  ASSERT_FALSE(spans.empty());
  // Sorted by start: the score call opens first and holds the fleet's
  // slices of its candidates.
  EXPECT_STREQ(spans[0].name, "engine.score");
  int slices = 0;
  for (const SpanRecord& span : spans) {
    if (std::string(span.name) == "engine.score") {
      EXPECT_EQ(&span, &spans[0]) << "one span per score() call";
    }
    if (std::string(span.name) != "fleet.slice") continue;
    ++slices;
    EXPECT_GE(span.start_ns, spans[0].start_ns);
    EXPECT_LE(span.end_ns, spans[0].end_ns);
  }
  EXPECT_GT(slices, 0);
  // Both certificates are counters: the pinned candidates, and the
  // simulated thetas outside their bounds (none).
  std::map<std::string, std::uint64_t> by_name;
  for (const CounterValue& row : counters()) by_name[row.name] = row.value;
  EXPECT_EQ(by_name["flow.exact_thetas"], engine.exact_thetas());
  EXPECT_GT(engine.exact_thetas(), 0u);
  EXPECT_LT(engine.exact_thetas(), scored.size());
  EXPECT_EQ(by_name["flow.bound_violations"], 0u);
}

TEST_F(ObsTest, ArmedBranchAndBoundCountsHowItsNodesWereSolved) {
  configure("", 1024);
  arm(true);
  // The s420 golden walk step: its tree outgrows the node snapshot
  // budget, so it solves nodes both ways.
  const lp::MilpResult r = lp::solve_milp(build_min_cyc_model(
      bench89::make_table2_rrg(bench89::spec_by_name("s420"), 1), 1.25));
  arm(false);
  ASSERT_EQ(r.status, lp::MilpStatus::kOptimal);
  ASSERT_GT(r.warm_nodes, 0);
  ASSERT_GT(r.replayed_nodes, 0);
  std::map<std::string, std::uint64_t> by_name;
  for (const CounterValue& row : counters()) by_name[row.name] = row.value;
  EXPECT_EQ(by_name["lp.node.parent_warm"],
            static_cast<std::uint64_t>(r.warm_nodes));
  EXPECT_EQ(by_name["lp.node.root_replay"],
            static_cast<std::uint64_t>(r.replayed_nodes));
}

TEST_F(ObsTest, SpanIdRidesInArg) {
  configure("", 1024);
  arm(true);
  { OBS_SPAN_ID("job.attempt", 7); }
  const std::vector<SpanRecord> spans = snapshot_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].arg, 7u);
}

TEST_F(ObsTest, RingWrapDropsOldestFirst) {
  configure("", 16);
  arm(true);
  for (int i = 0; i < 40; ++i) {
    const std::string name = indexed_name('s', i);
    record_span(name.c_str(), i + 1, i + 2);
  }
  const std::vector<SpanRecord> spans = snapshot_spans();
  ASSERT_EQ(spans.size(), 16u);
  // The 24 oldest are gone; the survivors are s24..s39 in order.
  EXPECT_STREQ(spans.front().name, "s24");
  EXPECT_STREQ(spans.back().name, "s39");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(std::string(spans[i].name), indexed_name('s', 24 + i));
  }
  EXPECT_EQ(dropped_spans(), 24u);
  // The histograms saw every span, wrap or not.
  EXPECT_EQ(histogram_summary().size(), 40u);
}

TEST_F(ObsTest, CountersAccumulateNameSorted) {
  configure("", 64);
  arm(true);
  count("fleet.dedup_hit");
  count("fleet.dedup_hit", 5);
  count("job.retries");
  const std::vector<CounterValue> rows = counters();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "fleet.dedup_hit");
  EXPECT_EQ(rows[0].value, 6u);
  EXPECT_EQ(rows[1].name, "job.retries");
  EXPECT_EQ(rows[1].value, 1u);
}

TEST_F(ObsTest, HistogramPercentilesStayInLog2Bracket) {
  configure("", 1024);
  arm(true);
  // 100 spans of exactly 1000 ns: every one lands in the [512, 1024) ns
  // bucket, so every percentile must interpolate inside that bracket.
  for (int i = 0; i < 100; ++i) record_span("h", 0, 1000);
  const std::vector<PhaseSummary> rows = histogram_summary();
  ASSERT_EQ(rows.size(), 1u);
  const PhaseSummary& row = rows[0];
  EXPECT_EQ(row.name, "h");
  EXPECT_EQ(row.count, 100u);
  EXPECT_DOUBLE_EQ(row.total_s, 100 * 1000e-9);
  for (const double p : {row.p50_s, row.p95_s, row.p99_s}) {
    EXPECT_GE(p, 512e-9);
    EXPECT_LE(p, 1024e-9);
  }
  EXPECT_LE(row.p50_s, row.p95_s);
  EXPECT_LE(row.p95_s, row.p99_s);
}

TEST_F(ObsTest, HeavyTailPercentilesNeverExceedTheMax) {
  configure("", 1024);
  arm(true);
  // 94 fast spans and 6 of 108 s: the slow ones land in the
  // [2^36, 2^37) ns bucket (68.7-137.4 s), whose interpolation alone put
  // p99 near 126 s -- past the largest sample.
  const std::int64_t max_ns = 108'000'000'000;
  for (int i = 0; i < 94; ++i) record_span("tail", 0, 1000);
  for (int i = 0; i < 6; ++i) record_span("tail", 0, max_ns - i);
  // A Pareto(1.1) stream on a second site: any percentile the buckets
  // can place must still sit inside [min, max].
  std::uint64_t state = 7;
  std::int64_t pareto_min = INT64_MAX, pareto_max = 0;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u = (static_cast<double>(state >> 11) + 0.5) * 0x1p-53;
    const auto ns = static_cast<std::int64_t>(1000.0 / std::pow(u, 1 / 1.1));
    pareto_min = std::min(pareto_min, ns);
    pareto_max = std::max(pareto_max, ns);
    record_span("pareto", 0, ns);
  }
  const std::vector<PhaseSummary> rows = histogram_summary();
  ASSERT_EQ(rows.size(), 2u);
  const PhaseSummary& pareto = rows[0];
  const PhaseSummary& tail = rows[1];
  ASSERT_EQ(tail.name, "tail");
  EXPECT_LE(tail.p95_s, max_ns * 1e-9);
  EXPECT_EQ(tail.p99_s, max_ns * 1e-9);
  EXPECT_LE(tail.p50_s, 1024e-9);  // inside the fast spans' bucket
  ASSERT_EQ(pareto.name, "pareto");
  for (const double p : {pareto.p50_s, pareto.p95_s, pareto.p99_s}) {
    EXPECT_GE(p, pareto_min * 1e-9);
    EXPECT_LE(p, pareto_max * 1e-9);
  }
  EXPECT_LE(pareto.p50_s, pareto.p95_s);
  EXPECT_LE(pareto.p95_s, pareto.p99_s);
}

TEST_F(ObsTest, ExpandTracePathSubstitutesPid) {
  const std::string pid = std::to_string(static_cast<long>(::getpid()));
  EXPECT_EQ(expand_trace_path("trace-%p.json"), "trace-" + pid + ".json");
  EXPECT_EQ(expand_trace_path("plain.json"), "plain.json");
  EXPECT_EQ(expand_trace_path("%p"), pid);
  EXPECT_EQ(expand_trace_path("50%"), "50%");  // lone % passes through
}

TEST_F(ObsTest, ConfigureFromEnvValidatesStrictly) {
  ::setenv("ELRR_OBS_BUF", "notanumber", 1);
  EXPECT_THROW(configure_from_env(), InvalidInputError);
  ::setenv("ELRR_OBS_BUF", "8", 1);  // below the 16-span floor
  EXPECT_THROW(configure_from_env(), InvalidInputError);
  ::setenv("ELRR_OBS_BUF", "1024", 1);
  configure_from_env();
  EXPECT_EQ(ring_capacity(), 1024u);
  EXPECT_FALSE(armed());  // no ELRR_TRACE: validated but disarmed

  const std::string path = ::testing::TempDir() + "obs_env_trace.json";
  ::setenv("ELRR_TRACE", path.c_str(), 1);
  configure_from_env();
  EXPECT_TRUE(armed());
  EXPECT_EQ(trace_path(), path);
}

TEST_F(ObsTest, ObsBufBoundariesAreExact) {
  // The documented range is [16, 2^24], inclusive on both ends: each
  // boundary is accepted and each first value past it rejected, so a
  // range change can never slip through silently.
  ::setenv("ELRR_OBS_BUF", "16", 1);
  configure_from_env();
  EXPECT_EQ(ring_capacity(), 16u);
  ::setenv("ELRR_OBS_BUF", "16777216", 1);  // 2^24
  configure_from_env();
  EXPECT_EQ(ring_capacity(), std::size_t{1} << 24);
  ::setenv("ELRR_OBS_BUF", "15", 1);
  EXPECT_THROW(configure_from_env(), InvalidInputError);
  ::setenv("ELRR_OBS_BUF", "16777217", 1);  // 2^24 + 1
  EXPECT_THROW(configure_from_env(), InvalidInputError);
  ::setenv("ELRR_OBS_BUF", "", 1);
  EXPECT_THROW(configure_from_env(), InvalidInputError);
  ::setenv("ELRR_OBS_BUF", "-16", 1);
  EXPECT_THROW(configure_from_env(), InvalidInputError);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST_F(ObsTest, WriteTraceEmitsParsableChromeJson) {
  const std::string path = ::testing::TempDir() + "obs_unit_trace.json";
  configure(path, 256);
  set_thread_label("obs-test-main");
  const std::int64_t t = detail::now_ns();
  record_span("milp.solve", t, t + 5000, 42);
  record_span("fleet.slice", t + 100, t + 4000);
  count("job.done", 3);
  write_trace(trace_path());

  const json::Value root = json::parse(read_file(path));
  ASSERT_TRUE(root.is_object());
  const json::Value& events = root.at("traceEvents");
  ASSERT_EQ(events.type(), json::Value::Type::kArray);

  // One process track: every event, metadata included, carries our pid.
  const double self_pid = static_cast<double>(::getpid());
  bool saw_milp = false, saw_slice = false, saw_thread_name = false;
  for (const json::Value& ev : events.items()) {
    ASSERT_TRUE(ev.is_object());
    EXPECT_EQ(ev.at("pid").as_number(), self_pid);
    const std::string ph = ev.at("ph").as_string();
    ASSERT_TRUE(ph == "X" || ph == "M") << ph;
    if (ph == "M") {
      if (ev.at("name").as_string() == "thread_name" &&
          ev.at("args").at("name").as_string() == "obs-test-main") {
        saw_thread_name = true;
      }
      continue;
    }
    // Every complete event carries the full Chrome trace-event shape.
    EXPECT_EQ(ev.at("cat").as_string(), "elrr");
    EXPECT_GE(ev.at("ts").as_number(), 0.0);
    EXPECT_GE(ev.at("dur").as_number(), 0.0);
    if (ev.at("name").as_string() == "milp.solve") {
      saw_milp = true;
      EXPECT_EQ(ev.at("args").at("id").as_number(), 42.0);
      EXPECT_NEAR(ev.at("dur").as_number(), 5.0, 1e-9);  // 5000 ns = 5 us
    }
    if (ev.at("name").as_string() == "fleet.slice") saw_slice = true;
  }
  EXPECT_TRUE(saw_milp);
  EXPECT_TRUE(saw_slice);
  EXPECT_TRUE(saw_thread_name);

  const json::Value& other = root.at("otherData");
  EXPECT_EQ(other.at("dropped_spans").as_number(), 0.0);
  EXPECT_EQ(other.at("job.done").as_number(), 3.0);
  std::remove(path.c_str());
}

TEST_F(ObsTest, WriteTraceExpandsPidPlaceholder) {
  const std::string templ = ::testing::TempDir() + "obs_pid_%p.json";
  configure(templ, 64);
  record_span("x", 1, 2);
  write_trace(trace_path());
  const std::string expanded = expand_trace_path(templ);
  std::ifstream in(expanded);
  EXPECT_TRUE(in.good()) << expanded;
  in.close();
  std::remove(expanded.c_str());
}

/// Tracing is pure observability: a fleet run over s208 scores the same
/// theta, bit for bit, armed and disarmed, and the armed run did record
/// its slices on the fleet's worker tracks.
TEST_F(ObsTest, ArmedAndDisarmedFleetThetasAreBitExact) {
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s208"), 1);
  sim::SimOptions options;
  options.seed = 1;
  options.warmup_cycles = 200;
  options.measure_cycles = 1000;
  options.runs = 4;
  const auto score = [&] {
    sim::SimFleet fleet(1);
    const sim::SimTicket ticket = fleet.submit_async(Rrg(rrg), options);
    const double theta = fleet.wait(ticket).theta;
    fleet.release(ticket);
    return theta;
  };
  const double disarmed = score();
  EXPECT_TRUE(snapshot_spans().empty());
  configure("", 1024);
  arm(true);
  const double traced = score();
  arm(false);
  EXPECT_EQ(traced, disarmed);
  bool saw_slice = false;
  for (const SpanRecord& span : snapshot_spans()) {
    saw_slice = saw_slice || std::string(span.name) == "fleet.slice";
  }
  EXPECT_TRUE(saw_slice);
}

}  // namespace
}  // namespace elrr::obs
