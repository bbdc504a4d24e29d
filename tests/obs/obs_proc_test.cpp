/// \file obs_proc_test.cpp
/// Cross-process tracing through the fleet's process-isolated tier:
/// real `elrr work` worker processes (spawned from ELRR_CLI_BIN, like
/// the proc chaos suite), armed via the inherited ELRR_TRACE
/// environment. Worker-side spans ride back on the response protocol's
/// span section, get re-anchored onto the supervisor clock, and must
/// land *inside* the supervisor's dispatching fleet.proc_slice span --
/// the obs clock/anchoring contract, asserted against live processes.
///
/// Like the chaos suite, these tests fork/exec and are excluded from
/// the sanitizer sweep by label selection; the in-process protocol
/// round-trip is sanitizer-covered in obs_test.cpp.

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench89/generator.hpp"
#include "obs/trace.hpp"
#include "sim/fleet.hpp"
#include "sim/simulator.hpp"

namespace elrr::obs {
namespace {

sim::SimOptions small_options() {
  sim::SimOptions options;
  options.seed = 1;
  options.warmup_cycles = 200;
  options.measure_cycles = 1000;
  options.runs = 4;
  return options;
}

/// Env-managing fixture: the proc tier reads ELRR_PROC_WORKERS at fleet
/// construction and spawned workers arm themselves from the inherited
/// ELRR_TRACE, so every test must set up and tear down both. The trace
/// path is never actually written: `elrr work` disables its own atexit
/// export, and this process disarms + resets before exiting.
class ObsProcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::setenv("ELRR_WORK_BIN", ELRR_CLI_BIN, 1);
    ::setenv("ELRR_PROC_WORKERS", "1", 1);
    trace_path_ = ::testing::TempDir() + "obs_proc_trace-%p.json";
    ::setenv("ELRR_TRACE", trace_path_.c_str(), 1);
    set_export_on_exit(false);
    configure(trace_path_, 8192);
  }
  void TearDown() override {
    ::unsetenv("ELRR_TRACE");
    ::unsetenv("ELRR_PROC_WORKERS");
    ::unsetenv("ELRR_WORK_BIN");
    reset();
  }
  std::string trace_path_;
};

TEST_F(ObsProcTest, WorkerSpansNestInsideSupervisorSlices) {
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s208"), 1);
  sim::SimFleet fleet(1);
  const sim::SimTicket ticket = fleet.submit_async(Rrg(rrg), small_options());
  const sim::SimReport report = fleet.wait(ticket);
  EXPECT_GT(report.theta, 0.0);
  fleet.release(ticket);

  const std::vector<SpanRecord> spans = snapshot_spans();
  std::vector<SpanRecord> slices;   // supervisor-side dispatch spans
  std::vector<SpanRecord> foreign;  // re-anchored worker spans
  for (const SpanRecord& rec : spans) {
    if (std::strcmp(rec.name, "fleet.proc_slice") == 0 && rec.pid == 0) {
      slices.push_back(rec);
    }
    if (rec.pid != 0) foreign.push_back(rec);
  }
  ASSERT_FALSE(slices.empty()) << "no supervisor fleet.proc_slice spans";
  ASSERT_FALSE(foreign.empty()) << "no worker spans came back on the pipe";

  bool saw_work_slice = false;
  const std::uint32_t self_pid = static_cast<std::uint32_t>(::getpid());
  for (const SpanRecord& w : foreign) {
    // Worker spans carry the *worker's* pid as their track group.
    EXPECT_NE(w.pid, self_pid);
    EXPECT_NE(w.pid, 0u);
    if (std::strcmp(w.name, "work.slice") == 0) saw_work_slice = true;
    // The anchoring contract: every re-anchored worker span lies within
    // some supervisor dispatch slice (the transfer delay pushes it
    // late, never early, so containment is exact, not approximate).
    bool contained = false;
    for (const SpanRecord& s : slices) {
      if (s.start_ns <= w.start_ns && w.end_ns <= s.end_ns) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained)
        << w.name << " [" << w.start_ns << ", " << w.end_ns
        << ") outside every fleet.proc_slice span";
  }
  EXPECT_TRUE(saw_work_slice);
}

TEST_F(ObsProcTest, DisarmedRunProducesNoSpans) {
  // Disarm both sides: the parent by reset(), the workers by removing
  // ELRR_TRACE from the environment they inherit. The proc tier then
  // speaks the old (span-free) response format end to end.
  ::unsetenv("ELRR_TRACE");
  reset();
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s208"), 1);
  sim::SimFleet fleet(1);
  const sim::SimTicket ticket = fleet.submit_async(Rrg(rrg), small_options());
  const sim::SimReport report = fleet.wait(ticket);
  EXPECT_GT(report.theta, 0.0);
  fleet.release(ticket);
  EXPECT_TRUE(snapshot_spans().empty());
  EXPECT_EQ(dropped_spans(), 0u);
}

TEST_F(ObsProcTest, ArmedAndDisarmedThetasAreBitExact) {
  // Tracing is pure observability: the armed proc run's theta must be
  // bit-identical to the disarmed one (determinism contract).
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s208"), 1);
  double armed_theta = 0.0;
  {
    sim::SimFleet fleet(1);
    const sim::SimTicket ticket = fleet.submit_async(Rrg(rrg), small_options());
    armed_theta = fleet.wait(ticket).theta;
    fleet.release(ticket);
  }
  ::unsetenv("ELRR_TRACE");
  reset();
  double disarmed_theta = 0.0;
  {
    sim::SimFleet fleet(1);
    const sim::SimTicket ticket = fleet.submit_async(Rrg(rrg), small_options());
    disarmed_theta = fleet.wait(ticket).theta;
    fleet.release(ticket);
  }
  EXPECT_EQ(armed_theta, disarmed_theta);
}

}  // namespace
}  // namespace elrr::obs
