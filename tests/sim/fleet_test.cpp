/// \file fleet_test.cpp
/// The cross-candidate simulation fleet's contract: a fleet job is
/// bit-identical to sequential simulation of the same (rrg, options) --
/// anchored against the oracle kernel, which shares no code with the
/// batched flat path -- regardless of worker-pool size, lane packing
/// (max_batch) or how many other candidates share the queue. Also pins
/// the worker-count resolution edge cases (hardware_concurrency() == 0,
/// threads > work items).

#include "sim/fleet.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/figures.hpp"
#include "sim/flat_kernel.hpp"
#include "tests/sim/oracle.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace elrr::sim {
namespace {

/// Random live RRG: ring backbone plus chords; early joins with random
/// gammas; optionally telescopic nodes; buffers up to 3 EBs deep. (Same
/// family as the flat-kernel differential tests, independent stream.)
Rrg random_rrg(std::uint64_t seed, bool allow_telescopic) {
  elrr::Rng rng(seed * 6089 + 11);
  const std::size_t n = 3 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  Rrg rrg;
  for (std::size_t i = 0; i < n; ++i) {
    rrg.add_node(indexed_name('n', i), 1.0);
  }
  const auto random_edge = [&](NodeId u, NodeId v) {
    const int tokens = static_cast<int>(rng.uniform_int(-1, 2));
    const int buffers =
        std::max(tokens, 0) + static_cast<int>(rng.uniform_int(0, 2));
    rrg.add_edge(u, v, tokens, buffers);
  };
  for (std::size_t i = 0; i < n; ++i) {
    random_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n));
  }
  const std::size_t chords =
      1 + static_cast<std::size_t>(rng.uniform_int(0, 3));
  for (std::size_t k = 0; k < chords; ++k) {
    const auto u = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto v = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    random_edge(u, v);
  }
  for (NodeId v = 0; v < rrg.num_nodes(); ++v) {
    if (rrg.graph().in_degree(v) >= 2 && rng.bernoulli(0.5)) {
      rrg.set_kind(v, NodeKind::kEarly);
      const auto probs = rng.simplex(rrg.graph().in_degree(v), 0.05);
      std::size_t idx = 0;
      for (EdgeId e : rrg.graph().in_edges(v)) rrg.set_gamma(e, probs[idx++]);
    }
  }
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    if (rrg.tokens(e) < 0 && !rrg.is_early(rrg.graph().dst(e))) {
      rrg.set_tokens(e, 0);
    }
  }
  if (allow_telescopic) {
    const auto t = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    rrg.set_telescopic(t, rng.uniform(0.3, 0.9),
                       static_cast<int>(rng.uniform_int(1, 3)));
  }
  std::vector<EdgeId> dead;
  while (!rrg.is_live(&dead)) {
    const int tokens = rrg.tokens(dead[0]) + 1;
    rrg.set_tokens(dead[0], tokens);
    rrg.set_buffers(dead[0], std::max(tokens, rrg.buffers(dead[0])));
  }
  rrg.validate();
  return rrg;
}

SimOptions fleet_options(std::uint64_t seed) {
  SimOptions options;
  options.seed = seed;
  options.warmup_cycles = 100;
  options.measure_cycles = 1500;
  options.runs = 3;
  return options;
}

struct Job {
  const Rrg* rrg;
  SimOptions options;
};

/// One ticket wave: submits every job in order, then waits for the
/// tickets in order. Returns the reports in submission order; `fresh`
/// (optional) counts the submissions that started a new simulation
/// rather than aliasing an earlier one.
std::vector<SimResult> run_wave(SimFleet& fleet, const std::vector<Job>& jobs,
                                std::size_t* fresh = nullptr) {
  std::vector<SimTicket> tickets;
  for (const Job& job : jobs) {
    tickets.push_back(fleet.submit_async(Rrg(*job.rrg), job.options));
  }
  std::vector<SimResult> reports;
  for (const SimTicket ticket : tickets) {
    reports.push_back(fleet.wait(ticket));
    if (fresh != nullptr && ticket.fresh) ++*fresh;
  }
  return reports;
}

/// Differential anchor: a fleet wave over early-only and telescopic
/// candidates in one queue reproduces, job for job, the oracle driver's
/// theta bit-exactly. The oracle shares no stepping code with the
/// batched kernel, so this pins the whole chain (lane packing, busy
/// countdowns, run-order merge) at once.
class FleetVsReference : public ::testing::TestWithParam<int> {};

TEST_P(FleetVsReference, ThetaBitExactPerJob) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Rrg plain = random_rrg(seed, false);
  const Rrg telescopic = random_rrg(seed, true);
  const SimOptions options = fleet_options(seed + 31);

  SimFleet fleet(3);
  const std::vector<SimResult> reports =
      run_wave(fleet, {{&plain, options}, {&telescopic, options}});
  ASSERT_EQ(reports.size(), 2u);

  const SimResult ref_plain = simulate_on_oracle(plain, options);
  const SimResult ref_telescopic = simulate_on_oracle(telescopic, options);

  EXPECT_EQ(reports[0].theta, ref_plain.theta);
  EXPECT_EQ(reports[0].stderr_theta, ref_plain.stderr_theta);
  EXPECT_EQ(reports[1].theta, ref_telescopic.theta);
  EXPECT_EQ(reports[1].stderr_theta, ref_telescopic.stderr_theta);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetVsReference, ::testing::Range(0, 60));

/// The pool size can never change any job's result -- including sizes
/// past the work-item count (over-spawn) and 0 (hardware concurrency,
/// whatever it reports).
TEST(SimFleet, WorkerCountNeverChangesResults) {
  std::vector<Rrg> candidates;
  for (std::uint64_t s = 0; s < 6; ++s) {
    candidates.push_back(random_rrg(900 + s, (s % 2) == 1));
  }
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    jobs.push_back({&candidates[i], fleet_options(77 + i)});
  }
  const auto run_with = [&](std::size_t threads) {
    SimFleet fleet(threads);
    return run_wave(fleet, jobs);
  };
  const std::vector<SimResult> solo = run_with(1);
  ASSERT_EQ(solo.size(), candidates.size());
  for (const std::size_t threads : {std::size_t{2}, std::size_t{5},
                                    std::size_t{64}, std::size_t{0}}) {
    const std::vector<SimResult> pooled = run_with(threads);
    ASSERT_EQ(pooled.size(), solo.size()) << "threads " << threads;
    for (std::size_t i = 0; i < solo.size(); ++i) {
      EXPECT_EQ(pooled[i].theta, solo[i].theta)
          << "threads " << threads << " job " << i;
      EXPECT_EQ(pooled[i].stderr_theta, solo[i].stderr_theta);
    }
  }
}

/// Lane packing (max_batch) is a pure wall-clock knob: solo stepping,
/// pairs, triples, the SSE default and the wide 8/16 lanes all produce
/// the identical theta, for early-only and telescopic candidates alike.
/// runs = 17 makes every cap produce remainder slices too (16+1, 8+8+1,
/// 4x4+1, ...), so the greedy width partition is exercised end to end.
TEST(SimFleet, LanePackingNeverChangesResults) {
  for (const bool telescopic : {false, true}) {
    const Rrg rrg = random_rrg(telescopic ? 431 : 430, telescopic);
    SimOptions options = fleet_options(5);
    options.runs = 17;
    options.measure_cycles = 400;  // 17 runs x 6 widths: keep each short
    options.max_batch = 1;
    const SimResult solo = simulate_throughput(rrg, options);
    for (const std::size_t width :
         {std::size_t{2}, std::size_t{3}, std::size_t{4}, std::size_t{8},
          std::size_t{16}, std::size_t{0}}) {
      options.max_batch = width;
      const SimResult packed = simulate_throughput(rrg, options);
      EXPECT_EQ(packed.theta, solo.theta)
          << "telescopic " << telescopic << " max_batch " << width;
      EXPECT_EQ(packed.stderr_theta, solo.stderr_theta);
    }
  }
}

/// Duplicate candidates -- identical RRG content and options, distinct
/// objects -- simulate once with dedup on, and the fanned-out scores are
/// bit-identical to the dedup-off fleet and to solo simulation.
TEST(SimFleet, DedupSharesScoresAcrossIdenticalCandidates) {
  const Rrg original = random_rrg(321, true);
  const Rrg copy = original;  // same content, different object
  const Rrg other = random_rrg(322, false);
  const SimOptions options = fleet_options(9);

  const std::vector<Job> jobs = {{&original, options},
                                 {&other, options},
                                 {&copy, options},
                                 {&original, options}};  // resubmitted

  SimFleet dedup_fleet(2, /*dedup=*/true);
  std::size_t dedup_fresh = 0;
  const std::vector<SimResult> deduped =
      run_wave(dedup_fleet, jobs, &dedup_fresh);
  ASSERT_EQ(deduped.size(), 4u);
  EXPECT_EQ(dedup_fresh, 2u);

  SimFleet plain_fleet(2, /*dedup=*/false);
  std::size_t plain_fresh = 0;
  const std::vector<SimResult> undeduped =
      run_wave(plain_fleet, jobs, &plain_fresh);
  ASSERT_EQ(undeduped.size(), 4u);
  EXPECT_EQ(plain_fresh, 4u);

  const SimResult solo = simulate_throughput(original, options);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(deduped[i].theta, undeduped[i].theta) << "job " << i;
    EXPECT_EQ(deduped[i].stderr_theta, undeduped[i].stderr_theta);
  }
  EXPECT_EQ(deduped[0].theta, solo.theta);
  EXPECT_EQ(deduped[2].theta, solo.theta);
  EXPECT_EQ(deduped[3].theta, solo.theta);
}

/// Dedup keys cover the options: the same candidate under different
/// seeds (or windows) must simulate separately.
TEST(SimFleet, DedupDistinguishesOptions) {
  const Rrg rrg = random_rrg(77, false);
  SimOptions longer = fleet_options(1);
  longer.measure_cycles += 500;
  SimFleet fleet(1);
  std::size_t fresh = 0;
  const std::vector<SimResult> reports = run_wave(
      fleet,
      {{&rrg, fleet_options(1)},
       {&rrg, fleet_options(2)},  // different seed
       {&rrg, longer}},
      &fresh);
  EXPECT_EQ(fresh, 3u);
  EXPECT_NE(reports[0].theta, reports[1].theta);
}

/// Dedup keys cover the RRG content: a one-buffer difference on one edge
/// (the granularity of a retiming/recycling move) separates candidates.
TEST(SimFleet, DedupDistinguishesConfigurations) {
  const Rrg rrg = random_rrg(55, false);
  Rrg recycled = rrg;
  // Add one empty EB to the first buffered edge (keeps liveness).
  for (EdgeId e = 0; e < recycled.num_edges(); ++e) {
    if (recycled.buffers(e) > 0) {
      recycled.set_buffers(e, recycled.buffers(e) + 1);
      break;
    }
  }
  SimFleet fleet(1);
  std::size_t fresh = 0;
  run_wave(fleet, {{&rrg, fleet_options(4)}, {&recycled, fleet_options(4)}},
           &fresh);
  EXPECT_EQ(fresh, 2u);
}

/// The worker pool persists across waves: spawned at the first
/// submission, parked in between, reused afterwards -- and results stay
/// reproducible wave over wave. Dedup is off so the second wave
/// simulates again instead of hitting the session cache; 12 runs make
/// each job three 4-lane slices, so the first submission alone sizes
/// the pool to its full width.
TEST(SimFleet, WorkerPoolPersistsAcrossDrains) {
  std::vector<Rrg> candidates;
  for (std::uint64_t s = 0; s < 4; ++s) {
    candidates.push_back(random_rrg(700 + s, (s % 2) == 0));
  }
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    jobs.push_back({&candidates[i], fleet_options(40 + i)});
    jobs.back().options.runs = 12;
  }
  SimFleet fleet(3, /*dedup=*/false);
  EXPECT_EQ(fleet.pool_size(), 0u);  // no submission yet: nothing spawned

  const std::vector<SimResult> first = run_wave(fleet, jobs);
  EXPECT_EQ(fleet.pool_size(), 3u);
  const std::vector<SimResult> second = run_wave(fleet, jobs);
  EXPECT_EQ(fleet.pool_size(), 3u);  // reused, not respawned
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].theta, first[i].theta) << "job " << i;
  }
}

/// Spawn-count rules at the edges: a single work item spawns one worker
/// no matter how many threads were requested; an explicit thread count
/// is honoured without consulting the hardware (resolve_worker_count
/// never reads it when requested != 0); fewer items than threads clamp
/// to the item count. Each fleet here gets one submission, so the
/// queued backlog that sizes the pool is exactly that job's slices.
TEST(SimFleet, SpawnCountEdgeCases) {
  const Rrg rrg = figures::figure1b(0.5, true);

  SimOptions one_item = fleet_options(3);
  one_item.runs = 4;  // one full lane -> exactly one work item
  SimFleet many_threads(16);
  run_wave(many_threads, {{&rrg, one_item}});
  EXPECT_EQ(many_threads.pool_size(), 1u);

  // 0 threads = hardware concurrency, whatever it reports (possibly 0 ->
  // clamped to 1); the fleet must agree with resolve_worker_count over
  // the real item count.
  SimOptions two_slices = fleet_options(5);
  two_slices.runs = 8;  // two 4-lane slices
  SimFleet hardware_fleet(0);
  run_wave(hardware_fleet, {{&rrg, two_slices}});
  const std::size_t expected =
      resolve_worker_count(0, std::thread::hardware_concurrency(), 2);
  EXPECT_EQ(hardware_fleet.pool_size(), expected);

  // items < threads: clamp to the queue length.
  SimFleet wide(32);
  run_wave(wide, {{&rrg, two_slices}});
  EXPECT_EQ(wide.pool_size(), 2u);

  // An explicit request resolves without the hardware value entirely.
  EXPECT_EQ(resolve_worker_count(3, 0, 10), 3u);
  EXPECT_EQ(resolve_worker_count(3, 1000, 10), 3u);
}

/// Telescopic graphs run on the batched path like everything else and
/// match the oracle driver.
TEST(SimFleet, TelescopicTakesTheBatchedFlatPath) {
  const Rrg rrg = random_rrg(77, true);
  ASSERT_TRUE(rrg.has_telescopic());
  SimOptions options = fleet_options(3);
  options.runs = 8;
  options.max_batch = 8;
  const SimResult report = simulate_throughput(rrg, options);
  const SimResult oracle = simulate_on_oracle(rrg, options);
  EXPECT_EQ(report.theta, oracle.theta);
  EXPECT_EQ(report.stderr_theta, oracle.stderr_theta);
}

/// An EB chain deeper than the 64-bit window runs on the same kernel and
/// matches the oracle driver bit for bit.
TEST(SimFleet, DeepEbChainMatchesTheOracle) {
  Rrg rrg;
  const NodeId a = rrg.add_node("a", 1.0);
  const NodeId b = rrg.add_node("b", 1.0);
  rrg.add_edge(a, b, 1, 70);  // deeper than the 64-bit ring window
  rrg.add_edge(b, a, 1, 1);
  const SimResult report = simulate_throughput(rrg, fleet_options(9));
  const SimResult oracle = simulate_on_oracle(rrg, fleet_options(9));
  EXPECT_EQ(report.theta, oracle.theta);
  EXPECT_EQ(report.stderr_theta, oracle.stderr_theta);
  EXPECT_NEAR(report.theta, 2.0 / 71.0, 1e-2);
}

/// Worker-count resolution: never under-spawn below one worker (even
/// when hardware_concurrency() reports 0 = "unknown"), never over-spawn
/// past the queue length.
TEST(SimFleet, ResolveWorkerCountEdgeCases) {
  EXPECT_EQ(resolve_worker_count(0, 0, 8), 1u);   // hardware unknown
  EXPECT_EQ(resolve_worker_count(0, 4, 8), 4u);   // all cores
  EXPECT_EQ(resolve_worker_count(0, 16, 3), 3u);  // more cores than work
  EXPECT_EQ(resolve_worker_count(16, 4, 3), 3u);  // more threads than work
  EXPECT_EQ(resolve_worker_count(2, 1, 8), 2u);   // explicit request wins
  EXPECT_EQ(resolve_worker_count(5, 0, 0), 1u);   // empty queue
  EXPECT_EQ(resolve_worker_count(0, 0, 0), 1u);
}

TEST(SimFleet, RejectsDegenerateOptions) {
  SimFleet fleet(1);
  const Rrg rrg = figures::figure1b(0.5, true);
  SimOptions no_cycles = fleet_options(1);
  no_cycles.measure_cycles = 0;
  EXPECT_THROW(fleet.submit_async(Rrg(rrg), no_cycles), Error);
  SimOptions no_runs = fleet_options(1);
  no_runs.runs = 0;
  EXPECT_THROW(fleet.submit_async(Rrg(rrg), no_runs), Error);
}

/// More workers than runs on a single job must neither deadlock nor
/// change the result (the one-job fleet is simulate_throughput itself).
TEST(SimFleet, MoreThreadsThanRuns) {
  const Rrg rrg = figures::figure1b(0.5, true);
  SimOptions options = fleet_options(12);
  options.runs = 2;
  options.threads = 1;
  const SimResult solo = simulate_throughput(rrg, options);
  options.threads = 32;
  const SimResult pooled = simulate_throughput(rrg, options);
  EXPECT_EQ(pooled.theta, solo.theta);
  EXPECT_EQ(pooled.stderr_theta, solo.stderr_theta);
}

}  // namespace
}  // namespace elrr::sim
