/// \file fleet_async_test.cpp
/// The fleet's ticket API: submit_async tickets complete on the
/// background pool with results bit-identical across pool sizes, dedup
/// on/off and solo simulation; owning submission keeps candidates alive
/// for exactly as long as the simulation needs them; and the session
/// cache dedups identical candidates across submission waves -- the
/// cross-iteration result cache the pipelined flow engine rides on.

#include "sim/fleet.hpp"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/figures.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace elrr::sim {
namespace {

/// Random live RRG (same family as fleet_test.cpp, independent stream).
Rrg random_rrg(std::uint64_t seed, bool allow_telescopic) {
  elrr::Rng rng(seed * 7121 + 5);
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

SimOptions async_options(std::uint64_t seed) {
  SimOptions options;
  options.seed = seed;
  options.warmup_cycles = 100;
  options.measure_cycles = 1200;
  options.runs = 3;
  return options;
}

/// One ticket wave: submits a copy of every candidate in order, then
/// waits for the tickets in order. Returns the reports in submission
/// order.
std::vector<SimResult> run_wave(SimFleet& fleet,
                                const std::vector<const Rrg*>& candidates,
                                const SimOptions& options) {
  std::vector<SimTicket> tickets;
  for (const Rrg* rrg : candidates) {
    tickets.push_back(fleet.submit_async(Rrg(*rrg), options));
  }
  std::vector<SimResult> reports;
  for (const SimTicket ticket : tickets) reports.push_back(fleet.wait(ticket));
  return reports;
}

/// Tickets reproduce solo simulation bit-exactly, whatever the pool size
/// and whether the session cache is on -- the determinism contract does
/// not care how a job entered the fleet. Tickets are waited here in
/// reverse submission order and compared with an in-order wave on a
/// dedup-off fleet.
TEST(SimFleetAsync, TicketsMatchDrainAndSolo) {
  std::vector<Rrg> candidates;
  for (std::uint64_t s = 0; s < 6; ++s) {
    candidates.push_back(random_rrg(100 + s, (s % 2) == 1));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SimFleet fleet(threads);
    std::vector<SimTicket> tickets;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      tickets.push_back(
          fleet.submit_async(Rrg(candidates[i]), async_options(10 + i)));
      EXPECT_TRUE(tickets.back().valid());
    }
    std::vector<SimResult> reports(candidates.size());
    for (std::size_t i = candidates.size(); i-- > 0;) {
      reports[i] = fleet.wait(tickets[i]);
    }

    SimFleet plain_fleet(threads, /*dedup=*/false);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const std::vector<SimResult> plain =
          run_wave(plain_fleet, {&candidates[i]}, async_options(10 + i));
      EXPECT_EQ(reports[i].theta, plain[0].theta)
          << "threads " << threads << " job " << i;
      EXPECT_EQ(reports[i].stderr_theta, plain[0].stderr_theta);
      const SimResult solo =
          simulate_throughput(candidates[i], async_options(10 + i));
      EXPECT_EQ(reports[i].theta, solo.theta) << "job " << i;
    }
  }
}

/// wait(ticket) is usable in any order, re-waitable (results are cached
/// for the fleet's lifetime), and poll() flips to true exactly when the
/// result is available.
TEST(SimFleetAsync, WaitByTicketInAnyOrder) {
  const Rrg a = random_rrg(201, false);
  const Rrg b = random_rrg(202, true);
  SimFleet fleet(2);
  const SimTicket ta = fleet.submit_async(Rrg(a), async_options(1));
  const SimTicket tb = fleet.submit_async(Rrg(b), async_options(2));

  const SimResult rb = fleet.wait(tb);  // reverse order
  const SimResult ra = fleet.wait(ta);
  EXPECT_TRUE(fleet.poll(ta));
  EXPECT_TRUE(fleet.poll(tb));
  EXPECT_EQ(ra.theta, simulate_throughput(a, async_options(1)).theta);
  EXPECT_EQ(rb.theta, simulate_throughput(b, async_options(2)).theta);

  // Re-wait: the cached result is bit-identical.
  const SimResult ra2 = fleet.wait(ta);
  EXPECT_EQ(ra2.theta, ra.theta);
  EXPECT_EQ(ra2.stderr_theta, ra.stderr_theta);
}

/// Owning submission moves the candidate into the fleet, so a temporary
/// the caller lets go of outlives its simulation by construction. Under
/// ASan a lifetime bug here is a hard failure.
TEST(SimFleetAsync, OwningSubmitOutlivesTheCaller) {
  const Rrg keeper = random_rrg(300, true);  // stays alive for the oracle
  const SimOptions options = async_options(7);

  SimFleet fleet(2);
  SimTicket ticket;
  {
    Rrg temporary = keeper;  // dies at scope end -- the fleet's copy lives
    ticket = fleet.submit_async(std::move(temporary), options);
  }
  const SimResult async_report = fleet.wait(ticket);
  EXPECT_EQ(async_report.theta, simulate_throughput(keeper, options).theta);

  // A wave of temporaries, waited in order after the originals are
  // gone: moved lvalues and a prvalue copy, with and without aliasing.
  const Rrg oracle = random_rrg(301, false);
  SimFleet wave_fleet(2);
  std::vector<SimTicket> tickets;
  {
    Rrg first = keeper;
    Rrg second = oracle;
    tickets.push_back(wave_fleet.submit_async(std::move(first), options));
    tickets.push_back(wave_fleet.submit_async(Rrg(second), options));
    tickets.push_back(wave_fleet.submit_async(std::move(second), options));
  }
  const Rrg live = random_rrg(302, false);
  tickets.push_back(wave_fleet.submit_async(Rrg(live), options));
  std::vector<SimResult> reports;
  for (const SimTicket t : tickets) reports.push_back(wave_fleet.wait(t));
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports[0].theta, simulate_throughput(keeper, options).theta);
  EXPECT_EQ(reports[1].theta, simulate_throughput(oracle, options).theta);
  EXPECT_EQ(reports[2].theta, reports[1].theta);
  EXPECT_EQ(reports[3].theta, simulate_throughput(live, options).theta);
}

/// The session cache is cross-wave: resubmitting a candidate after the
/// first wave completed reuses the finished simulation (no new unique
/// job), and the fanned-out report is bit-identical.
TEST(SimFleetAsync, SessionCachePersistsAcrossWaves) {
  const Rrg rrg = random_rrg(400, false);
  const Rrg other = random_rrg(401, true);
  const SimOptions options = async_options(3);

  SimFleet fleet(2);
  const std::vector<SimResult> first =
      run_wave(fleet, {&rrg, &other}, options);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(fleet.cache_stats().entries, 2u);

  // Second wave: one repeat (cache hit), one fresh candidate.
  const Rrg copy = rrg;  // identical content, different object
  const Rrg fresh = random_rrg(402, false);
  const std::vector<SimResult> second =
      run_wave(fleet, {&copy, &fresh}, options);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(fleet.cache_stats().entries, 3u);  // only `fresh` was new
  EXPECT_EQ(fleet.cache_stats().misses, 3u);
  EXPECT_EQ(second[0].theta, first[0].theta);
  EXPECT_EQ(second[0].stderr_theta, first[0].stderr_theta);

  // With dedup off every submission is its own simulation -- results
  // still identical by the determinism contract.
  SimFleet no_dedup(2, /*dedup=*/false);
  const std::vector<SimResult> dup = run_wave(no_dedup, {&rrg, &rrg}, options);
  EXPECT_EQ(no_dedup.cache_stats().misses, 2u);
  EXPECT_EQ(dup[0].theta, dup[1].theta);
  EXPECT_EQ(dup[0].theta, first[0].theta);
}

TEST(SimFleetAsync, ObservabilityAndValidation) {
  SimFleet fleet(1);
  EXPECT_EQ(fleet.async_pending(), 0u);
  EXPECT_EQ(fleet.cache_stats().entries, 0u);
  EXPECT_EQ(fleet.pool_size(), 0u);

  const Rrg rrg = figures::figure1b(0.5, true);
  SimOptions bad = async_options(1);
  bad.runs = 0;
  EXPECT_THROW(fleet.submit_async(Rrg(rrg), bad), Error);
  EXPECT_THROW(fleet.wait(SimTicket{}), Error);          // invalid ticket
  EXPECT_THROW((void)fleet.poll(SimTicket{99}), Error);  // out of range

  const SimTicket ticket = fleet.submit_async(Rrg(rrg), async_options(1));
  (void)fleet.wait(ticket);
  EXPECT_EQ(fleet.async_pending(), 0u);
  EXPECT_EQ(fleet.cache_stats().entries, 1u);
  EXPECT_EQ(fleet.cache_stats().misses, 1u);

  // Released: the ticket is gone, the cached result is not.
  fleet.release(ticket);
  EXPECT_THROW((void)fleet.poll(ticket), Error);
  EXPECT_EQ(fleet.cache_stats().entries, 1u);
}

/// Destroying a fleet with unfinished async work must not hang or crash
/// (claimed slices finish; unclaimed ones are abandoned with the fleet).
TEST(SimFleetAsync, DestructionWithPendingWorkIsSafe) {
  const Rrg rrg = random_rrg(600, true);
  SimOptions heavy = async_options(21);
  heavy.measure_cycles = 20000;
  heavy.runs = 8;
  {
    SimFleet fleet(2);
    for (int i = 0; i < 4; ++i) {
      SimOptions o = heavy;
      o.seed = 100 + i;  // distinct jobs
      fleet.submit_async(Rrg(rrg), o);
    }
    // No wait: the destructor runs with work in flight.
  }
  SUCCEED();
}

}  // namespace
}  // namespace elrr::sim
