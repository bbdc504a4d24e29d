/// \file fleet_cache_test.cpp
/// The bounded session cache and the multi-client async API added for
/// the svc::Scheduler: LRU byte-cap eviction (results stay correct --
/// eviction only forgets dedup identity, never invalidates tickets),
/// cache stats (hits/misses/evictions), ticket release, and concurrent
/// client threads submitting/waiting on one fleet with bit-exact
/// results.

#include "sim/fleet.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/figures.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace elrr::sim {
namespace {

/// Random live RRG (same family as fleet_async_test.cpp, its own
/// stream).
Rrg random_rrg(std::uint64_t seed) {
  elrr::Rng rng(seed * 9277 + 11);
  const std::size_t n = 3 + static_cast<std::size_t>(rng.uniform_int(0, 3));
  Rrg rrg;
  for (std::size_t i = 0; i < n; ++i) {
    rrg.add_node(indexed_name('n', i), 1.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const int tokens = static_cast<int>(rng.uniform_int(0, 2));
    rrg.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n),
                 tokens, tokens + 1);
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

SimOptions small_options(std::uint64_t seed) {
  SimOptions options;
  options.seed = seed;
  options.warmup_cycles = 50;
  options.measure_cycles = 400;
  options.runs = 2;
  return options;
}

/// A tiny byte cap forces LRU eviction; the evicted candidate
/// re-simulates on resubmission (a new miss) with a bit-identical
/// result, and the stats ledger adds up.
TEST(SimFleetCache, ByteCapEvictsLruAndStaysCorrect) {
  const Rrg a = random_rrg(1);
  const Rrg b = random_rrg(2);
  const SimOptions options = small_options(5);

  SimFleet fleet(1, /*dedup=*/true, /*cache_cap_bytes=*/1);
  const SimTicket ta = fleet.submit_async(Rrg(a), options);
  const SimResult ra = fleet.wait(ta);
  EXPECT_TRUE(ta.fresh);

  // Submitting b evicts a (cap fits at most one entry; the newest
  // survives -- the cache never evicts below one entry).
  const SimTicket tb = fleet.submit_async(Rrg(b), options);
  const SimResult rb = fleet.wait(tb);
  SimCacheStats stats = fleet.cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.capacity_bytes, 1u);

  // The evicted ticket is still waitable (shared ownership): eviction
  // only forgot the dedup identity.
  EXPECT_EQ(fleet.wait(ta).theta, ra.theta);

  // Resubmitting a is a *miss* now (it was evicted) -- and bit-exact.
  const SimTicket ta2 = fleet.submit_async(Rrg(a), options);
  EXPECT_TRUE(ta2.fresh);
  EXPECT_EQ(fleet.wait(ta2).theta, ra.theta);
  stats = fleet.cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_GE(stats.evictions, 2u);

  // Unrelated sanity: b's result matches solo simulation.
  EXPECT_EQ(rb.theta, simulate_throughput(b, options).theta);
}

/// With an ample cap the cache dedups across waves and the hit/miss
/// counters reflect it; bytes are accounted and bounded by the cap.
TEST(SimFleetCache, StatsLedger) {
  const Rrg a = random_rrg(3);
  const SimOptions options = small_options(7);
  SimFleet fleet(1);
  EXPECT_EQ(fleet.cache_stats().entries, 0u);
  EXPECT_EQ(fleet.cache_stats().capacity_bytes, kDefaultSimCacheCapBytes);

  const SimTicket t1 = fleet.submit_async(Rrg(a), options);
  const SimTicket t2 = fleet.submit_async(Rrg(a), options);  // alias
  (void)fleet.wait(t1);
  (void)fleet.wait(t2);
  EXPECT_TRUE(t1.fresh);
  EXPECT_FALSE(t2.fresh);
  const SimCacheStats stats = fleet.cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_LE(stats.bytes, stats.capacity_bytes);
}

/// release() forgets the ticket (poll/wait throw) but never another
/// ticket aliasing the same job.
TEST(SimFleetCache, ReleaseForgetsTheTicketOnly) {
  const Rrg a = random_rrg(4);
  const SimOptions options = small_options(9);
  SimFleet fleet(1);
  const SimTicket keep = fleet.submit_async(Rrg(a), options);
  const SimTicket drop = fleet.submit_async(Rrg(a), options);  // alias
  const SimResult report = fleet.wait(keep);

  fleet.release(drop);
  fleet.release(drop);  // idempotent
  EXPECT_THROW((void)fleet.poll(drop), Error);
  EXPECT_THROW((void)fleet.wait(drop), Error);
  EXPECT_EQ(fleet.wait(keep).theta, report.theta);  // alias unaffected
  EXPECT_TRUE(fleet.poll(keep));
}

/// The multi-client contract: many threads submit and wait on one fleet
/// concurrently -- duplicates dedup to one simulation across *threads*,
/// every result is bit-exact vs solo simulation, and the bookkeeping
/// (misses == unique candidates) survives the race.
TEST(SimFleetCache, ConcurrentClientsShareOneFleet) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kCandidates = 6;
  std::vector<Rrg> candidates;
  std::vector<double> solo;
  const SimOptions options = small_options(21);
  for (std::size_t i = 0; i < kCandidates; ++i) {
    candidates.push_back(random_rrg(100 + i));
    solo.push_back(simulate_throughput(candidates[i], options).theta);
  }

  SimFleet fleet(2);
  std::vector<std::vector<double>> thetas(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Each client walks the shared candidate set in its own order and
      // waits its own tickets -- submissions interleave arbitrarily.
      std::vector<SimTicket> tickets;
      for (std::size_t i = 0; i < kCandidates; ++i) {
        const std::size_t pick = (i + c) % kCandidates;
        tickets.push_back(fleet.submit_async(Rrg(candidates[pick]), options));
      }
      for (std::size_t i = 0; i < kCandidates; ++i) {
        thetas[c].push_back(fleet.wait(tickets[i]).theta);
        fleet.release(tickets[i]);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < kCandidates; ++i) {
      const std::size_t pick = (i + c) % kCandidates;
      EXPECT_EQ(thetas[c][i], solo[pick]) << "client " << c << " job " << i;
    }
  }
  const SimCacheStats stats = fleet.cache_stats();
  EXPECT_EQ(stats.misses, kCandidates);  // one simulation per unique job
  EXPECT_EQ(stats.hits, kClients * kCandidates - kCandidates);
  EXPECT_EQ(fleet.async_pending(), 0u);
}

/// Failure containment under concurrency: clients hammer a tiny-cap
/// fleet (constant eviction) while a probabilistic fail point kills
/// random slices. Every wait either rethrows the injected fault or
/// returns a bit-exact result; failed candidates are purged from the
/// dedup cache, so an immediate resubmission recovers; and the fleet
/// stays fully usable afterwards.
TEST(SimFleetCache, ConcurrentReleaseAndEvictionUnderInjectedFailure) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRounds = 8;
  std::vector<Rrg> candidates;
  std::vector<double> solo;
  const SimOptions options = small_options(33);
  for (std::size_t i = 0; i < 5; ++i) {
    candidates.push_back(random_rrg(500 + i));
    solo.push_back(simulate_throughput(candidates[i], options).theta);
  }

  SimFleet fleet(2, /*dedup=*/true, /*cache_cap_bytes=*/1);
  failpoint::configure("fleet.worker=prob:0.3@11");
  std::atomic<std::size_t> faults{0};
  std::atomic<std::size_t> successes{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        const std::size_t pick = (r + c) % candidates.size();
        const SimTicket ticket =
            fleet.submit_async(Rrg(candidates[pick]), options);
        try {
          const SimResult report = fleet.wait(ticket);
          EXPECT_EQ(report.theta, solo[pick])
              << "client " << c << " round " << r;
          successes.fetch_add(1);
        } catch (const failpoint::FailPointError&) {
          faults.fetch_add(1);
        }
        fleet.release(ticket);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  failpoint::reset();

  EXPECT_EQ(successes.load() + faults.load(), kClients * kRounds);
  EXPECT_GT(faults.load(), 0u);  // P=.3 over 32+ slices: fired

  // Post-chaos: the same fleet serves every candidate bit-exactly (any
  // failed cache entries were purged, so these re-run fresh or alias a
  // *successful* completion -- never a cached failure).
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const SimTicket ticket =
        fleet.submit_async(Rrg(candidates[i]), options);
    EXPECT_EQ(fleet.wait(ticket).theta, solo[i]) << i;
    fleet.release(ticket);
  }
  EXPECT_EQ(fleet.async_pending(), 0u);
}

/// Dedup-off fleets count every submission as a unique simulation
/// (cache_stats().misses) and never alias tickets.
TEST(SimFleetCache, DedupOffStillCountsUniqueJobs) {
  const Rrg a = random_rrg(8);
  const SimOptions options = small_options(13);
  SimFleet fleet(1, /*dedup=*/false);
  const SimTicket t1 = fleet.submit_async(Rrg(a), options);
  const SimTicket t2 = fleet.submit_async(Rrg(a), options);
  EXPECT_TRUE(t1.fresh);
  EXPECT_TRUE(t2.fresh);  // no cache, no aliasing
  EXPECT_EQ(fleet.wait(t1).theta, fleet.wait(t2).theta);
  EXPECT_EQ(fleet.cache_stats().misses, 2u);
  EXPECT_EQ(fleet.cache_stats().entries, 0u);  // no cache entries exist
}

}  // namespace
}  // namespace elrr::sim
