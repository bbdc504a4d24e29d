#include "sim/simulator.hpp"

#include "sim/fleet.hpp"
#include "support/rng.hpp"

namespace elrr::sim {

std::uint64_t run_seed(std::uint64_t seed, std::size_t run) {
  std::uint64_t state =
      seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(run);
  return splitmix64(state);
}

SimResult simulate_throughput(const Rrg& rrg, const SimOptions& options) {
  // A one-ticket fleet: same kernels, same per-run streams, same
  // run-order merge -- simulate_throughput is the single-candidate
  // spelling of the fleet scheduler, so every determinism property is
  // shared.
  SimFleet fleet(options.threads);
  return fleet.wait(fleet.submit_async(Rrg(rrg), options));
}

}  // namespace elrr::sim
