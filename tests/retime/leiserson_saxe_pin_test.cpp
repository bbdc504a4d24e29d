/// \file leiserson_saxe_pin_test.cpp
/// Min-period retimings pinned bit for bit: on each circuit below,
/// `min_period_retiming` must return the same period (hex float) and the
/// same retiming vector. The solver's potential is the unique vector of
/// shortest distances of the constraint system, so a change that only
/// makes the search cheaper leaves all of it in place.
///
/// The circuits: the four generated like perfbench's `heur_walk` jobs
/// that HeuristicPin searches (50 simple and 4 early nodes, 70-73 edges,
/// suite seed 2009), the Table-2 shapes s27 and s208 at seeds 1-3, and
/// the Leiserson-Saxe correlator.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench89/generator.hpp"
#include "retime/leiserson_saxe.hpp"
#include "tests/retime/oracles.hpp"

namespace elrr::retime {
namespace {

/// The seed of perfbench's job `index`: splitmix64 over suite seed 2009.
std::uint64_t suite_seed(std::uint64_t index) {
  std::uint64_t z = 2009 + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct PinnedRetiming {
  const char* name;
  double period;
  std::vector<int> r;
};

const PinnedRetiming kPinned[] = {
    {"h0", 0x1.1b9fc53dbf007p+7,
     {0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"h1", 0x1.11c34fb5edfbfp+6,
     {0, 0, -1, -1, -1, -1, -1, -1, 0, 0, -1, -1, 0, -1, -1, 0, 0, 0, 0, -2, 0, 0, -1, 0, -1, 0, 0, 0, -1, -1, 0, 0, 0, -1, -1, 0, 0, 0, -1, 0, -1, -2, 0, -1, 0, -1, -1, -1, -1, 0, -1, -1, -2, 0}},
    {"h2", 0x1.3722c4569fb44p+6,
     {-1, -1, 0, -1, -2, 0, 0, -1, -2, 0, -2, -2, -2, -1, -2, 0, -1, -1, -1, 0, -1, 0, -1, 0, -1, -1, 0, -1, -2, -1, 0, -1, 0, 0, -1, -1, -1, -1, -1, -1, -1, 0, -1, -2, -1, 0, -1, -1, -1, 0, -1, 0, -1, -1}},
    {"h3", 0x1.dfd7495e0703ap+7,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"s27_1", 0x1.6848741c86c4cp+6,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0}},
    {"s27_2", 0x1.467a20a78d2e1p+6,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, -1, 0}},
    {"s27_3", 0x1.e67bd32d9bdeap+5,
     {0, 0, 0, 0, -1, 0, 0, -1, 0, 0, 0, 0, 0, 0}},
    {"s208_1", 0x1.df627e4673644p+4,
     {0, 0, 0, 0, 0, -1, 0, 0}},
    {"s208_2", 0x1.31ceb59e37c82p+5,
     {0, 0, -1, -1, -1, -1, 0, -1}},
    {"s208_3", 0x1.541f8edc95a2p+5,
     {0, 0, -1, 0, 0, -1, -1, 0}},
    {"correlator", 0x1.ap+3,
     {0, -1, -1, -2, 0, -1, -2}}};

Rrg pin_circuit(const std::string& name) {
  if (name == "correlator") return correlator();
  if (name[0] == 'h') {
    const int i = name[1] - '0';
    return bench89::make_table2_rrg({"h", 50, 4, 70 + i}, suite_seed(i));
  }
  const std::size_t cut = name.find('_');
  return bench89::make_table2_rrg(bench89::spec_by_name(name.substr(0, cut)),
                                  std::stoull(name.substr(cut + 1)));
}

TEST(LeisersonSaxePin, PeriodsAndRetimingsAreBitExact) {
  for (const PinnedRetiming& pin : kPinned) {
    SCOPED_TRACE(pin.name);
    const RetimingResult result = min_period_retiming(pin_circuit(pin.name));
    EXPECT_EQ(result.period, pin.period);
    EXPECT_EQ(result.r, pin.r);
  }
}

}  // namespace
}  // namespace elrr::retime
