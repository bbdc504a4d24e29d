/// \file pure_lp_pin_test.cpp
/// `solve_milp` on models without an integer column, pinned bit for bit:
/// the status, the bits of the objective, a hash of the bits of every
/// entry of x, and the simplex iteration count. The other lp tests
/// compare pure LPs within tolerances; this one shows any change of the
/// path a pure LP takes through `solve_milp` (a different engine setup,
/// deadline or result assembly) even when it moves only the last bit.
///
/// The models: the throughput LP (11) of the refined TGMG of the four
/// circuits generated like perfbench's `heur_walk` jobs (as in
/// tests/heur/heuristic_pin_test.cpp) and of s27/s208 at seed 1, and the
/// root relaxation of the s526 MIN_CYC(1) model that
/// `MilpSession.WarmRootRelaxationsMatchColdAcrossTheMinCycSweep` sweeps.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench89/generator.hpp"
#include "core/opt.hpp"
#include "core/tgmg.hpp"
#include "lp/milp.hpp"

namespace elrr::lp {
namespace {

/// The seed of perfbench's job `index`: splitmix64 over suite seed 2009.
std::uint64_t suite_seed(std::uint64_t index) {
  std::uint64_t z = 2009 + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// FNV-1a over the bit patterns of `x`, in order.
std::uint64_t hash_bits(const std::vector<double>& x) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : x) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 64; b += 8) {
      h ^= (bits >> b) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

struct PinnedLp {
  const char* name;
  MilpStatus status;
  double objective;
  std::size_t x_size;
  std::uint64_t x_hash;
  std::int64_t lp_iterations;
};

struct PinModel {
  std::string name;
  Model model;
};

std::vector<PinModel> pin_models() {
  std::vector<PinModel> out;
  for (int i = 0; i < 4; ++i) {
    const Rrg h = bench89::make_table2_rrg({"h", 50, 4, 70 + i}, suite_seed(i));
    std::string name = "h";
    name += std::to_string(i);
    out.push_back({name, build_throughput_lp(refined_tgmg(h)).model});
  }
  for (const char* name : {"s27", "s208"}) {
    const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name(name), 1);
    out.push_back({name, build_throughput_lp(refined_tgmg(rrg)).model});
  }
  const Model base = build_min_cyc_model(
      bench89::make_table2_rrg(bench89::spec_by_name("s526"), 1), 1.0);
  Model relaxed;
  relaxed.set_sense(base.sense());
  for (int j = 0; j < base.num_cols(); ++j) {
    const Column& c = base.col(j);
    relaxed.add_col(c.lo, c.hi, c.obj, false, c.name);
  }
  for (int i = 0; i < base.num_rows(); ++i) {
    const Row& row = base.row(i);
    relaxed.add_row(row.lo, row.hi, row.entries, row.name);
  }
  out.push_back({"s526_min_cyc_relaxation", relaxed});
  return out;
}

const PinnedLp kPinned[] = {
    {"h0", MilpStatus::kOptimal, 0x1p+0, 97, 0x9bc5734fd9441378ULL, 73},
    {"h1", MilpStatus::kOptimal, 0x1p+0, 101, 0x1d552c9d39fc7c38ULL, 84},
    {"h2", MilpStatus::kOptimal, 0x1.fffffffffffffp-1, 102,
     0x049d2865330fcf36ULL, 58},
    {"h3", MilpStatus::kOptimal, 0x1p+0, 103, 0x07049ce3f6b426e5ULL, 83},
    {"s27", MilpStatus::kOptimal, 0x1p+0, 49, 0x4ed91a94b4996625ULL, 48},
    {"s208", MilpStatus::kOptimal, 0x1p+0, 14, 0x7ce56f3dce9dd925ULL, 13},
    {"s526_min_cyc_relaxation", MilpStatus::kOptimal, 0x1.4898cc233f06fp+4,
     257, 0xc15d051be22089adULL, 529},
};

TEST(PureLpPin, SolveMilpBitsArePinned) {
  const std::vector<PinModel> models = pin_models();
  ASSERT_EQ(models.size(), std::size(kPinned));
  for (std::size_t k = 0; k < models.size(); ++k) {
    const PinnedLp& pin = kPinned[k];
    ASSERT_EQ(models[k].name, pin.name);
    ASSERT_FALSE(models[k].model.has_integers()) << pin.name;
    const MilpResult got = solve_milp(models[k].model);
    // The record in source form, to re-pin deliberately.
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"%s\", /* %s */, %a, %zu, 0x%016llxULL, %lld},",
                  pin.name, to_string(got.status), got.objective,
                  got.x.size(),
                  static_cast<unsigned long long>(hash_bits(got.x)),
                  static_cast<long long>(got.lp_iterations));
    SCOPED_TRACE(line);
    EXPECT_EQ(got.status, pin.status) << pin.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.objective),
              std::bit_cast<std::uint64_t>(pin.objective))
        << pin.name;
    EXPECT_EQ(got.x.size(), pin.x_size) << pin.name;
    EXPECT_EQ(hash_bits(got.x), pin.x_hash) << pin.name;
    EXPECT_EQ(got.lp_iterations, pin.lp_iterations) << pin.name;
    EXPECT_EQ(got.nodes, 1) << pin.name;
  }
}

}  // namespace
}  // namespace elrr::lp
