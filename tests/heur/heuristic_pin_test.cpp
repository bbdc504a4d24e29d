/// \file heuristic_pin_test.cpp
/// Whole heuristic searches pinned bit for bit: on each circuit below,
/// `heur_eff_cyc` with the default options (the flow's budget for
/// circuits up to 150 edges) must return the same frontier -- every
/// point's configuration and the bits of its tau, theta_lp and xi_lp --
/// the same evaluation count and the same best point. A change that
/// only makes a probe cheaper leaves all of it in place; a change of
/// move order, tie-breaking or of any evaluated bit shows up here.
///
/// The circuits: four generated like perfbench's `heur_walk` jobs
/// (50 simple and 4 early nodes, 70-73 edges, suite seed 2009), each as
/// is and with every node late (`as_all_simple`, the flow's NEE
/// baseline); a circuit with a telescopic simple and a telescopic early
/// node; and a circuit carrying anti-tokens, which gets no
/// Leiserson-Saxe seed. Configurations are stored as the edges where
/// they differ from the circuit's own marking.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench89/generator.hpp"
#include "core/opt.hpp"
#include "core/tgmg.hpp"
#include "heur/heuristic.hpp"
#include "support/strings.hpp"

namespace elrr {
namespace {

/// The seed of perfbench's job `index`: splitmix64 over suite seed 2009.
std::uint64_t suite_seed(std::uint64_t index) {
  std::uint64_t z = 2009 + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// One pinned circuit, named as in kPinnedSearches.
struct PinCircuit {
  std::string name;
  Rrg rrg;
};

std::vector<PinCircuit> pin_circuits() {
  std::vector<PinCircuit> out;
  for (int i = 0; i < 4; ++i) {
    const Rrg h = bench89::make_table2_rrg({"h", 50, 4, 70 + i}, suite_seed(i));
    out.push_back({indexed_name('h', i), h});
    out.push_back({indexed_name('h', i) + "_simple", as_all_simple(h)});
  }
  Rrg tele = bench89::make_table2_rrg(bench89::spec_by_name("s27"), 7);
  tele.set_telescopic(0, 0.6, 2);
  for (NodeId n = 0; n < tele.num_nodes(); ++n) {
    if (tele.is_early(n)) {
      tele.set_telescopic(n, 0.8, 3);
      break;
    }
  }
  out.push_back({"telescopic", tele});
  // Retime one node of a token-free output edge forward: that edge then
  // carries an anti-token, so the search starts from the identity alone.
  const Rrg base = bench89::make_table2_rrg(bench89::spec_by_name("s27"), 11);
  std::vector<int> r(base.num_nodes(), 0);
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    if (base.tokens(e) == 0 && base.graph().src(e) != base.graph().dst(e)) {
      r[base.graph().src(e)] = 1;
      break;
    }
  }
  out.push_back(
      {"anti_token", apply_config(base, apply_retiming(base, r, true))});
  return out;
}

struct PinnedPoint {
  double tau;
  double theta_lp;
  double xi_lp;
  /// {edge, tokens, buffers} wherever the point differs from the circuit.
  std::vector<std::array<int, 3>> changes;
};

struct PinnedSearch {
  const char* name;
  int lp_evals;
  std::size_t best_index;
  std::vector<PinnedPoint> points;
};

const PinnedSearch kPinnedSearches[] = {
    {"h0", 186, 1,  // 70 edges
     {{0x1.0e61a1cb7ffb3p+6, 0x1.3a568c838b5e7p-1, 0x1.b867078a7475ap+6, {{20, 0, 0}, {22, 1, 1}, {37, 1, 1}, {38, 0, 1}, {39, -1, 0}, {56, 1, 1}, {57, -1, 0}}},
      {0x1.28dde8affe05cp+6, 0x1.858748c59b468p-1, 0x1.86346492c3b2ap+6, {{20, 0, 0}, {22, 1, 1}, {37, 1, 1}, {38, -1, 0}, {42, 1, 1}, {43, -1, 0}, {56, 1, 1}, {61, 2, 2}, {67, -1, 0}}},
      {0x1.b6c51433ca678p+6, 0x1.8faa11be5dbdfp-1, 0x1.190c6d5fd1673p+7, {{20, 0, 0}, {22, 1, 1}, {56, 0, 1}}},
      {0x1.1b9fc53dbf008p+7, 0x1p+0, 0x1.1b9fc53dbf008p+7, {{20, 0, 0}, {23, 1, 1}}}}},
    {"h0_simple", 255, 1,  // 70 edges
     {{0x1.28dde8affe05cp+6, 0x1p-1, 0x1.28dde8affe05cp+7, {{20, 0, 0}, {22, 1, 1}, {37, 1, 1}, {38, -1, 0}, {56, 1, 1}}},
      {0x1.1b9fc53dbf007p+7, 0x1p+0, 0x1.1b9fc53dbf007p+7, {{20, 0, 0}, {24, 1, 1}, {41, 0, 0}, {42, 1, 1}, {55, 1, 1}, {59, 1, 1}}}}},
    {"h1", 165, 3,  // 71 edges
     {{0x1.fd042954726b5p+5, 0x1.9e283e97a3c23p-1, 0x1.3aa2712bef581p+6, {{0, 0, 1}, {1, 0, 0}, {5, 1, 1}, {6, -1, 0}, {7, 1, 1}, {10, 0, 0}, {12, 1, 1}, {13, 0, 1}, {14, 0, 0}, {16, 0, 0}, {19, 1, 1}, {24, 2, 2}, {27, 0, 0}, {28, 1, 1}, {31, 0, 0}, {36, 2, 2}, {39, 0, 0}, {40, 1, 1}, {42, 0, 0}, {44, 2, 2}, {50, 0, 0}, {53, 1, 1}, {57, 1, 1}, {58, 1, 1}, {59, 1, 1}, {63, 0, 0}, {64, 1, 1}, {66, 0, 0}, {67, 1, 1}, {68, 1, 1}, {69, 2, 2}}},
      {0x1.030ed1a2b1cc3p+6, 0x1.dcd33a0486eb4p-1, 0x1.162b16f8e2f24p+6, {{0, 0, 1}, {1, 0, 0}, {5, 1, 1}, {10, 0, 0}, {12, 1, 1}, {14, 0, 0}, {16, 0, 0}, {17, -1, 0}, {18, 1, 1}, {19, 1, 1}, {24, 2, 2}, {27, 0, 0}, {28, 1, 1}, {31, 0, 0}, {36, 2, 2}, {39, 0, 0}, {40, 1, 1}, {42, 0, 0}, {44, 2, 2}, {50, 0, 0}, {53, 1, 1}, {57, 1, 1}, {58, 1, 1}, {59, 1, 1}, {63, 0, 0}, {64, 1, 1}, {66, 0, 0}, {67, 1, 1}, {68, 1, 1}, {69, 2, 2}}},
      {0x1.1083f69db78acp+6, 0x1.edc973da7e2cap-1, 0x1.1a912bd00c071p+6, {{0, 0, 1}, {1, 0, 0}, {5, 1, 1}, {10, 0, 0}, {12, 1, 1}, {14, 0, 0}, {16, 0, 0}, {19, 1, 1}, {24, 2, 2}, {27, 0, 0}, {28, 1, 1}, {31, 0, 0}, {36, 2, 2}, {39, 0, 0}, {40, 1, 1}, {42, 0, 0}, {44, 2, 2}, {50, 0, 0}, {53, 1, 1}, {57, 1, 1}, {58, 1, 1}, {59, 1, 1}, {63, 0, 0}, {64, 1, 1}, {66, 0, 0}, {67, 1, 1}, {68, 1, 1}, {69, 2, 2}}},
      {0x1.11c34fb5edfcp+6, 0x1p+0, 0x1.11c34fb5edfcp+6, {{1, 0, 0}, {5, 1, 1}, {10, 0, 0}, {12, 1, 1}, {14, 0, 0}, {16, 0, 0}, {19, 1, 1}, {24, 2, 2}, {27, 0, 0}, {28, 1, 1}, {31, 0, 0}, {36, 2, 2}, {39, 0, 0}, {40, 1, 1}, {42, 0, 0}, {44, 2, 2}, {50, 0, 0}, {53, 1, 1}, {57, 1, 1}, {58, 1, 1}, {59, 1, 1}, {63, 0, 0}, {64, 1, 1}, {66, 0, 0}, {67, 1, 1}, {68, 1, 1}, {69, 2, 2}}}}},
    {"h1_simple", 132, 1,  // 71 edges
     {{0x1.1083f69db78acp+6, 0x1.999999999999ap-1, 0x1.54a4f445256d7p+6, {{0, 0, 1}, {1, 0, 0}, {5, 1, 1}, {10, 0, 0}, {12, 1, 1}, {14, 0, 0}, {16, 0, 0}, {19, 1, 1}, {24, 2, 2}, {27, 0, 0}, {28, 1, 1}, {31, 0, 0}, {36, 2, 2}, {39, 0, 0}, {40, 1, 1}, {42, 0, 0}, {44, 2, 2}, {50, 0, 0}, {53, 1, 1}, {57, 1, 1}, {58, 1, 1}, {59, 1, 1}, {63, 0, 0}, {64, 1, 1}, {66, 0, 0}, {67, 1, 1}, {68, 1, 1}, {69, 2, 2}}},
      {0x1.11c34fb5edfcp+6, 0x1p+0, 0x1.11c34fb5edfcp+6, {{1, 0, 0}, {5, 1, 1}, {10, 0, 0}, {12, 1, 1}, {14, 0, 0}, {16, 0, 0}, {19, 1, 1}, {24, 2, 2}, {27, 0, 0}, {28, 1, 1}, {31, 0, 0}, {36, 2, 2}, {39, 0, 0}, {40, 1, 1}, {42, 0, 0}, {45, 1, 1}, {50, 0, 0}, {53, 1, 1}, {57, 1, 1}, {58, 1, 1}, {59, 1, 1}, {63, 0, 0}, {64, 1, 1}, {66, 0, 0}, {67, 1, 1}, {68, 1, 1}, {69, 2, 2}}}}},
    {"h2", 175, 1,  // 72 edges
     {{0x1.12173bc0489b8p+6, 0x1p-1, 0x1.12173bc0489b8p+7, {{0, 1, 1}, {2, 1, 1}, {4, 0, 0}, {5, 0, 0}, {6, 1, 1}, {12, 1, 1}, {13, 0, 0}, {16, 1, 1}, {20, 0, 0}, {22, 1, 1}, {25, 0, 0}, {27, 0, 0}, {28, 1, 1}, {29, 0, 0}, {31, 1, 1}, {35, 1, 1}, {36, 0, 0}, {38, 1, 1}, {39, -1, 0}, {40, 1, 1}, {46, 0, 0}, {48, 0, 0}, {49, 1, 1}, {52, 0, 0}, {54, 0, 0}, {56, 1, 1}, {64, 2, 2}, {65, 2, 2}, {66, 1, 1}, {68, -1, 0}, {70, 2, 2}, {71, 0, 0}}},
      {0x1.14f065497dc15p+6, 0x1.db37e3d5c6cd3p-1, 0x1.2a5fbe7ea68afp+6, {{0, 1, 1}, {2, 1, 1}, {4, 0, 0}, {5, 0, 0}, {6, 1, 1}, {12, 1, 1}, {13, 0, 0}, {16, 1, 1}, {20, 0, 0}, {22, 1, 1}, {25, 0, 0}, {27, 0, 0}, {28, 1, 1}, {29, 0, 0}, {31, 1, 1}, {39, 1, 1}, {46, 0, 0}, {48, 0, 0}, {49, 1, 1}, {52, 0, 0}, {54, 0, 0}, {55, 0, 0}, {64, 2, 2}, {65, 2, 2}, {66, 1, 1}, {68, -1, 0}, {71, 0, 0}}},
      {0x1.3722c4569fb45p+6, 0x1p+0, 0x1.3722c4569fb45p+6, {{1, 1, 1}, {2, 1, 1}, {4, 0, 0}, {5, 0, 0}, {6, 1, 1}, {12, 1, 1}, {13, 0, 0}, {16, 1, 1}, {20, 0, 0}, {23, 1, 1}, {25, 0, 0}, {27, 0, 0}, {28, 1, 1}, {29, 0, 0}, {31, 1, 1}, {35, 1, 1}, {36, 0, 0}, {40, 1, 1}, {46, 0, 0}, {48, 0, 0}, {49, 1, 1}, {52, 0, 0}, {54, 0, 0}, {64, 2, 2}, {66, 1, 1}, {67, 0, 0}, {71, 0, 0}}}}},
    {"h2_simple", 132, 1,  // 72 edges
     {{0x1.3537a33778819p+6, 0x1.8p-1, 0x1.9c4a2ef4a0accp+6, {{0, -1, 0}, {1, 2, 2}, {2, 1, 1}, {4, 0, 0}, {5, 0, 0}, {6, 1, 1}, {12, 1, 1}, {13, 0, 0}, {16, 1, 1}, {20, 0, 0}, {23, 1, 1}, {25, 0, 0}, {27, 0, 0}, {28, 1, 1}, {29, 0, 0}, {31, 1, 1}, {35, 1, 1}, {36, 0, 0}, {40, 1, 1}, {46, 0, 0}, {48, 0, 0}, {49, 1, 1}, {52, 0, 0}, {54, 0, 0}, {64, 2, 2}, {66, 1, 1}, {67, -1, 0}, {68, 1, 1}, {71, 0, 0}}},
      {0x1.3722c4569fb45p+6, 0x1p+0, 0x1.3722c4569fb45p+6, {{1, 1, 1}, {2, 1, 1}, {4, 0, 0}, {5, 0, 0}, {6, 1, 1}, {12, 1, 1}, {13, 0, 0}, {16, 1, 1}, {20, 0, 0}, {23, 1, 1}, {25, 0, 0}, {27, 0, 0}, {28, 1, 1}, {29, 0, 0}, {31, 1, 1}, {40, 1, 1}, {46, 0, 0}, {48, 0, 0}, {49, 1, 1}, {52, 0, 0}, {54, 0, 0}, {64, 2, 2}, {66, 1, 1}, {67, 0, 0}, {71, 0, 0}}}}},
    {"h3", 204, 3,  // 73 edges
     {{0x1.49e45737d1a39p+7, 0x1.11efa91c528e5p-1, 0x1.344ac2d45cfd2p+8, {{39, 1, 1}, {40, -1, 0}, {54, 1, 1}}},
      {0x1.98ab27f7603d9p+7, 0x1.1d52bebc18418p-1, 0x1.6eab3de99515bp+8, {{31, -1, 0}, {32, 1, 1}, {55, 0, 0}}},
      {0x1.9e56587b3f266p+7, 0x1.73dba91a24877p-1, 0x1.1d3e82d1b9d74p+8, {{29, 0, 0}, {30, 1, 1}, {38, 0, 1}}},
      {0x1.dfd7495e07039p+7, 0x1p+0, 0x1.dfd7495e07039p+7, {{44, 0, 0}, {45, 1, 1}, {59, 1, 1}}}}},
    {"h3_simple", 204, 1,  // 73 edges
     {{0x1.49e45737d1a39p+7, 0x1p-1, 0x1.49e45737d1a39p+8, {{29, 0, 0}, {30, 1, 1}, {70, 0, 1}}},
      {0x1.dfd7495e07039p+7, 0x1p+0, 0x1.dfd7495e07039p+7, {{51, 2, 2}, {52, 0, 0}}}}},
    {"telescopic", 108, 2,  // 24 edges
     {{0x1.a0e4bbcf4feeep+5, 0x1.1af15c49209ffp-2, 0x1.7932070654876p+7, {{1, 1, 1}, {4, -1, 0}, {5, 1, 1}, {7, 0, 1}, {8, 1, 1}, {9, -1, 0}, {10, 2, 2}, {12, 0, 0}, {14, 1, 1}, {17, 1, 1}, {20, -1, 0}, {21, 1, 1}, {22, 1, 1}, {23, 1, 1}}},
      {0x1.b4f701b65b5fep+5, 0x1.2ae51e18194f3p-2, 0x1.76415548513cap+7, {{0, 1, 1}, {4, -1, 0}, {5, 1, 1}, {6, 0, 1}, {7, 0, 1}, {9, 0, 0}, {10, 2, 2}, {12, 0, 0}, {14, 1, 1}, {16, 1, 1}, {17, 1, 1}, {22, 1, 1}}},
      {0x1.e2fab0aff148p+5, 0x1.86f91e921cf28p-2, 0x1.3c3e52e80adf9p+7, {{0, 1, 1}, {4, -1, 0}, {5, 1, 1}, {7, 0, 1}, {9, 0, 0}, {10, 2, 2}, {12, 0, 0}, {14, 1, 1}, {16, 1, 1}, {17, 1, 1}, {22, 1, 1}}},
      {0x1.1929673cd08b8p+6, 0x1.8c14e1bae5d87p-2, 0x1.6b7287258a3eep+7, {{0, 1, 1}, {4, -1, 0}, {5, 1, 1}, {9, 0, 0}, {10, 2, 2}, {12, 0, 0}, {14, 1, 1}, {16, 1, 1}, {17, 1, 1}, {22, 1, 1}}},
      {0x1.7fa1cf3d32a67p+6, 0x1.a1e3b1bc2a6bcp-2, 0x1.d6071914baecp+7, {{1, 1, 1}, {5, -1, 0}, {6, 1, 1}, {7, 0, 1}, {9, 0, 0}, {10, 2, 2}, {12, 0, 0}, {17, 1, 1}, {18, 1, 1}, {21, 1, 1}, {22, 1, 1}}},
      {0x1.a74dde220a8dfp+6, 0x1.a76bb211d32f7p-2, 0x1.ffdbeea174b58p+7, {{1, 1, 1}, {5, 1, 1}, {6, -1, 0}, {9, 0, 0}, {10, 2, 2}, {12, 0, 0}, {17, 1, 1}, {18, -1, 0}, {21, 1, 1}, {22, 1, 1}}},
      {0x1.ac7947c6a0014p+6, 0x1.ab01e0457f5bap-2, 0x1.00e11019b7ac2p+8, {{1, 1, 1}, {6, 0, 1}, {9, 0, 0}, {10, 2, 2}, {12, 0, 0}, {17, 1, 1}, {21, 1, 1}, {22, 1, 1}}},
      {0x1.c9faedeb2e98fp+6, 0x1.f620d5c693aa3p-2, 0x1.d2fbe6b35a95dp+7, {{1, 1, 1}, {7, 0, 1}, {9, 0, 0}, {10, 2, 2}, {12, 0, 0}, {17, 1, 1}, {19, 0, 1}, {21, 1, 1}, {22, 1, 1}}},
      {0x1.cbf8d9332653fp+6, 0x1.39cd1fc802de3p-1, 0x1.773f1f22accc6p+7, {{0, 1, 1}, {7, 0, 1}, {9, 0, 0}, {10, 2, 2}, {12, 0, 0}, {16, 1, 1}, {17, 1, 1}, {22, 1, 1}}},
      {0x1.f3a4e817fe3b7p+6, 0x1.4p-1, 0x1.8fb7201331c92p+7, {{0, 1, 1}, {9, 0, 0}, {10, 2, 2}, {12, 0, 0}, {16, 1, 1}, {17, 1, 1}, {22, 1, 1}}}}},
    {"anti_token", 125, 1,  // 24 edges, anti-tokens
     {{0x1.7d8680c2d2141p+4, 0x1.e059c60a1c366p-2, 0x1.96a9cff1929bep+5, {{1, 0, 1}, {2, 0, 0}, {3, 0, 1}, {6, 0, 1}, {7, 1, 1}, {8, -1, 0}, {9, 1, 1}, {10, -1, 0}, {12, 2, 2}, {13, -1, 0}, {14, 0, 1}, {16, 0, 1}, {17, 0, 0}, {18, 1, 1}, {20, 0, 1}, {21, 1, 1}, {22, 1, 1}, {23, 1, 1}}},
      {0x1.ae26046c0eafp+4, 0x1.24cc314df0be4p-1, 0x1.7816d3fcb8448p+5, {{0, 1, 1}, {1, 0, 1}, {2, 0, 0}, {3, 0, 1}, {6, 0, 1}, {7, 1, 1}, {8, -1, 0}, {9, 1, 1}, {10, -1, 0}, {12, 2, 2}, {13, 0, 1}, {14, 0, 1}, {16, 0, 1}, {17, 0, 0}, {20, 1, 1}, {21, 1, 1}, {22, 1, 1}, {23, 1, 1}}},
      {0x1.d3be629acfaedp+4, 0x1.2db340f42dee7p-1, 0x1.8ce456f53f75cp+5, {{3, 0, 1}, {4, 0, 0}, {5, 1, 1}, {7, 1, 1}, {8, -1, 0}, {9, 1, 1}, {10, -1, 0}, {12, 2, 2}, {13, -1, 0}, {14, -1, 0}, {15, 1, 1}, {16, 0, 1}, {17, 0, 0}, {21, 1, 1}, {22, 1, 1}, {23, 1, 1}}},
      {0x1.f30c58e141dc4p+4, 0x1.453c4a176cbaep-1, 0x1.88cfd2b1e82c3p+5, {{7, 1, 1}, {8, -1, 0}, {9, 1, 1}, {10, -1, 0}, {12, 2, 2}, {13, -1, 0}, {14, 0, 1}, {16, 0, 1}, {17, 0, 0}, {21, 1, 1}, {22, 1, 1}, {23, 1, 1}}},
      {0x1.2461f8874b9ap+5, 0x1.49c4d3ddf7a65p-1, 0x1.c5f4433069ap+5, {{1, 0, 1}, {2, 0, 0}, {7, 1, 1}, {8, -1, 0}, {9, 1, 1}, {10, -1, 0}, {14, 0, 1}, {16, 0, 1}, {17, 0, 0}, {18, 1, 1}, {22, 1, 1}}},
      {0x1.3ed95dacb7f0ap+5, 0x1.885583b8dec1ep-1, 0x1.a019f35a099fap+5, {{0, 1, 1}, {1, 0, 0}, {2, 0, 0}, {3, 0, 1}, {6, 0, 1}, {7, 1, 1}, {8, -1, 0}, {9, 1, 1}, {10, -1, 0}, {12, 2, 2}, {13, 0, 1}, {14, 0, 1}, {16, 0, 1}, {17, 0, 0}, {20, 1, 1}, {21, 1, 1}, {22, 1, 1}, {23, 1, 1}}}}}
};

TEST(HeuristicPin, FrontiersAreBitExact) {
  const std::vector<PinCircuit> circuits = pin_circuits();
  ASSERT_EQ(circuits.size(), std::size(kPinnedSearches));
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    const PinnedSearch& pin = kPinnedSearches[c];
    const Rrg& rrg = circuits[c].rrg;
    SCOPED_TRACE(pin.name);
    ASSERT_EQ(circuits[c].name, pin.name);
    const HeuristicResult result = heur_eff_cyc(rrg);
    EXPECT_EQ(result.lp_evals, pin.lp_evals);
    EXPECT_EQ(result.best_index, pin.best_index);
    ASSERT_EQ(result.points.size(), pin.points.size());
    for (std::size_t i = 0; i < pin.points.size(); ++i) {
      SCOPED_TRACE("point " + std::to_string(i));
      const ParetoPoint& got = result.points[i];
      const PinnedPoint& want = pin.points[i];
      EXPECT_EQ(got.tau, want.tau);
      EXPECT_EQ(got.theta_lp, want.theta_lp);
      EXPECT_EQ(got.xi_lp, want.xi_lp);
      RrConfig config = initial_config(rrg);
      for (const auto& [e, tokens, buffers] : want.changes) {
        config.tokens[e] = tokens;
        config.buffers[e] = buffers;
      }
      EXPECT_EQ(got.config, config);
    }
  }
}

/// Every configuration the pinned searches evaluate gets the bits a
/// freshly materialized and refined copy gets: the cycle time and the
/// policy bound of the refined TGMG.
TEST(HeuristicProbes, MatchTheMaterializedConfiguration) {
  const std::vector<PinCircuit> circuits = pin_circuits();
  int probes = 0;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    SCOPED_TRACE(circuits[c].name);
    const Rrg& rrg = circuits[c].rrg;
    const auto observe = [&](const RrConfig& config, const RcEvaluation& got) {
      const Rrg copy = apply_config(rrg, config);
      EXPECT_EQ(got.tau, cycle_time(copy).tau);
      EXPECT_EQ(got.theta_lp, tgmg_policy_bound(refined_tgmg(copy)).theta);
      ++probes;
    };
    const HeuristicResult result = detail::heur_eff_cyc(rrg, {}, observe);
    EXPECT_EQ(result.lp_evals, kPinnedSearches[c].lp_evals);
  }
  EXPECT_GE(probes, 1500);
}

}  // namespace
}  // namespace elrr
