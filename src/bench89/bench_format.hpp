#pragma once

/// \file bench_format.hpp
/// ISCAS89 `.bench` netlist format: parser, writer, and conversion to an
/// RRG. The DAC'09 experiments used the ISCAS89 circuits "only for
/// getting realistic graph structures" (largest SCC, then random
/// annotation); the parser handles real `.bench` files when available,
/// while generator.hpp synthesizes structures with the published
/// statistics when they are not (src/core/README.md, "Substitutions").

#include <string>
#include <string_view>
#include <vector>

#include "core/rrg.hpp"

namespace elrr::bench89 {

struct Gate {
  std::string name;                 ///< output signal
  std::string func;                 ///< NAND, NOR, AND, OR, NOT, BUFF, XOR, DFF...
  std::vector<std::string> fanins;  ///< input signals
};

struct BenchCircuit {
  std::string name;
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::vector<Gate> gates;  ///< includes DFFs (func == "DFF")

  const Gate* find_gate(std::string_view output_name) const;
};

/// Parses `.bench` text: INPUT(x) / OUTPUT(y) / z = FUNC(a, b, ...).
/// '#' starts a comment. Throws InvalidInputError on malformed input,
/// duplicate definitions, or references to undefined signals.
BenchCircuit parse_bench(std::string_view text, std::string name = "bench");

/// Renders a circuit back to `.bench` text (parse/write round-trips).
std::string write_bench(const BenchCircuit& circuit);

/// Converts a netlist into an RRG:
///  * every non-DFF gate becomes a node (unit delay placeholder -- the
///    experimental flow re-randomizes delays anyway);
///  * a DFF whose input is gate `a` contributes one token+buffer on every
///    edge from `a` to the consumers of the DFF output;
///  * primary inputs/outputs are dropped (the experiments keep only the
///    largest SCC, which cannot contain them).
Rrg circuit_to_rrg(const BenchCircuit& circuit);

/// Largest strongly connected component of an RRG, as its own RRG.
Rrg largest_scc_rrg(const Rrg& rrg);

}  // namespace elrr::bench89
