#pragma once

/// \file cli.hpp
/// The `elrr` command-line tool, as a library so tests can drive it.
///
/// Subcommands:
///   analyze    tau / Theta bounds / Markov / simulation / xi of an RRG
///   optimize   MIN_EFF_CYC (exact), the MILP-free heuristic, or hybrid
///   simulate   token-level or SELF control-network throughput
///   generate   synthetic Table-2 circuit -> .rrg
///   export     .rrg -> dot | json | verilog | rrg
///   size-fifos simulation-guided EB capacity sizing
///   from-bench ISCAS89 .bench -> largest-SCC RRG (paper Section 5 flow)
///
/// Inputs: --input <file.rrg> or --circuit <table2 name> [--seed N].
/// Run `elrr help` for the full flag list.

#include <iosfwd>

namespace elrr::cli {

/// Returns a process exit code; writes human output to `out`, errors to
/// `err`. Never throws.
int run(int argc, const char* const* argv, std::ostream& out,
        std::ostream& err);

}  // namespace elrr::cli
