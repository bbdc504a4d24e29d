#pragma once

/// \file manifest.hpp
/// JSONL job manifests for the batch service (`elrr batch`): one job per
/// line, each a flat JSON object read by the strict RFC 8259 reader of
/// support/json.hpp (every standard escape, `\uXXXX` included; numbers
/// in the RFC grammar only, so no `+1`, `.5` or `01`). Strictly
/// validated -- empty lines, malformed JSON, unknown or duplicate keys,
/// type mismatches and out-of-range values all throw InvalidInputError
/// *with the line number*, so a CI batch fails loudly at the offending
/// line instead of silently skipping work.
///
/// Line shape (all keys optional except exactly one of circuit/input):
///   {"circuit": "s526"}
///   {"input": "path/to/design.rrg", "mode": "score"}
///   {"circuit": "s27", "name": "warmup", "mode": "min_cyc",
///    "priority": "low", "seed": 7, "epsilon": 0.05, "timeout": 6,
///    "cycles": 20000, "heur": true, "polish": false, "min_cyc_x": 1.5}
///
/// Keys:
///   circuit   Table-2 circuit name (generated; exclusive with input)
///   input     .rrg file path (exclusive with circuit)
///   name      display name (default: circuit or input)
///   mode      "min_eff_cyc" (alias "flow") | "min_cyc" |
///             "score" (alias "score_only") | "portfolio" (anytime
///             heuristic + exact race). Unset lines take materialize()'s
///             default mode -- min_eff_cyc unless the caller overrides
///             it (`elrr batch` passes portfolio when ELRR_PORTFOLIO=1)
///   priority  "high" | "normal" (default) | "low"
///   seed      non-negative integer
///   epsilon   positive number
///   timeout   positive number (seconds per MILP)
///   cycles    integer >= 1 (measured cycles per run)
///   heur      true/false (merge the MILP-free heuristic)
///   polish    true/false (MAX_THR polish)
///   min_cyc_x number >= 1 (MIN_CYC throughput bound parameter)
///   deadline  positive number (wall seconds across all attempts;
///             overrides ELRR_JOB_DEADLINE for this job)
///   retries   non-negative integer (transient-failure retry budget;
///             overrides ELRR_RETRY_MAX for this job)
///
/// Unset keys inherit from the base FlowOptions the caller provides
/// (elrr batch passes FlowOptions::from_env(), so ELRR_* env knobs are
/// the batch-wide defaults and the manifest overrides per job).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "flow/circuit_flow.hpp"
#include "svc/scheduler.hpp"

namespace elrr::svc {

/// One parsed manifest line (not yet materialized into a JobSpec).
struct ManifestEntry {
  int line = 0;  ///< 1-based manifest line number (error reporting)
  std::string name;
  std::string circuit;
  std::string input;
  std::optional<JobMode> mode;  ///< unset: materialize()'s default_mode
  JobPriority priority = JobPriority::kNormal;
  std::optional<std::uint64_t> seed;
  std::optional<double> epsilon;
  std::optional<double> timeout;
  std::optional<std::uint64_t> cycles;
  std::optional<bool> heur;
  std::optional<bool> polish;
  std::optional<double> min_cyc_x;
  std::optional<double> deadline;
  std::optional<std::uint64_t> retries;
};

/// Parses one JSONL manifest line. Throws InvalidInputError prefixed
/// with "manifest line <line_number>:" on any problem (empty line
/// included).
ManifestEntry parse_manifest_line(std::string_view text, int line_number);

/// Parses a whole manifest (one JSON object per line; every line must be
/// a job -- blank lines are errors, per the strict contract above).
/// Throws with the offending line number.
std::vector<ManifestEntry> parse_manifest(std::string_view text);

/// Builds the JobSpec for one entry: generates the named circuit or
/// loads the .rrg file, then layers the entry's overrides onto `base`.
/// An input that an earlier call built and some job still holds (same
/// circuit and seed, or same file bytes) is not built again: the new
/// spec's graph shares its structure (see Rrg).
/// Lines without an explicit "mode" take `default_mode` (elrr batch maps
/// ELRR_PORTFOLIO=1 to JobMode::kPortfolio here).
JobSpec materialize(const ManifestEntry& entry,
                    const flow::FlowOptions& base,
                    JobMode default_mode = JobMode::kMinEffCyc);

}  // namespace elrr::svc
