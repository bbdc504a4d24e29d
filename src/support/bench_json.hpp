#pragma once

/// \file bench_json.hpp
/// Minimal reader for the repo's own machine-written JSON files: the
/// BENCH_*.json perf trajectories, Chrome trace `otherData`, and the
/// scheduler's stats snapshots.
///
/// Not a full JSON parser, but it reads by structure, not by string
/// position: a key is found only among the direct members of its
/// section's brace-matched object. Used by perf_smoke (to embed
/// before/after ratios against the committed baseline), `elrr
/// bench-diff` (the regression gate in tools/bench_gate.sh), `elrr top`
/// and `elrr trace-summary`.

#include <optional>
#include <string_view>

namespace elrr::bench_json {

/// The number stored under `"key"` in the object labelled `"section"`:
/// the first `"section": {...}` in `json`, searched among its direct
/// members only (a nested object or a later section never answers for
/// it). An empty `section` names the document's root object. nullopt
/// when the section, the key, or a numeric value is absent. Sections in
/// BENCH_sim.json are unique object labels ("small", "fleet", ...), keys
/// are their numeric fields ("cycles_per_sec", "fleet_seconds", ...).
std::optional<double> find_number(std::string_view json,
                                  std::string_view section,
                                  std::string_view key);

}  // namespace elrr::bench_json
