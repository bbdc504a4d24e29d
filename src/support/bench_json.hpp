#pragma once

/// \file bench_json.hpp
/// Minimal reader for the repo's own machine-written JSON files: Chrome
/// trace `otherData` (`elrr trace-summary`) and the scheduler's stats
/// snapshots (`elrr top`).
///
/// Not a full JSON parser, but it reads by structure, not by string
/// position: a key is found only among the direct members of its
/// section's brace-matched object.

#include <optional>
#include <string_view>
#include <vector>

namespace elrr::bench_json {

/// The number stored under `"key"` in the object labelled `"section"`:
/// the first `"section": {...}` in `json`, searched among its direct
/// members only (a nested object or a later section never answers for
/// it). An empty `section` names the document's root object. nullopt
/// when the section, the key, or a numeric value is absent. Sections
/// are object labels ("fleet", "otherData", ...), keys their fields
/// ("pool", "dropped_spans", ...).
std::optional<double> find_number(std::string_view json,
                                  std::string_view section,
                                  std::string_view key);

/// The string stored under `"key"`, looked up like find_number: the
/// text between its quotes, escapes kept as written. nullopt when absent
/// or not a string.
std::optional<std::string_view> find_string(std::string_view json,
                                            std::string_view section,
                                            std::string_view key);

/// The object elements of the array stored under `"key"`, looked up
/// like find_number, each as its brace-matched text; read one with an
/// empty section. Empty when the array is absent.
std::vector<std::string_view> find_objects(std::string_view json,
                                           std::string_view section,
                                           std::string_view key);

}  // namespace elrr::bench_json
