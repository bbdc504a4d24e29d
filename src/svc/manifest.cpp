#include "svc/manifest.hpp"

#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "bench89/generator.hpp"
#include "io/rrg_format.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace elrr::svc {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw InvalidInputError(
      detail::concat("manifest line ", line, ": ", message));
}

/// Inputs materialized before and still held by some job, keyed by what
/// determines them: a generated circuit's name and seed, or an .rrg
/// file's bytes. A repeated input is neither generated nor parsed again,
/// and its jobs share one graph structure (Rrg copies share it until
/// written). Thread-safe.
class InputTable {
 public:
  template <typename Build>
  io::NamedRrg get(const std::string& key, Build build) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = entries_.find(key);
      if (it != entries_.end()) return it->second;
    }
    io::NamedRrg built = build();  // may throw; nothing is recorded then
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.size() >= next_sweep_) {
      // Forget inputs whose every job is gone: only this table holds
      // their structure. Amortized over the insertions.
      std::erase_if(entries_, [](const auto& entry) {
        return !entry.second.rrg.shares_structure();
      });
      next_sweep_ = 2 * entries_.size() + 16;
    }
    return entries_.try_emplace(key, std::move(built)).first->second;
  }

 private:
  std::mutex mutex_;
  std::unordered_map<std::string, io::NamedRrg> entries_;
  std::size_t next_sweep_ = 16;
};

InputTable& inputs() {
  static InputTable table;
  return table;
}

}  // namespace

ManifestEntry parse_manifest_line(std::string_view text, int line_number) {
  const std::string_view body = trim(text);
  if (body.empty()) {
    fail(line_number, "empty manifest line (expected a JSON object)");
  }
  if (body.front() != '{') fail(line_number, "expected '{'");
  json::Value object;
  try {
    object = json::parse(text);
  } catch (const InvalidInputError& error) {
    fail(line_number, error.what());
  }

  // The typed checks of the members, each failure naming its key.
  using Member = json::Value::Member;
  const auto key_error = [line_number](const Member& m,
                                       const std::string& what) {
    fail(line_number, detail::concat("key \"", m.key, "\": ", what));
  };
  const auto text_of = [line_number](const Member& m) -> const std::string& {
    if (!m.value.is_string()) {
      fail(line_number, "expected a string for \"" + m.key + "\"");
    }
    return m.value.as_string();
  };
  const auto number = [&](const Member& m) {
    if (!m.value.is_number()) key_error(m, "expected a number");
    return m.value.as_number();
  };
  const auto positive = [&](const Member& m) {
    const double x = number(m);
    if (x <= 0.0) key_error(m, "must be positive");
    return x;
  };
  const auto u64 = [&](const Member& m, std::uint64_t min_value) {
    // Past 2^53 a double no longer holds every integer: the value read
    // could differ from the one written.
    const double x = number(m);
    if (x < 0.0 || x != std::floor(x) || x > 9007199254740992.0) {
      key_error(m, "expected a non-negative integer up to 2^53");
    }
    const auto integral = static_cast<std::uint64_t>(x);
    if (integral < min_value) {
      key_error(m, detail::concat("must be >= ", min_value));
    }
    return integral;
  };
  const auto boolean = [&](const Member& m) {
    if (m.value.type() != json::Value::Type::kBool) {
      key_error(m, "expected true or false");
    }
    return m.value.as_bool();
  };

  ManifestEntry entry;
  entry.line = line_number;
  for (const Member& m : object.members()) {
    if (m.key == "circuit") {
      entry.circuit = text_of(m);
    } else if (m.key == "input") {
      entry.input = text_of(m);
    } else if (m.key == "name") {
      entry.name = text_of(m);
    } else if (m.key == "mode") {
      const std::string& mode = text_of(m);
      if (mode == "min_eff_cyc" || mode == "flow") {
        entry.mode = JobMode::kMinEffCyc;
      } else if (mode == "min_cyc") {
        entry.mode = JobMode::kMinCyc;
      } else if (mode == "score" || mode == "score_only") {
        entry.mode = JobMode::kScoreOnly;
      } else if (mode == "portfolio") {
        entry.mode = JobMode::kPortfolio;
      } else {
        fail(line_number, "unknown mode \"" + json::escape(mode) +
                              "\" (min_eff_cyc|min_cyc|score|portfolio)");
      }
    } else if (m.key == "priority") {
      const std::string& priority = text_of(m);
      if (priority == "high") {
        entry.priority = JobPriority::kHigh;
      } else if (priority == "normal") {
        entry.priority = JobPriority::kNormal;
      } else if (priority == "low") {
        entry.priority = JobPriority::kLow;
      } else {
        fail(line_number, "unknown priority \"" + json::escape(priority) +
                              "\" (high|normal|low)");
      }
    } else if (m.key == "seed") {
      entry.seed = u64(m, 0);
    } else if (m.key == "cycles") {
      entry.cycles = u64(m, 1);
    } else if (m.key == "epsilon") {
      entry.epsilon = positive(m);
    } else if (m.key == "timeout") {
      entry.timeout = positive(m);
    } else if (m.key == "min_cyc_x") {
      entry.min_cyc_x = number(m);
      if (*entry.min_cyc_x < 1.0) key_error(m, "must be >= 1");
    } else if (m.key == "deadline") {
      entry.deadline = positive(m);
    } else if (m.key == "retries") {
      entry.retries = u64(m, 0);
    } else if (m.key == "heur") {
      entry.heur = boolean(m);
    } else if (m.key == "polish") {
      entry.polish = boolean(m);
    } else {
      fail(line_number, "unknown key \"" + json::escape(m.key) + "\"");
    }
  }
  if (entry.circuit.empty() == entry.input.empty()) {
    fail(line_number, "provide exactly one of \"circuit\" or \"input\"");
  }
  return entry;
}

std::vector<ManifestEntry> parse_manifest(std::string_view text) {
  failpoint::trip("svc.manifest");
  std::vector<ManifestEntry> entries;
  int line_number = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t newline = text.find('\n', start);
    std::string_view line = newline == std::string_view::npos
                                ? text.substr(start)
                                : text.substr(start, newline - start);
    ++line_number;
    // A single trailing newline is the JSONL convention, not an empty
    // job; anything else blank is an error (the strict contract).
    const bool last = newline == std::string_view::npos;
    if (!(last && trim(line).empty() && line_number > 1)) {
      entries.push_back(parse_manifest_line(line, line_number));
    }
    if (last) break;
    start = newline + 1;
  }
  ELRR_REQUIRE(!entries.empty(), "manifest has no jobs");
  return entries;
}

JobSpec materialize(const ManifestEntry& entry,
                    const flow::FlowOptions& base, JobMode default_mode) {
  JobSpec spec;
  spec.mode = entry.mode.value_or(default_mode);
  spec.priority = entry.priority;
  spec.flow = base;
  if (entry.seed) spec.flow.seed = *entry.seed;
  if (entry.epsilon) spec.flow.epsilon = *entry.epsilon;
  if (entry.timeout) spec.flow.milp_timeout_s = *entry.timeout;
  if (entry.cycles) spec.flow.sim_cycles = static_cast<std::size_t>(*entry.cycles);
  if (entry.heur) spec.flow.use_heuristic = *entry.heur;
  if (entry.polish) spec.flow.polish = *entry.polish;
  if (entry.min_cyc_x) spec.min_cyc_x = *entry.min_cyc_x;
  if (entry.deadline) spec.deadline_s = *entry.deadline;
  if (entry.retries) spec.retries = static_cast<std::size_t>(*entry.retries);
  if (!entry.circuit.empty()) {
    const bench89::CircuitSpec& circuit = bench89::spec_by_name(entry.circuit);
    const std::uint64_t seed = spec.flow.seed;
    spec.rrg = inputs()
                   .get(detail::concat("circuit\n", entry.circuit, "\n", seed),
                        [&] {
                          return io::NamedRrg{
                              "", bench89::make_table2_rrg(circuit, seed)};
                        })
                   .rrg;
    spec.name = entry.name.empty() ? entry.circuit : entry.name;
    // Mirror run_circuit's scaling policy: past the exact-MILP ceiling
    // the flow switches to the heuristic-only walk.
    spec.flow.heuristic_only =
        circuit.n_edges > spec.flow.exact_max_edges;
  } else {
    const std::string text = io::load_text_file(entry.input);
    io::NamedRrg named =
        inputs().get("file\n" + text, [&] { return io::read_rrg(text); });
    spec.rrg = std::move(named.rrg);
    spec.name = !entry.name.empty()
                    ? entry.name
                    : (!named.name.empty() ? named.name : entry.input);
    spec.flow.heuristic_only =
        static_cast<int>(spec.rrg.num_edges()) > spec.flow.exact_max_edges;
  }
  return spec;
}

}  // namespace elrr::svc
