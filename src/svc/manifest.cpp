#include "svc/manifest.hpp"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "bench89/generator.hpp"
#include "io/rrg_format.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/strings.hpp"

namespace elrr::svc {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw InvalidInputError(
      detail::concat("manifest line ", line, ": ", message));
}

/// Minimal strict parser for one *flat* JSON object -- the only shape a
/// manifest line may take. Not a general JSON parser on purpose: no
/// nesting, no arrays, no null; every violation is a loud error with the
/// line number (the alternative, a lenient scan, is how malformed CI
/// manifests silently drop jobs).
class LineParser {
 public:
  LineParser(std::string_view text, int line) : text_(text), line_(line) {}

  ManifestEntry parse() {
    ManifestEntry entry;
    entry.line = line_;
    skip_ws();
    if (at_end()) fail(line_, "empty manifest line (expected a JSON object)");
    expect('{', "expected '{'");
    skip_ws();
    if (peek() == '}') {
      ++pos_;
    } else {
      for (;;) {
        const std::string key = parse_string("object key");
        if (!keys_.insert(key).second) fail(line_, "duplicate key \"" + key + "\"");
        skip_ws();
        expect(':', "expected ':' after key \"" + key + "\"");
        skip_ws();
        assign(entry, key);
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          skip_ws();
          continue;
        }
        expect('}', "expected ',' or '}'");
        break;
      }
    }
    skip_ws();
    if (!at_end()) fail(line_, "trailing characters after the JSON object");
    validate(entry);
    return entry;
  }

 private:
  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return at_end() ? '\0' : text_[pos_]; }
  void skip_ws() {
    while (!at_end() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  void expect(char c, const std::string& message) {
    if (peek() != c) fail(line_, message);
    ++pos_;
  }

  std::string parse_string(const char* what) {
    if (peek() != '"') fail(line_, detail::concat("expected a string for ", what));
    ++pos_;
    std::string out;
    for (;;) {
      if (at_end()) fail(line_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (at_end()) fail(line_, "unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          default:
            fail(line_, detail::concat("unsupported escape \\", esc));
        }
        continue;
      }
      out.push_back(c);
    }
  }

  double parse_number(const std::string& key) {
    const std::size_t start = pos_;
    while (!at_end() && (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                         text_[pos_] == '-' || text_[pos_] == '+' ||
                         text_[pos_] == '.' || text_[pos_] == 'e' ||
                         text_[pos_] == 'E')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (token.empty() || end == nullptr || *end != '\0' ||
        !std::isfinite(value)) {
      fail(line_, "key \"" + key + "\": expected a number");
    }
    return value;
  }

  bool parse_bool(const std::string& key) {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return false;
    }
    fail(line_, "key \"" + key + "\": expected true or false");
  }

  std::uint64_t parse_u64(const std::string& key, std::uint64_t min_value) {
    const double value = parse_number(key);
    if (value < 0.0 || value != std::floor(value)) {
      fail(line_, "key \"" + key + "\": expected a non-negative integer");
    }
    const auto integral = static_cast<std::uint64_t>(value);
    if (integral < min_value) {
      fail(line_, detail::concat("key \"", key, "\": must be >= ", min_value));
    }
    return integral;
  }

  double parse_positive(const std::string& key) {
    const double value = parse_number(key);
    if (value <= 0.0) fail(line_, "key \"" + key + "\": must be positive");
    return value;
  }

  void assign(ManifestEntry& entry, const std::string& key) {
    if (key == "circuit") {
      entry.circuit = parse_string("\"circuit\"");
    } else if (key == "input") {
      entry.input = parse_string("\"input\"");
    } else if (key == "name") {
      entry.name = parse_string("\"name\"");
    } else if (key == "mode") {
      const std::string mode = parse_string("\"mode\"");
      if (mode == "min_eff_cyc" || mode == "flow") {
        entry.mode = JobMode::kMinEffCyc;
      } else if (mode == "min_cyc") {
        entry.mode = JobMode::kMinCyc;
      } else if (mode == "score" || mode == "score_only") {
        entry.mode = JobMode::kScoreOnly;
      } else if (mode == "portfolio") {
        entry.mode = JobMode::kPortfolio;
      } else {
        fail(line_, "unknown mode \"" + mode +
                        "\" (min_eff_cyc|min_cyc|score|portfolio)");
      }
    } else if (key == "priority") {
      const std::string priority = parse_string("\"priority\"");
      if (priority == "high") {
        entry.priority = JobPriority::kHigh;
      } else if (priority == "normal") {
        entry.priority = JobPriority::kNormal;
      } else if (priority == "low") {
        entry.priority = JobPriority::kLow;
      } else {
        fail(line_, "unknown priority \"" + priority +
                        "\" (high|normal|low)");
      }
    } else if (key == "seed") {
      entry.seed = parse_u64(key, 0);
    } else if (key == "cycles") {
      entry.cycles = parse_u64(key, 1);
    } else if (key == "epsilon") {
      entry.epsilon = parse_positive(key);
    } else if (key == "timeout") {
      entry.timeout = parse_positive(key);
    } else if (key == "min_cyc_x") {
      const double x = parse_number(key);
      if (x < 1.0) fail(line_, "key \"min_cyc_x\": must be >= 1");
      entry.min_cyc_x = x;
    } else if (key == "deadline") {
      entry.deadline = parse_positive(key);
    } else if (key == "retries") {
      entry.retries = parse_u64(key, 0);
    } else if (key == "heur") {
      entry.heur = parse_bool(key);
    } else if (key == "polish") {
      entry.polish = parse_bool(key);
    } else {
      fail(line_, "unknown key \"" + key + "\"");
    }
  }

  void validate(const ManifestEntry& entry) {
    if (entry.circuit.empty() == entry.input.empty()) {
      fail(line_, "provide exactly one of \"circuit\" or \"input\"");
    }
  }

  std::string_view text_;
  int line_;
  std::size_t pos_ = 0;
  std::set<std::string> keys_;
};

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
  return LineParser(text, line_number).parse();
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
