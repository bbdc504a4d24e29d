#include "support/failpoint.hpp"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace elrr::failpoint {

namespace {

enum class Mode { kOff, kOnce, kAfter, kProb, kStall };

struct SiteState {
  Mode mode = Mode::kOff;
  std::uint64_t after_n = 0;    // kAfter: pass this many hits first
  double prob = 0.0;            // kProb
  std::uint64_t seed = 0;       // kProb
  std::uint64_t stall_ms = 0;   // kStall
  std::uint64_t hits = 0;
  std::uint64_t fired = 0;
};

struct Registry {
  std::mutex mutex;
  std::unordered_map<std::string, SiteState> sites;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives static dtors
  return *r;
}

/// splitmix64: tiny, well-mixed, and already the idiom for seed
/// derivation elsewhere in the tree. Each hit draws from
/// splitmix64(seed ^ hit_index) so the decision sequence is a pure
/// function of the spec -- independent of timing or interleaving.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d4a77d3f854937ULL;
  return x ^ (x >> 31);
}

[[noreturn]] void spec_fail(const char* env_name, const std::string& why,
                            const std::string& text) {
  throw InvalidInputError(elrr::detail::concat(
      "environment variable ", env_name, ": ", why, ", got \"", text,
      "\""));
}

std::uint64_t parse_u64_field(const char* env_name, const std::string& text,
                              const char* what) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    spec_fail(env_name, std::string("expected ") + what, text);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE) spec_fail(env_name, std::string("expected ") + what, text);
  return static_cast<std::uint64_t>(parsed);
}

SiteState parse_mode(const char* env_name, const std::string& mode) {
  SiteState state;
  if (mode == "off") {
    state.mode = Mode::kOff;
  } else if (mode == "once") {
    state.mode = Mode::kOnce;
  } else if (mode.rfind("after:", 0) == 0) {
    state.mode = Mode::kAfter;
    state.after_n = parse_u64_field(env_name, mode.substr(6),
                                    "after:<non-negative integer>");
  } else if (mode.rfind("stall:", 0) == 0) {
    state.mode = Mode::kStall;
    state.stall_ms = parse_u64_field(env_name, mode.substr(6),
                                     "stall:<milliseconds>");
    // An injected stall is a test of *bounded* stuck-worker handling;
    // cap it so a typo cannot wedge a chaos run past its watchdog.
    if (state.stall_ms > 60000) {
      spec_fail(env_name, "stall exceeds the 60000 ms cap", mode);
    }
  } else if (mode.rfind("prob:", 0) == 0) {
    state.mode = Mode::kProb;
    const std::string body = mode.substr(5);
    const std::size_t at = body.find('@');
    if (at == std::string::npos) {
      spec_fail(env_name, "expected prob:<P>@<seed>", mode);
    }
    const std::string prob_text = body.substr(0, at);
    errno = 0;
    char* end = nullptr;
    state.prob = std::strtod(prob_text.c_str(), &end);
    if (prob_text.empty() || end != prob_text.c_str() + prob_text.size() ||
        errno == ERANGE || state.prob < 0.0 || state.prob > 1.0) {
      spec_fail(env_name, "expected a probability in [0,1]", prob_text);
    }
    state.seed = parse_u64_field(env_name, body.substr(at + 1),
                                 "prob:<P>@<non-negative integer seed>");
  } else {
    spec_fail(env_name,
              "expected off|once|after:N|prob:P@seed|stall:MS", mode);
  }
  return state;
}

bool should_fire(SiteState& state) {
  const std::uint64_t hit = state.hits++;  // zero-based hit index
  switch (state.mode) {
    case Mode::kOff:
      return false;
    case Mode::kOnce:
      return hit == 0;
    case Mode::kAfter:
      return hit == state.after_n;
    case Mode::kStall:
      return hit == 0;
    case Mode::kProb: {
      const std::uint64_t draw = splitmix64(state.seed ^ hit);
      // Top 53 bits -> uniform double in [0,1).
      const double u =
          static_cast<double>(draw >> 11) * 0x1.0p-53;
      return u < state.prob;
    }
  }
  return false;
}

}  // namespace

namespace detail {

std::atomic<bool> g_armed{false};

void trip_slow(const char* site) {
  std::uint64_t stall_ms = 0;
  {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto it = reg.sites.find(site);
    if (it == reg.sites.end()) {
      throw InternalError(elrr::detail::concat(
          "fail point \"", site, "\" tripped but is not registered"));
    }
    SiteState& state = it->second;
    if (!should_fire(state)) return;
    ++state.fired;
    if (state.mode == Mode::kStall) {
      stall_ms = state.stall_ms;
    } else {
      throw FailPointError(elrr::detail::concat(
          "injected fault at fail point \"", site, "\" (hit ",
          state.hits, ")"));
    }
  }
  // Sleep outside the registry lock so a stalled worker does not block
  // other sites (that would serialize the whole process, not one worker).
  std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
}

}  // namespace detail

const std::vector<std::string>& known_sites() {
  static const std::vector<std::string> sites = {
      "fleet.worker",    "walk.step",        "milp.solve",
      "milp.warm",       "milp.node_warm",   "svc.manifest",
      "disk_cache.load", "disk_cache.store",
  };
  return sites;
}

void configure(const std::string& spec, const char* env_name) {
  Registry& reg = registry();
  // Every known site gets an entry (default kOff): an armed process must
  // be able to trip *any* compiled-in site, not just the configured ones.
  std::unordered_map<std::string, SiteState> parsed;
  for (const std::string& site : known_sites()) parsed.emplace(site, SiteState{});
  std::unordered_map<std::string, bool> seen;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) {
      spec_fail(env_name, "empty item in fail-point list", spec);
    }
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      spec_fail(env_name, "expected site=mode", item);
    }
    const std::string site = item.substr(0, eq);
    bool known = false;
    for (const std::string& candidate : known_sites()) {
      if (candidate == site) {
        known = true;
        break;
      }
    }
    if (!known) {
      spec_fail(env_name, "unknown fail-point site", site);
    }
    if (!seen.emplace(site, true).second) {
      spec_fail(env_name, "duplicate fail-point site", site);
    }
    parsed[site] = parse_mode(env_name, item.substr(eq + 1));
  }

  bool any_armed = false;
  for (const auto& [site, state] : parsed) {
    (void)site;
    if (state.mode != Mode::kOff) any_armed = true;
  }
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.sites = std::move(parsed);
  }
  detail::g_armed.store(any_armed, std::memory_order_relaxed);
}

void configure_from_env() {
  const char* value = std::getenv("ELRR_FAILPOINTS");
  configure(value == nullptr ? "" : value, "ELRR_FAILPOINTS");
}

void reset() { configure(""); }

std::uint64_t hits(const std::string& site) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto it = reg.sites.find(site);
  return it == reg.sites.end() ? 0 : it->second.hits;
}

std::uint64_t fired(const std::string& site) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto it = reg.sites.find(site);
  return it == reg.sites.end() ? 0 : it->second.fired;
}

}  // namespace elrr::failpoint
