#include "io/rrg_format.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "support/error.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace elrr::io {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw InvalidInputError("rrg format, line " + std::to_string(line) + ": " +
                          message);
}

double parse_double(std::string_view token, std::size_t line) {
  try {
    std::size_t used = 0;
    const std::string s(token);
    const double value = std::stod(s, &used);
    if (used != s.size() || !std::isfinite(value)) {
      fail(line, "bad number '" + s + "'");
    }
    return value;
  } catch (const std::exception&) {
    fail(line, "bad number '" + std::string(token) + "'");
  }
}

int parse_int(std::string_view token, std::size_t line) {
  try {
    std::size_t used = 0;
    const std::string s(token);
    const int value = std::stoi(s, &used);
    if (used != s.size()) fail(line, "bad integer '" + s + "'");
    return value;
  } catch (const std::exception&) {
    fail(line, "bad integer '" + std::string(token) + "'");
  }
}

/// Splits "key=value"; returns {key, value}.
std::pair<std::string, std::string> key_value(std::string_view token,
                                              std::size_t line) {
  const auto pos = token.find('=');
  if (pos == std::string_view::npos || pos == 0 || pos + 1 == token.size()) {
    fail(line, "expected key=value, got '" + std::string(token) + "'");
  }
  return {std::string(token.substr(0, pos)),
          std::string(token.substr(pos + 1))};
}

/// Doubles are written with enough digits to round-trip.
std::string number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

/// Writer-side node names: whitespace-free and unique (the reader keys
/// edges by name). Collisions and spaces get an "__<id>" suffix.
std::vector<std::string> writable_names(const Rrg& rrg) {
  std::vector<std::string> names;
  std::map<std::string, int> used;
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    std::string name = rrg.name(n);
    for (char& c : name) {
      if (c == ' ' || c == '\t' || c == '=' || c == '#') c = '_';
    }
    if (name.empty() || used.count(name) != 0) {
      name += "__" + std::to_string(n);
    }
    used.emplace(name, 1);
    names.push_back(std::move(name));
  }
  return names;
}

}  // namespace

NamedRrg read_rrg(std::string_view text) {
  NamedRrg result;
  std::map<std::string, NodeId> by_name;
  // Deferred telescopic marks: set_telescopic validates immediately, but
  // nodes may appear before their annotations are complete.
  std::size_t line_no = 0;
  for (const std::string& raw : split(text, '\n')) {
    ++line_no;
    std::string_view line = trim(raw);
    const auto hash = line.find('#');
    if (hash != std::string_view::npos) line = trim(line.substr(0, hash));
    if (line.empty()) continue;
    const std::vector<std::string> tokens = split_ws(line);

    if (tokens[0] == "rrg") {
      if (tokens.size() > 2) fail(line_no, "rrg header takes one name");
      if (tokens.size() == 2) result.name = tokens[1];
      continue;
    }
    if (tokens[0] == "node") {
      if (tokens.size() < 3) fail(line_no, "node <name> delay=<d> ...");
      const std::string& name = tokens[1];
      if (by_name.count(name) != 0) fail(line_no, "duplicate node " + name);
      double delay = -1.0;
      bool early = false;
      double tel_prob = 1.0;
      int tel_extra = 0;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        if (tokens[i] == "early") {
          early = true;
          continue;
        }
        const auto [key, value] = key_value(tokens[i], line_no);
        if (key == "delay") {
          delay = parse_double(value, line_no);
        } else if (key == "telescopic") {
          const auto parts = split(value, ',');
          if (parts.size() != 2) fail(line_no, "telescopic=<p>,<extra>");
          tel_prob = parse_double(parts[0], line_no);
          tel_extra = parse_int(parts[1], line_no);
        } else {
          fail(line_no, "unknown node attribute '" + key + "'");
        }
      }
      if (delay < 0) fail(line_no, "node needs delay=<d>");
      try {
        const NodeId n = result.rrg.add_node(
            name, delay, early ? NodeKind::kEarly : NodeKind::kSimple);
        if (tel_prob < 1.0 || tel_extra != 0) {
          result.rrg.set_telescopic(n, tel_prob, tel_extra);
        }
        by_name.emplace(name, n);
      } catch (const Error& e) {
        fail(line_no, e.what());
      }
      continue;
    }
    if (tokens[0] == "edge") {
      if (tokens.size() < 5) {
        fail(line_no, "edge <src> <dst> tokens=<t> buffers=<b> [gamma=<g>]");
      }
      const auto src = by_name.find(tokens[1]);
      if (src == by_name.end()) fail(line_no, "unknown node " + tokens[1]);
      const auto dst = by_name.find(tokens[2]);
      if (dst == by_name.end()) fail(line_no, "unknown node " + tokens[2]);
      int tokens_v = 0, buffers_v = 0;
      bool have_tokens = false, have_buffers = false;
      double gamma = 1.0;
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        const auto [key, value] = key_value(tokens[i], line_no);
        if (key == "tokens") {
          tokens_v = parse_int(value, line_no);
          have_tokens = true;
        } else if (key == "buffers") {
          buffers_v = parse_int(value, line_no);
          have_buffers = true;
        } else if (key == "gamma") {
          gamma = parse_double(value, line_no);
        } else {
          fail(line_no, "unknown edge attribute '" + key + "'");
        }
      }
      if (!have_tokens || !have_buffers) {
        fail(line_no, "edge needs tokens= and buffers=");
      }
      try {
        result.rrg.add_edge(src->second, dst->second, tokens_v, buffers_v,
                            gamma);
      } catch (const Error& e) {
        fail(line_no, e.what());
      }
      continue;
    }
    fail(line_no, "unknown directive '" + tokens[0] + "'");
  }
  try {
    result.rrg.validate();
  } catch (const Error& e) {
    throw InvalidInputError(std::string("rrg format: ") + e.what());
  }
  return result;
}

std::string write_rrg(const Rrg& rrg, std::string_view name) {
  std::ostringstream os;
  if (!name.empty()) os << "rrg " << name << "\n";
  const std::vector<std::string> names = writable_names(rrg);
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    os << "node " << names[n] << " delay=" << number(rrg.delay(n));
    if (rrg.is_early(n)) os << " early";
    if (rrg.is_telescopic(n)) {
      os << " telescopic=" << number(rrg.telescopic(n).fast_prob) << ","
         << rrg.telescopic(n).slow_extra;
    }
    os << "\n";
  }
  const Digraph& g = rrg.graph();
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    os << "edge " << names[g.src(e)] << " " << names[g.dst(e)]
       << " tokens=" << rrg.tokens(e) << " buffers=" << rrg.buffers(e);
    if (rrg.is_early(g.dst(e))) os << " gamma=" << number(rrg.gamma(e));
    os << "\n";
  }
  return os.str();
}

std::string write_json(const Rrg& rrg, std::string_view name) {
  std::ostringstream os;
  const std::vector<std::string> names = writable_names(rrg);
  os << "{\n  \"name\": \"" << json::escape(name) << "\",\n  \"nodes\": [\n";
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    os << "    {\"name\": \"" << json::escape(names[n])
       << "\", \"delay\": " << number(rrg.delay(n)) << ", \"early\": "
       << (rrg.is_early(n) ? "true" : "false");
    if (rrg.is_telescopic(n)) {
      os << ", \"telescopic\": {\"fast_prob\": "
         << number(rrg.telescopic(n).fast_prob)
         << ", \"slow_extra\": " << rrg.telescopic(n).slow_extra << "}";
    }
    os << "}" << (n + 1 < rrg.num_nodes() ? "," : "") << "\n";
  }
  os << "  ],\n  \"edges\": [\n";
  const Digraph& g = rrg.graph();
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    os << "    {\"src\": \"" << json::escape(names[g.src(e)])
       << "\", \"dst\": \"" << json::escape(names[g.dst(e)])
       << "\", \"tokens\": " << rrg.tokens(e)
       << ", \"buffers\": " << rrg.buffers(e);
    if (rrg.is_early(g.dst(e))) {
      os << ", \"gamma\": " << number(rrg.gamma(e));
    }
    os << "}" << (e + 1 < rrg.num_edges() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

NamedRrg load_rrg_file(const std::string& path) {
  return read_rrg(load_text_file(path));
}

std::string load_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void save_text_file(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot write " + path);
  out << text;
  if (!out) throw Error("write failed for " + path);
}

}  // namespace elrr::io
