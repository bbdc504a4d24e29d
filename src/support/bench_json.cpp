#include "support/bench_json.hpp"

#include <cctype>
#include <cstdlib>
#include <string>

namespace elrr::bench_json {

namespace {

using Pos = std::string_view::size_type;
constexpr Pos kNpos = std::string_view::npos;

Pos skip_space(std::string_view json, Pos at) {
  while (at < json.size() &&
         std::isspace(static_cast<unsigned char>(json[at])) != 0) {
    ++at;
  }
  return at;
}

/// One past the closing quote of the string opening at `at`.
Pos skip_string(std::string_view json, Pos at) {
  for (++at; at < json.size(); ++at) {
    if (json[at] == '\\') {
      ++at;
    } else if (json[at] == '"') {
      return at + 1;
    }
  }
  return kNpos;
}

/// One past the end of the value starting at `at`: a string, a
/// brace/bracket-matched object or array, or a bare scalar.
Pos skip_value(std::string_view json, Pos at) {
  if (at >= json.size()) return kNpos;
  if (json[at] == '"') return skip_string(json, at);
  if (json[at] == '{' || json[at] == '[') {
    int depth = 0;
    while (at < json.size()) {
      const char c = json[at];
      if (c == '"') {
        at = skip_string(json, at);
        if (at == kNpos) return kNpos;
        continue;
      }
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') {
        if (--depth == 0) return at + 1;
      }
      ++at;
    }
    return kNpos;
  }
  while (at < json.size() && json[at] != ',' && json[at] != '}' &&
         json[at] != ']') {
    ++at;
  }
  return at;
}

/// The raw text of `key`'s value among the direct members of the object
/// opening at `open` (nested objects are skipped whole).
std::optional<std::string_view> member_value(std::string_view json, Pos open,
                                             std::string_view key) {
  Pos at = skip_space(json, open + 1);
  while (at < json.size() && json[at] == '"') {
    const Pos key_end = skip_string(json, at);
    if (key_end == kNpos) return std::nullopt;
    const std::string_view name = json.substr(at + 1, key_end - at - 2);
    at = skip_space(json, key_end);
    if (at >= json.size() || json[at] != ':') return std::nullopt;
    at = skip_space(json, at + 1);
    const Pos value_end = skip_value(json, at);
    if (value_end == kNpos) return std::nullopt;
    if (name == key) return json.substr(at, value_end - at);
    at = skip_space(json, value_end);
    if (at < json.size() && json[at] == ',') at = skip_space(json, at + 1);
  }
  return std::nullopt;
}

/// The raw text of `key`'s value in the object labelled `section` (the
/// root object for an empty section).
std::optional<std::string_view> find_value(std::string_view json,
                                           std::string_view section,
                                           std::string_view key) {
  if (section.empty()) {
    const Pos open = skip_space(json, 0);
    if (open >= json.size() || json[open] != '{') return std::nullopt;
    return member_value(json, open, key);
  }
  const std::string quoted_section = "\"" + std::string(section) + "\"";
  for (Pos at = json.find(quoted_section); at != kNpos;
       at = json.find(quoted_section, at + 1)) {
    Pos open = skip_space(json, at + quoted_section.size());
    if (open >= json.size() || json[open] != ':') continue;
    open = skip_space(json, open + 1);
    if (open < json.size() && json[open] == '{') {
      return member_value(json, open, key);
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<double> find_number(std::string_view json,
                                  std::string_view section,
                                  std::string_view key) {
  const std::optional<std::string_view> value = find_value(json, section, key);
  if (!value.has_value()) return std::nullopt;
  // strtod needs a terminated buffer; copy the scalar.
  const std::string scalar(*value);
  char* end = nullptr;
  const double number = std::strtod(scalar.c_str(), &end);
  if (end == scalar.c_str()) return std::nullopt;
  return number;
}

std::optional<std::string_view> find_string(std::string_view json,
                                            std::string_view section,
                                            std::string_view key) {
  const std::optional<std::string_view> value = find_value(json, section, key);
  if (!value.has_value() || value->size() < 2 || value->front() != '"') {
    return std::nullopt;
  }
  return value->substr(1, value->size() - 2);
}

std::vector<std::string_view> find_objects(std::string_view json,
                                           std::string_view section,
                                           std::string_view key) {
  std::vector<std::string_view> objects;
  const std::optional<std::string_view> value = find_value(json, section, key);
  if (!value.has_value() || value->empty() || value->front() != '[') {
    return objects;
  }
  const std::string_view array = *value;
  Pos at = skip_space(array, 1);
  while (at < array.size() && array[at] != ']') {
    const Pos end = skip_value(array, at);
    if (end == kNpos || end == at) break;  // malformed: no value here
    if (array[at] == '{') objects.push_back(array.substr(at, end - at));
    at = skip_space(array, end);
    if (at < array.size() && array[at] == ',') at = skip_space(array, at + 1);
  }
  return objects;
}

}  // namespace elrr::bench_json
