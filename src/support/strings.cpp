#include "support/strings.hpp"

#include <cctype>
#include <cstdio>

namespace elrr {

namespace {
bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}
}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && is_space(s[begin])) ++begin;
  while (end > begin && is_space(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(s.substr(start));
      return fields;
    }
    fields.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> fields;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) fields.emplace_back(s.substr(start, i - start));
  }
  return fields;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string indexed_name(char prefix, std::size_t index) {
  // Appending, not `"n" + std::to_string(i)`: GCC 12 reports a false
  // -Wrestrict overlap on that concatenation.
  std::string name(1, prefix);
  name += std::to_string(index);
  return name;
}

std::string format_fixed(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

std::string pad_left(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(width - s.size(), ' ') + std::string(s);
}

std::string pad_right(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(s) + std::string(width - s.size(), ' ');
}

}  // namespace elrr
