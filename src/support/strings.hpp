#pragma once

/// \file strings.hpp
/// String utilities shared by the .bench parser, DOT/Verilog emitters and
/// table printers. libstdc++ 12 does not ship <format>, so the formatting
/// helpers here are snprintf-based.

#include <string>
#include <string_view>
#include <vector>

namespace elrr {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits on a separator character; empty fields are kept.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits on any amount of whitespace; empty fields are dropped.
std::vector<std::string> split_ws(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
std::string to_upper(std::string_view s);
std::string to_lower(std::string_view s);

/// `prefix` followed by the decimal `index` ("n12"): the default name of
/// an unnamed node, row or column.
std::string indexed_name(char prefix, std::size_t index);

/// Fixed-point decimal rendering, e.g. format_fixed(3.14159, 2) == "3.14".
std::string format_fixed(double value, int decimals);

/// Left-pads with spaces up to `width` characters.
std::string pad_left(std::string_view s, std::size_t width);

/// Right-pads with spaces up to `width` characters.
std::string pad_right(std::string_view s, std::size_t width);

}  // namespace elrr
