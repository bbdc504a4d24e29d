#pragma once

/// \file json.hpp
/// The tree's one JSON reader, and the string escaper every JSON emitter
/// uses: one file owns the string format both ways.
///
/// parse() is a strict RFC 8259 reader into a small value tree. It
/// throws InvalidInputError("invalid JSON at byte N: ...") on trailing
/// bytes, a duplicate key, a raw control character (< 0x20) in a string,
/// an unknown escape or a lone UTF-16 surrogate, a number outside the
/// RFC grammar (`+1`, `01`, `.5`, `1.`, `nan`) or outside the range of a
/// double, and nesting deeper than kMaxDepth. Every escape is decoded,
/// `\uXXXX` to UTF-8; other bytes, 0x80-0xFF included, pass through.
///
/// Readers walk the tree by structure: find() looks a key up among one
/// object's own members, so a nested object or a string value never
/// answers for a missing key.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace elrr::json {

/// Arrays and objects nest at most this deep (the parser recurses once
/// per level).
inline constexpr int kMaxDepth = 128;

class Value {
 public:
  enum class Type : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };
  struct Member;

  Type type() const { return static_cast<Type>(data_.index()); }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_object() const { return type() == Type::kObject; }

  /// The value itself; each throws InvalidInputError on another type.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Value>& items() const;
  const std::vector<Member>& members() const;  ///< in document order

  /// This object's member `key`; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
  /// find(), but a missing key throws InvalidInputError.
  const Value& at(std::string_view key) const;
  /// find() along a dotted path of keys ("stats.milp.nodes").
  const Value* find_path(std::string_view path) const;
  /// The number at find_path(path); nullopt when absent or not a number.
  std::optional<double> number_at(std::string_view path) const;

 private:
  friend class Parser;
  // Alternatives in Type order.
  std::variant<std::monostate, bool, double, std::string, std::vector<Value>,
               std::vector<Member>>
      data_;
};

struct Value::Member {
  std::string key;
  Value value;
};

/// Parses one JSON text (surrounding whitespace allowed).
Value parse(std::string_view text);

/// JSON string-content escaping: quotes, backslashes and every control
/// character (< 0x20, as \n/\t/\r or \u00xx). parse() of the quoted
/// result gives back `s` byte for byte.
std::string escape(std::string_view s);

}  // namespace elrr::json
