#include "support/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "support/error.hpp"

namespace elrr::json {

namespace {

constexpr const char* kExpectedValue =
    "expected a string, a number, an object, an array, true, false or null";

bool is_digit(char c) { return c >= '0' && c <= '9'; }

void append_utf8(std::string& out, std::uint32_t cp) {
  constexpr std::uint32_t kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
  for (int i = tail - 1; i >= 0; --i) {
    out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
  }
}

template <typename T, typename Data>
const T& get(const Data& data, const char* expected) {
  const T* value = std::get_if<T>(&data);
  if (value == nullptr) {
    throw InvalidInputError(detail::concat("JSON value is not ", expected));
  }
  return *value;
}

}  // namespace

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value document() {
    Value value = parse_value(0);
    skip_space();
    if (!at_end()) fail("trailing characters after the JSON value");
    return value;
  }

 private:
  /// Throws at byte `at`, the current position by default.
  [[noreturn]] void fail(std::string_view message,
                         std::size_t at = std::string_view::npos) const {
    throw InvalidInputError(detail::concat(
        "invalid JSON at byte ", at == std::string_view::npos ? pos_ : at,
        ": ", message));
  }

  bool at_end() const { return pos_ >= text_.size(); }
  bool consume(char c) {
    if (at_end() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  void skip_space() {
    while (!at_end() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                         text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool skip_digits() {
    const std::size_t start = pos_;
    while (!at_end() && is_digit(text_[pos_])) ++pos_;
    return pos_ > start;
  }

  Value parse_value(int depth) {
    skip_space();
    if (at_end()) fail(kExpectedValue);
    if (depth >= kMaxDepth && (text_[pos_] == '{' || text_[pos_] == '[')) {
      fail(detail::concat("nesting deeper than ", kMaxDepth, " levels"));
    }
    Value value;
    switch (text_[pos_]) {
      case '{': value.data_ = parse_object(depth + 1); break;
      case '[': value.data_ = parse_array(depth + 1); break;
      case '"': value.data_ = parse_string(); break;
      case 't': parse_literal("true"); value.data_ = true; break;
      case 'f': parse_literal("false"); value.data_ = false; break;
      case 'n': parse_literal("null"); break;
      default: value.data_ = parse_number();
    }
    return value;
  }

  std::vector<Value::Member> parse_object(int depth) {
    const std::size_t open = pos_++;
    std::vector<Value::Member> members;
    skip_space();
    if (consume('}')) return members;
    do {
      skip_space();
      if (at_end() || text_[pos_] != '"') {
        fail("expected a string (an object key)");
      }
      std::string key = parse_string();
      skip_space();
      if (!consume(':')) fail("expected ':' after an object key");
      members.push_back({std::move(key), parse_value(depth)});
      skip_space();
    } while (consume(','));
    if (!consume('}')) fail("expected ',' or '}'");
    std::set<std::string_view> keys;  // O(n log n) for any object size
    for (const Value::Member& member : members) {
      if (!keys.insert(member.key).second) {
        fail(detail::concat("duplicate key \"", escape(member.key), "\""),
             open);
      }
    }
    return members;
  }

  std::vector<Value> parse_array(int depth) {
    ++pos_;  // '['
    std::vector<Value> items;
    skip_space();
    if (consume(']')) return items;
    do {
      items.push_back(parse_value(depth));
      skip_space();
    } while (consume(','));
    if (!consume(']')) fail("expected ',' or ']'");
    return items;
  }

  std::string parse_string() {
    ++pos_;  // opening quote
    std::string out;
    for (;;) {
      const std::size_t run = pos_;
      while (!at_end() && text_[pos_] != '"' && text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (at_end()) fail("unterminated string");
      if (consume('"')) return out;
      if (text_[pos_] != '\\') fail("raw control character in a string");
      if (pos_ + 1 >= text_.size()) fail("unterminated string");
      const char esc = text_[pos_ + 1];
      pos_ += 2;
      switch (esc) {
        case '"': case '\\': case '/': out += esc; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_utf8(out, parse_code_point()); break;
        default: fail(detail::concat("unknown escape \\", esc), pos_ - 2);
      }
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t value = 0;
    const char* first = text_.data() + pos_;
    const char* last = first + std::min<std::size_t>(4, text_.size() - pos_);
    const auto [end, ec] = std::from_chars(first, last, value, 16);
    if (ec != std::errc() || end != first + 4) {
      fail("expected four hex digits after \\u");
    }
    pos_ += 4;
    return value;
  }

  /// The code point of the `\uXXXX` escape just read, joining a UTF-16
  /// surrogate pair.
  std::uint32_t parse_code_point() {
    const std::size_t at = pos_ - 2;
    const std::uint32_t unit = parse_hex4();
    if (unit >= 0xDC00 && unit <= 0xDFFF) {
      fail("low surrogate without a high one", at);
    }
    if (unit < 0xD800 || unit > 0xDBFF) return unit;
    std::uint32_t low = 0;
    if (text_.substr(pos_, 2) == "\\u") {
      pos_ += 2;
      low = parse_hex4();
    }
    if (low < 0xDC00 || low > 0xDFFF) {
      fail("high surrogate without a low one", at);
    }
    return 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
  }

  void parse_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail(kExpectedValue);
    pos_ += word.size();
  }

  double parse_number() {
    const std::size_t start = pos_;
    const bool minus = consume('-');
    if (consume('0')) {
      if (!at_end() && is_digit(text_[pos_])) fail("leading zero in a number");
    } else if (!skip_digits()) {
      fail(minus ? "expected a digit after '-'" : kExpectedValue);
    }
    if (consume('.') && !skip_digits()) fail("expected a digit after '.'");
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      if (!skip_digits()) fail("expected a digit in the exponent");
    }
    double value = 0.0;
    const char* end = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(text_.data() + start, end, value);
    if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
      fail("number outside the range of a double", start);
    }
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool Value::as_bool() const { return get<bool>(data_, "a boolean"); }
double Value::as_number() const { return get<double>(data_, "a number"); }
const std::string& Value::as_string() const {
  return get<std::string>(data_, "a string");
}
const std::vector<Value>& Value::items() const {
  return get<std::vector<Value>>(data_, "an array");
}
const std::vector<Value::Member>& Value::members() const {
  return get<std::vector<Member>>(data_, "an object");
}

const Value* Value::find(std::string_view key) const {
  const auto* members = std::get_if<std::vector<Member>>(&data_);
  if (members == nullptr) return nullptr;
  for (const Member& member : *members) {
    if (member.key == key) return &member.value;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  if (const Value* value = find(key)) return *value;
  throw InvalidInputError(
      detail::concat("JSON object has no key \"", escape(key), "\""));
}

const Value* Value::find_path(std::string_view path) const {
  const Value* value = this;
  for (;;) {
    const std::size_t dot = path.find('.');
    value = value->find(path.substr(0, dot));
    if (value == nullptr || dot == std::string_view::npos) return value;
    path.remove_prefix(dot + 1);
  }
}

std::optional<double> Value::number_at(std::string_view path) const {
  const Value* value = find_path(path);
  if (value == nullptr || !value->is_number()) return std::nullopt;
  return value->as_number();
}

Value parse(std::string_view text) { return Parser(text).document(); }

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n' || c == '\t' || c == '\r') {
      out += c == '\n' ? "\\n" : c == '\t' ? "\\t" : "\\r";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace elrr::json
