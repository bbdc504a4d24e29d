#pragma once

/// \file json_parser.hpp
/// A minimal JSON parser for tests: enough to assert that a document the
/// program wrote *parses* (a Chrome trace, a stats snapshot) and to walk
/// its structure. Throws std::runtime_error on malformed input -- a parse
/// failure is the test failure.

#include <cctype>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace elrr::test {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    const JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing JSON bytes");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected JSON EOF");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      const std::string key = raw_string();
      skip_ws();
      expect(':');
      v.object[key] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string raw_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) {
              throw std::runtime_error("truncated \\u escape");
            }
            out += '?';  // structural validity only; no UTF-16 decoding
            pos_ += 4;
            break;
          default: throw std::runtime_error("bad JSON escape");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.type = JsonValue::Type::kString;
    v.string = raw_string();
    return v;
  }

  JsonValue boolean() {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      throw std::runtime_error("bad JSON literal");
    }
    return v;
  }

  JsonValue null() {
    if (text_.compare(pos_, 4, "null") != 0) {
      throw std::runtime_error("bad JSON literal");
    }
    pos_ += 4;
    return JsonValue{};
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad JSON number");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = std::stod(text_.substr(start, pos_ - start));
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace elrr::test
