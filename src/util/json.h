// A minimal recursive-descent JSON parser for our own machine-readable
// outputs: trace-event exports, metrics snapshots, and the aggregator's
// /series.json feed (`libra top` polls it through this). Strict enough to
// catch malformed output -- throws std::runtime_error with an offset on any
// syntax error -- but not a general-purpose library: \uXXXX escapes (exactly
// four hex digits) decode only the code-point value as a single char for
// ASCII, which is all our exporters emit. `libra top` feeds it remote
// bodies, so nesting is capped at kJsonMaxDepth: a deeper document is a
// parse error, not a stack overflow. Grew up in tests/json_mini.h;
// promoted here when the CLI needed it.
#pragma once

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace libra::util {

// Deepest array/object nesting parse_json accepts. Our exporters nest a
// handful of levels.
inline constexpr std::size_t kJsonMaxDepth = 256;

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const {
    if (type != Type::kObject) return nullptr;
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

namespace detail {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == kJsonMaxDepth) {
        fail("nesting deeper than " + std::to_string(kJsonMaxDepth));
      }
      ++depth_;
      JsonValue v = c == '{' ? object() : array();
      --depth_;
      return v;
    }
    if (c == '"') return string();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return JsonValue{};
    }
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
    while (true) {
      skip_ws();
      JsonValue key = string();
      skip_ws();
      expect(':');
      v.object[key.str] = value();
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
    while (true) {
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

  JsonValue string() {
    JsonValue v;
    v.type = JsonValue::Type::kString;
    expect('"');
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return v;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': v.str += '"'; break;
          case '\\': v.str += '\\'; break;
          case '/': v.str += '/'; break;
          case 'b': v.str += '\b'; break;
          case 'f': v.str += '\f'; break;
          case 'n': v.str += '\n'; break;
          case 'r': v.str += '\r'; break;
          case 't': v.str += '\t'; break;
          case 'u': {
            // Exactly four hex digits: from_chars takes no sign, space or
            // prefix, so a short or non-hex run stops before first + 4.
            const char* first = text_.data() + pos_;
            const char* last =
                first + std::min<std::size_t>(4, text_.size() - pos_);
            unsigned code = 0;
            const auto [end, ec] = std::from_chars(first, last, code, 16);
            if (ec != std::errc{} || end != first + 4) fail("bad \\u escape");
            v.str += static_cast<char>(code);
            pos_ += 4;
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        v.str += c;
      }
    }
  }

  JsonValue boolean() {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    if (consume_literal("true")) {
      v.boolean = true;
    } else if (consume_literal("false")) {
      v.boolean = false;
    } else {
      fail("bad literal");
    }
    return v;
  }

  // RFC 8259 number: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  // The token is scanned by that grammar first, so from_chars only ever
  // sees a well-formed number and must consume all of it.
  JsonValue number() {
    const std::size_t start = pos_;
    const auto digit = [&] {
      return pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]));
    };
    const auto digits = [&](const char* what) {
      if (!digit()) fail(what);
      while (digit()) ++pos_;
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!digit()) fail(pos_ == start ? "expected a value" : "bad number");
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      digits("bad number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits("bad number: no digits after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      digits("bad number: no exponent digits");
    }
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, v.number);
    if (ec != std::errc{} || end != last) fail("bad number");
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace detail

inline JsonValue parse_json(std::string_view text) {
  return detail::JsonParser(text).parse();
}

}  // namespace libra::util
