// Minimal dependency-free JSON reader shared by the bench gate, the
// router's health poller, hipa-top and the trace-output tests, so every
// consumer parses the machine-readable artifacts with the same grammar.
//
// Deliberately small: parses the JSON our own writers emit (objects,
// arrays, strings with the common escapes, numbers, bools, null).
// Numbers follow the RFC 8259 grammar exactly and must be finite;
// nesting deeper than Parser::kMaxDepth is rejected.
// Parse errors do NOT abort the process — parse() returns nullptr and
// records a human-readable error with the byte offset, so tests can
// assert on malformed input instead of dying.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace hipa::json {

struct Value;
using ValuePtr = std::shared_ptr<Value>;

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<ValuePtr> array;
  // Insertion-ordered (we care about stable error messages, not lookup
  // speed; bench objects have a handful of keys).
  std::vector<std::pair<std::string, ValuePtr>> object;

  [[nodiscard]] const Value* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return v.get();
    }
    return nullptr;
  }
  [[nodiscard]] bool is(Type t) const { return type == t; }
};

[[nodiscard]] inline const char* type_name(Value::Type t) {
  switch (t) {
    case Value::Type::kNull: return "null";
    case Value::Type::kBool: return "bool";
    case Value::Type::kNumber: return "number";
    case Value::Type::kString: return "string";
    case Value::Type::kArray: return "array";
    case Value::Type::kObject: return "object";
  }
  return "?";
}

class Parser {
 public:
  /// Deepest array/object nesting accepted; deeper input is a parse
  /// error rather than unbounded recursion. Bench, trace and metrics
  /// documents nest fewer than ten levels.
  static constexpr std::size_t kMaxDepth = 256;

  explicit Parser(std::string text) : text_(std::move(text)) {}

  /// Parses the whole document. Returns nullptr on error; see error().
  [[nodiscard]] ValuePtr parse() {
    ValuePtr v = parse_value();
    if (failed_) return nullptr;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing content");
      return nullptr;
    }
    return v;
  }

  /// Empty when the last parse() succeeded.
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::size_t error_offset() const { return pos_; }

 private:
  void fail(const char* what) {
    if (failed_) return;  // keep the first (innermost) diagnosis
    failed_ = true;
    error_ = "JSON parse error at offset " + std::to_string(pos_) + ": " +
             what;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end");
      return '\0';
    }
    return text_[pos_];
  }
  void expect(char c) {
    if (failed_) return;
    if (peek() != c) {
      fail("unexpected character");
      return;
    }
    ++pos_;
  }
  bool consume_literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  ValuePtr parse_value() {  // NOLINT(misc-no-recursion)
    if (failed_) return nullptr;
    skip_ws();
    auto v = std::make_shared<Value>();
    const char c = peek();
    if (failed_) return nullptr;
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) {
        fail("nesting too deep");
        return nullptr;
      }
      ++depth_;
      ValuePtr nested = c == '{' ? parse_object(std::move(v))
                                 : parse_array(std::move(v));
      --depth_;
      return nested;
    }
    if (c == '"') {
      v->type = Value::Type::kString;
      v->str = parse_string();
      return failed_ ? nullptr : v;
    }
    if (consume_literal("true")) {
      v->type = Value::Type::kBool;
      v->boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v->type = Value::Type::kBool;
      return v;
    }
    if (consume_literal("null")) return v;
    return parse_number(std::move(v));
  }

  ValuePtr parse_object(ValuePtr v) {  // NOLINT(misc-no-recursion)
    v->type = Value::Type::kObject;
    ++pos_;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (!failed_) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      v->object.emplace_back(key, parse_value());
      skip_ws();
      if (failed_) break;
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
    return nullptr;
  }

  ValuePtr parse_array(ValuePtr v) {  // NOLINT(misc-no-recursion)
    v->type = Value::Type::kArray;
    ++pos_;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (!failed_) {
      v->array.push_back(parse_value());
      skip_ws();
      if (failed_) break;
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
    return nullptr;
  }

  /// RFC 8259 number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
  /// converted by strtod, which must consume exactly that lexeme and
  /// yield a finite value.
  ValuePtr parse_number(ValuePtr v) {
    const std::size_t start = pos_;
    const auto digits = [this] {
      const std::size_t from = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
      return pos_ - from;
    };
    const auto at = [this](char c) {
      return pos_ < text_.size() && text_[pos_] == c;
    };
    if (at('-')) ++pos_;
    const bool leading_zero = at('0');
    const std::size_t int_digits = digits();
    bool ok = int_digits > 0 && !(leading_zero && int_digits > 1);
    if (ok && at('.')) {
      ++pos_;
      ok = digits() > 0;
    }
    if (ok && (at('e') || at('E'))) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      ok = digits() > 0;
    }
    if (!ok) {
      fail(pos_ == start ? "expected a value" : "malformed number");
      return nullptr;
    }
    char* end = nullptr;
    v->type = Value::Type::kNumber;
    v->number = std::strtod(text_.c_str() + start, &end);
    if (end != text_.c_str() + pos_) {
      fail("malformed number");
      return nullptr;
    }
    if (!std::isfinite(v->number)) {
      fail("number out of range");
      return nullptr;
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (!failed_) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
        break;
      }
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          fail("bad escape");
          break;
        }
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("bad \\u escape");
              break;
            }
            // Our writers only ever \u-escape ASCII control chars.
            const std::string hex = text_.substr(pos_, 4);
            pos_ += 4;
            out.push_back(static_cast<char>(
                std::strtoul(hex.c_str(), nullptr, 16) & 0x7f));
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  std::string text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  bool failed_ = false;
  std::string error_;
};

/// One-shot convenience: parse `text`, nullptr + `*error` on failure.
[[nodiscard]] inline ValuePtr parse(std::string text,
                                    std::string* error = nullptr) {
  Parser p(std::move(text));
  ValuePtr v = p.parse();
  if (v == nullptr && error != nullptr) *error = p.error();
  return v;
}

}  // namespace hipa::json
