// Internal minimal JSON parser shared by the sweep document/stream reader
// (src/core/sweep.cpp) and the cell-result cache (src/core/cell_cache.cpp).
// Not installed.
//
// Parsing is strict and locale-free: numbers go through std::from_chars
// (so a process running under LC_NUMERIC=de_DE still reads "0.05" as five
// hundredths, not zero), \uXXXX escapes require exactly four hex digits
// and reject surrogate halves, and every scalar accessor type-checks.
#pragma once

#include <charconv>
#include <cstdint>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace slpdas::core::detail {

/// Writes `text` as a JSON string literal. The one escaper behind every
/// serialised string in this library (sweep documents, cell streams,
/// cache records), so the byte-stable round-trip discipline cannot drift
/// between writers. Escapes the two mandatory characters, \n/\t for
/// readability, and other control characters as \u00XX.
inline void write_json_string(std::ostream& out, std::string_view text) {
  out << '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u" << std::hex << std::setw(4) << std::setfill('0')
              << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

class JsonParser {
 public:
  explicit JsonParser(std::istream& in) : text_(read_all(in)) {}
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  // -- generic value model --------------------------------------------------
  struct Value;
  using Object = std::vector<std::pair<std::string, Value>>;
  using Array = std::vector<Value>;

  struct Value {
    enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string raw;  ///< number token verbatim, for exact integer parses
    std::string string;
    Object object;
    Array array;

    [[nodiscard]] const Value* find(std::string_view key) const {
      if (kind != Kind::kObject) {
        throw std::runtime_error("json: expected object");
      }
      for (const auto& [k, v] : object) {
        if (k == key) {
          return &v;
        }
      }
      return nullptr;
    }

    [[nodiscard]] const Value& at(std::string_view key) const {
      const Value* value = find(key);
      if (value == nullptr) {
        throw std::runtime_error("json: missing key '" + std::string(key) +
                                 "'");
      }
      return *value;
    }

    [[nodiscard]] double as_number() const {
      if (kind == Kind::kNull) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      if (kind != Kind::kNumber) {
        throw std::runtime_error("json: expected number");
      }
      return number;
    }

    /// Exact 64-bit parse from the raw token; doubles would silently lose
    /// the low bits of seeds above 2^53.
    [[nodiscard]] std::uint64_t as_u64() const {
      if (kind != Kind::kNumber || raw.empty() ||
          raw.find_first_of(".eE-+") != std::string::npos) {
        throw std::runtime_error("json: expected unsigned integer");
      }
      std::uint64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(raw.data(), raw.data() + raw.size(), value);
      if (ec != std::errc() || ptr != raw.data() + raw.size()) {
        throw std::runtime_error("json: bad integer: " + raw);
      }
      return value;
    }

    /// as_u64 limited to int: every int field read from disk (run, thread
    /// and failure counts, shard specs) is non-negative, so null, a
    /// fraction, a sign or a value past INT_MAX is malformed input — never
    /// a truncating or undefined double-to-int cast.
    [[nodiscard]] int as_int() const {
      const std::uint64_t value = as_u64();
      if (value > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
        throw std::runtime_error("json: integer out of range: " + raw);
      }
      return static_cast<int>(value);
    }

    [[nodiscard]] bool as_bool() const {
      if (kind != Kind::kBool) {
        throw std::runtime_error("json: expected boolean");
      }
      return boolean;
    }

    [[nodiscard]] const std::string& as_string() const {
      if (kind != Kind::kString) {
        throw std::runtime_error("json: expected string");
      }
      return string;
    }

    [[nodiscard]] const Array& as_array() const {
      if (kind != Kind::kArray) {
        throw std::runtime_error("json: expected array");
      }
      return array;
    }

    [[nodiscard]] const Object& as_object() const {
      if (kind != Kind::kObject) {
        throw std::runtime_error("json: expected object");
      }
      return object;
    }
  };

  Value parse() {
    const Value value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) {
      throw std::runtime_error("json: trailing content");
    }
    return value;
  }

 private:
  static std::string read_all(std::istream& in) {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  static bool is_json_space(char c) {
    // JSON's own whitespace set — NOT std::isspace, whose answer can
    // depend on the process locale.
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  static int hex_digit(char c) {
    if (c >= '0' && c <= '9') {
      return c - '0';
    }
    if (c >= 'a' && c <= 'f') {
      return c - 'a' + 10;
    }
    if (c >= 'A' && c <= 'F') {
      return c - 'A' + 10;
    }
    return -1;
  }

  void skip_whitespace() {
    while (pos_ < text_.size() && is_json_space(text_[pos_])) {
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) {
      throw std::runtime_error("json: unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("json: expected '") + c +
                               "' at offset " + std::to_string(pos_));
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.compare(pos_, literal.size(), literal) == 0) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Value parse_value() {
    const char c = peek();
    Value value;
    switch (c) {
      case '{':
        value.kind = Value::Kind::kObject;
        value.object = parse_object();
        return value;
      case '[':
        value.kind = Value::Kind::kArray;
        value.array = parse_array();
        return value;
      case '"':
        value.kind = Value::Kind::kString;
        value.string = parse_string();
        return value;
      case 't':
        if (consume_literal("true")) {
          value.kind = Value::Kind::kBool;
          value.boolean = true;
          return value;
        }
        break;
      case 'f':
        if (consume_literal("false")) {
          value.kind = Value::Kind::kBool;
          return value;
        }
        break;
      case 'n':
        if (consume_literal("null")) {
          return value;
        }
        break;
      default: {
        value.kind = Value::Kind::kNumber;
        value.raw = parse_number_token();
        // Locale-free whole-token parse: greedy tokenisation can grab
        // garbage like "1-2", and from_chars (unlike std::stod) never
        // consults LC_NUMERIC, so "0.05" is five hundredths everywhere.
        const auto [ptr, ec] =
            std::from_chars(value.raw.data(),
                            value.raw.data() + value.raw.size(), value.number);
        if (ec != std::errc() ||
            ptr != value.raw.data() + value.raw.size()) {
          throw std::runtime_error("json: malformed number: " + value.raw);
        }
        return value;
      }
    }
    throw std::runtime_error("json: malformed value at offset " +
                             std::to_string(pos_));
  }

  Object parse_object() {
    Object object;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    for (;;) {
      std::string key = parse_string();
      expect(':');
      object.emplace_back(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') {
        return object;
      }
      if (c != ',') {
        throw std::runtime_error("json: expected ',' or '}'");
      }
    }
  }

  Array parse_array() {
    Array array;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    for (;;) {
      array.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') {
        return array;
      }
      if (c != ',') {
        throw std::runtime_error("json: expected ',' or ']'");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char escaped = text_[pos_++];
      switch (escaped) {
        case '"':
        case '\\':
        case '/':
          out += escaped;
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'u': {
          // Exactly four hex digits — std::stoi's forgiving grammar
          // (leading whitespace, signs, fewer digits before a quote)
          // would decode a malformed escape to garbage instead of
          // failing the parse.
          if (pos_ + 4 > text_.size()) {
            throw std::runtime_error("json: truncated \\u escape");
          }
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            const int digit = hex_digit(text_[pos_ + i]);
            if (digit < 0) {
              throw std::runtime_error(
                  "json: \\u escape needs exactly 4 hex digits, got '\\u" +
                  text_.substr(pos_, 4) + "'");
            }
            code = code * 16 + digit;
          }
          pos_ += 4;
          if (code >= 0xD800 && code <= 0xDFFF) {
            // Surrogate halves never appear in this library's output
            // (only control characters are escaped); pairing logic is
            // deliberately out of scope, so reject rather than emit an
            // unpaired half as mojibake.
            throw std::runtime_error(
                "json: \\u escape encodes a UTF-16 surrogate half");
          }
          append_utf8(out, static_cast<unsigned>(code));
          break;
        }
        default:
          throw std::runtime_error("json: unknown escape");
      }
    }
    throw std::runtime_error("json: unterminated string");
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::string parse_number_token() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (is_digit(text_[pos_]) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (start == pos_) {
      throw std::runtime_error("json: malformed number");
    }
    return text_.substr(start, pos_ - start);
  }

  std::string text_;
  std::size_t pos_ = 0;
};

}  // namespace slpdas::core::detail
