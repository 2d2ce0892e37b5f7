#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace mvsim::json {

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "bool";
    case Kind::kNumber: return "number";
    case Kind::kString: return "string";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "?";
}

void Object::set(const std::string& key, Value value) {
  for (auto& entry : entries_) {
    if (entry.first == key) {
      entry.second = std::move(value);
      return;
    }
  }
  entries_.emplace_back(key, std::move(value));
}

bool Object::contains(const std::string& key) const { return find(key) != nullptr; }

const Value* Object::find(const std::string& key) const {
  for (const auto& entry : entries_) {
    if (entry.first == key) return &entry.second;
  }
  return nullptr;
}

const Value& Object::at(const std::string& key) const {
  const Value* v = find(key);
  if (v == nullptr) throw std::out_of_range("json::Object: missing key '" + key + "'");
  return *v;
}

Value& Object::at(const std::string& key) {
  for (auto& entry : entries_) {
    if (entry.first == key) return entry.second;
  }
  throw std::out_of_range("json::Object: missing key '" + key + "'");
}

void Value::require(Kind kind) const {
  if (kind_ != kind) {
    throw std::runtime_error(std::string("json::Value: expected ") + json::to_string(kind) +
                             ", got " + json::to_string(kind_));
  }
}

bool Value::as_bool() const {
  require(Kind::kBool);
  return bool_;
}

double Value::as_number() const {
  require(Kind::kNumber);
  return number_;
}

const std::string& Value::as_string() const {
  require(Kind::kString);
  return string_;
}

const Array& Value::as_array() const {
  require(Kind::kArray);
  return *array_;
}

Array& Value::as_array() {
  require(Kind::kArray);
  return *array_;
}

const Object& Value::as_object() const {
  require(Kind::kObject);
  return *object_;
}

Object& Value::as_object() {
  require(Kind::kObject);
  return *object_;
}

ParseError::ParseError(const std::string& message, int line, int column)
    : std::runtime_error("JSON parse error at " + std::to_string(line) + ":" +
                         std::to_string(column) + ": " + message),
      line_(line),
      column_(column) {}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    skip_whitespace();
    Value value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(message, line_, column_);
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }

  [[nodiscard]] char peek() const {
    if (at_end()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    char c = peek();
    ++pos_;
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void expect(char c) {
    if (at_end() || peek() != c) fail(std::string("expected '") + c + "'");
    advance();
  }

  void skip_whitespace() {
    while (!at_end()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else {
        break;
      }
    }
  }

  bool consume_keyword(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    for (std::size_t i = 0; i < word.size(); ++i) advance();
    return true;
  }

  Value parse_value() {
    skip_whitespace();
    char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth) fail("nesting too deep");
        Value container = c == '{' ? parse_object() : parse_array();
        --depth_;
        return container;
      }
      case '"': return Value(parse_string());
      case 't':
        if (consume_keyword("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_keyword("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_keyword("null")) return Value(nullptr);
        fail("invalid literal");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  Value parse_object() {
    expect('{');
    Object object;
    skip_whitespace();
    if (peek() == '}') {
      advance();
      return Value(std::move(object));
    }
    for (;;) {
      skip_whitespace();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      if (object.contains(key)) fail("duplicate object key '" + key + "'");
      skip_whitespace();
      expect(':');
      object.set(key, parse_value());
      skip_whitespace();
      char c = advance();
      if (c == '}') return Value(std::move(object));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    Array array;
    skip_whitespace();
    if (peek() == ']') {
      advance();
      return Value(std::move(array));
    }
    for (;;) {
      array.push_back(parse_value());
      skip_whitespace();
      char c = advance();
      if (c == ']') return Value(std::move(array));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      char c = advance();
      if (c == '"') return out;
      if (c == '\\') {
        char esc = advance();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': out += parse_unicode_escape(); break;
          default: fail("invalid escape sequence");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out += c;
      }
    }
  }

  std::string parse_unicode_escape() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      char c = advance();
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    // Encode the BMP code point as UTF-8 (surrogate pairs are rejected:
    // scenario files have no business containing astral characters).
    if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate pairs are not supported");
    std::string out;
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
    return out;
  }

  Value parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') advance();
    if (at_end()) fail("truncated number");
    if (peek() == '0') {
      advance();
    } else if (std::isdigit(static_cast<unsigned char>(peek()))) {
      while (!at_end() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) advance();
    } else {
      fail("invalid number");
    }
    if (!at_end() && text_[pos_] == '.') {
      advance();
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) fail("invalid fraction");
      while (!at_end() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) advance();
    }
    if (!at_end() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      advance();
      if (!at_end() && (peek() == '+' || peek() == '-')) advance();
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) fail("invalid exponent");
      while (!at_end() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) advance();
    }
    double result = 0.0;
    auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, result);
    if (ec != std::errc() || ptr != text_.data() + pos_) fail("unparsable number");
    return Value(result);
  }

  /// Deeper documents are rejected: the descent recurses once per
  /// level, so unbounded nesting would overflow the stack.
  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  int depth_ = 0;
};

}  // namespace

void append_string(std::string_view s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(double v, std::string& out) {
  if (!std::isfinite(v)) {
    // JSON has no Infinity/NaN; null is the conventional stand-in.
    out += "null";
    return;
  }
  char buf[40];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    // std::to_chars with a precision formats as printf does ("%.0f").
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 0).ptr);
    return;
  }
  // The shortest %g precision that round-trips. std::to_chars gives
  // the shortest round-trip digit count D, and no precision below D can
  // round-trip; %.*g rounds to nearest, which near a power of two may
  // need a digit more than D, so the search starts at D instead of 1.
  // The precision overloads of to_chars/from_chars are printf's "%.*g"
  // and strtod without the locale and varargs overhead.
  const char* const mantissa_end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::scientific).ptr;
  int precision = 0;
  for (const char* c = buf; c != mantissa_end && *c != 'e'; ++c) {
    if (std::isdigit(static_cast<unsigned char>(*c))) ++precision;
  }
  for (; precision < 17; ++precision) {
    char* const end =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, precision).ptr;
    double reparsed = 0.0;
    std::from_chars(buf, end, reparsed);
    if (reparsed == v) {
      out.append(buf, end);
      return;
    }
  }
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17).ptr);
}

namespace {

void write_value(const Value& value, int indent, int depth, std::string& out) {
  auto newline_indent = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (value.kind()) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += value.as_bool() ? "true" : "false"; break;
    case Kind::kNumber: append_number(value.as_number(), out); break;
    case Kind::kString: append_string(value.as_string(), out); break;
    case Kind::kArray: {
      const Array& array = value.as_array();
      if (array.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(depth + 1);
        write_value(array[i], indent, depth + 1, out);
      }
      newline_indent(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      const Object& object = value.as_object();
      if (object.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, entry] : object.entries()) {
        if (!first) out += ',';
        first = false;
        newline_indent(depth + 1);
        append_string(key, out);
        out += indent > 0 ? ": " : ":";
        write_value(entry, indent, depth + 1, out);
      }
      newline_indent(depth);
      out += '}';
      break;
    }
  }
}

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

std::string stringify(const Value& value, int indent) {
  std::string out;
  write_value(value, indent, 0, out);
  return out;
}

}  // namespace mvsim::json
