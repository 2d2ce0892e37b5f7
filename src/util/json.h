// Minimal JSON value type, parser and writer.
//
// mvsim scenarios are plain structs; the config layer (src/config)
// binds them to JSON documents so experiments can be described in
// files and driven from the CLI. This is a deliberately small,
// dependency-free JSON implementation: UTF-8 pass-through strings,
// doubles for all numbers, ordered object keys (so round-trips are
// stable and diffable), line/column error reporting.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mvsim::json {

class Value;

using Array = std::vector<Value>;

/// Object preserving insertion order (scenario files stay diffable).
class Object {
 public:
  /// Inserts or overwrites.
  void set(const std::string& key, Value value);
  [[nodiscard]] bool contains(const std::string& key) const;
  /// Throws std::out_of_range when missing.
  [[nodiscard]] const Value& at(const std::string& key) const;
  [[nodiscard]] Value& at(const std::string& key);
  /// nullptr when missing.
  [[nodiscard]] const Value* find(const std::string& key) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, Value>> entries_;
};

enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

[[nodiscard]] const char* to_string(Kind kind);

/// A JSON value. Value semantics; cheap to move.
class Value {
 public:
  Value() : kind_(Kind::kNull) {}
  Value(std::nullptr_t) : kind_(Kind::kNull) {}
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  Value(double n) : kind_(Kind::kNumber), number_(n) {}
  Value(int n) : kind_(Kind::kNumber), number_(n) {}
  Value(long n) : kind_(Kind::kNumber), number_(static_cast<double>(n)) {}
  Value(unsigned n) : kind_(Kind::kNumber), number_(n) {}
  Value(std::uint64_t n) : kind_(Kind::kNumber), number_(static_cast<double>(n)) {}
  Value(const char* s) : kind_(Kind::kString), string_(s) {}
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  Value(Array a) : kind_(Kind::kArray), array_(std::make_shared<Array>(std::move(a))) {}
  Value(Object o) : kind_(Kind::kObject), object_(std::make_shared<Object>(std::move(o))) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Checked accessors; throw std::runtime_error naming the actual kind.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Object& as_object();
  [[nodiscard]] Array& as_array();

 private:
  void require(Kind kind) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  // shared_ptr keeps Value small and copies cheap; copy-on-write is
  // not needed (configs are built once, read many).
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parse error with 1-based line/column.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, int line, int column);
  [[nodiscard]] int line() const { return line_; }
  [[nodiscard]] int column() const { return column_; }

 private:
  int line_;
  int column_;
};

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected; arrays and objects nested more than 256
/// deep rejected).
[[nodiscard]] Value parse(std::string_view text);

/// Serializes. `indent` spaces per level; 0 = compact single line.
[[nodiscard]] std::string stringify(const Value& value, int indent = 2);

/// The writers stringify() uses for scalars, for callers that append
/// records straight into a buffer instead of building a Value tree.
/// append_number writes the shortest "%.*g" text that parses back to
/// `v` (integers below 10^15 without a fraction; non-finite as null);
/// append_string writes a quoted, escaped string.
void append_number(double v, std::string& out);
void append_string(std::string_view s, std::string& out);

}  // namespace mvsim::json
