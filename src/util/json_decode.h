// Strict JSON object decoding, shared by every layer that binds a
// config struct to JSON.
//
// Extracted from the config module so the response-mechanism registry
// can carry its own JSON bindings (each mechanism decodes its config
// sub-object) without the response layer depending on config, which
// sits above it. Header-only; see config/scenario_io.cpp for the main
// consumer.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "util/checked_integer.h"
#include "util/duration.h"
#include "util/json.h"
#include "util/sim_time.h"

namespace mvsim::util {

/// Throws the uniform decode error: "<path>: <why>".
[[noreturn]] inline void decode_fail(const std::string& path, const std::string& why) {
  throw std::invalid_argument(path + ": " + why);
}

/// Strict object reader: every key must be consumed, every access is
/// type-checked, and all errors carry the JSON path.
class ObjectDecoder {
 public:
  ObjectDecoder(const json::Value& value, std::string path) : path_(std::move(path)) {
    if (!value.is_object()) decode_fail(path_, "expected an object");
    object_ = &value.as_object();
  }

  [[nodiscard]] bool has(const std::string& key) const { return object_->contains(key); }

  [[nodiscard]] const json::Value* optional(const std::string& key) {
    visited_.insert(key);
    return object_->find(key);
  }

  double number(const std::string& key, double fallback) {
    const json::Value* v = optional(key);
    if (v == nullptr) return fallback;
    if (!v->is_number()) decode_fail(member(key), "expected a number");
    return v->as_number();
  }

  std::uint32_t uint32(const std::string& key, std::uint32_t fallback) {
    return whole<std::uint32_t>(key, fallback, "expected a nonnegative integer");
  }

  std::uint64_t uint64(const std::string& key, std::uint64_t fallback) {
    return whole<std::uint64_t>(key, fallback, "expected a nonnegative integer");
  }

  int integer(const std::string& key, int fallback) {
    return whole<int>(key, fallback, "expected an integer");
  }

  bool boolean(const std::string& key, bool fallback) {
    const json::Value* v = optional(key);
    if (v == nullptr) return fallback;
    if (!v->is_bool()) decode_fail(member(key), "expected a boolean");
    return v->as_bool();
  }

  std::string string(const std::string& key, const std::string& fallback) {
    const json::Value* v = optional(key);
    if (v == nullptr) return fallback;
    if (!v->is_string()) decode_fail(member(key), "expected a string");
    return v->as_string();
  }

  SimTime duration(const std::string& key, SimTime fallback) {
    const json::Value* v = optional(key);
    if (v == nullptr) return fallback;
    if (!v->is_string()) decode_fail(member(key), "expected a duration string like \"30min\"");
    try {
      return parse_duration(v->as_string());
    } catch (const std::invalid_argument& e) {
      decode_fail(member(key), e.what());
    }
  }

  /// Rejects any key never consumed — the typo guard.
  void finish() const {
    for (const auto& [key, unused] : object_->entries()) {
      (void)unused;
      if (visited_.count(key) == 0) {
        decode_fail(member(key), "unknown key (check spelling)");
      }
    }
  }

  [[nodiscard]] std::string member(const std::string& key) const { return path_ + "." + key; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  /// An integer member of type T; `why` is the error for a fraction or
  /// a value outside T's range.
  template <typename T>
  T whole(const std::string& key, T fallback, const char* why) {
    const json::Value* v = optional(key);
    if (v == nullptr) return fallback;
    if (!v->is_number()) decode_fail(member(key), "expected a number");
    const std::optional<T> n = checked_integer<T>(v->as_number());
    if (!n) decode_fail(member(key), why);
    return *n;
  }

  const json::Object* object_;
  std::string path_;
  std::set<std::string> visited_;
};

}  // namespace mvsim::util
