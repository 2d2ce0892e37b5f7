// Minimal CSV writer for figure data, results and metric reports.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace mvsim {

/// Streams rows of a CSV table with RFC-4180-style quoting.
///
/// Usage:
///   CsvWriter csv(std::cout);
///   csv.header({"hours", "infections"});
///   csv.row(1.5, 12);
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  void header(const std::vector<std::string>& names);

  template <typename... Fields>
  void row(const Fields&... fields) {
    bool first = true;
    (write_field(format_field(fields), first), ...);
    *out_ << '\n';
    ++rows_;
  }

  /// Number of data rows written so far (header excluded).
  [[nodiscard]] long rows_written() const { return rows_; }

  /// Quote a single field per RFC 4180 (exposed for testing).
  [[nodiscard]] static std::string quote(std::string_view field);

 private:
  static std::string format_field(const std::string& s) { return quote(s); }
  static std::string format_field(const char* s) { return quote(s); }
  static std::string format_field(double v);
  static std::string format_field(long v) { return std::to_string(v); }
  static std::string format_field(int v) { return std::to_string(v); }
  static std::string format_field(unsigned v) { return std::to_string(v); }
  static std::string format_field(std::size_t v) { return std::to_string(v); }

  void write_field(const std::string& formatted, bool& first);

  std::ostream* out_;
  long rows_ = 0;
};

}  // namespace mvsim
