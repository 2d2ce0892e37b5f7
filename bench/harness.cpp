#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/runner.h"
#include "obs/manifest.h"
#include "util/json.h"

namespace mvsim::bench {

namespace {

int int_from_env(const char* name, int fallback, long lo, long hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  long value = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  return static_cast<int>(std::clamp(value, lo, hi));
}

json::Object summarize(const std::vector<double>& values) {
  json::Object out;
  out.set("p50", json::Value(sample_quantile(values, 0.50)));
  out.set("p90", json::Value(sample_quantile(values, 0.90)));
  out.set("min", json::Value(values.empty() ? 0.0 : *std::min_element(values.begin(), values.end())));
  out.set("max", json::Value(values.empty() ? 0.0 : *std::max_element(values.begin(), values.end())));
  return out;
}

}  // namespace

double sample_quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank > 0) --rank;  // ceil(q*n)-th order statistic, 0-based
  return values[std::min(rank, values.size() - 1)];
}

Harness::Harness(std::string name, HarnessOptions defaults)
    : name_(std::move(name)), options_(defaults) {
  options_.warmup = int_from_env("MVSIM_BENCH_WARMUP", options_.warmup, 0L, 100L);
  options_.repeat = int_from_env("MVSIM_BENCH_REPEAT", options_.repeat, 1L, 1000L);
}

void Harness::run_case(const std::string& label, const std::function<std::uint64_t()>& fn) {
  CaseResult result;
  result.name = label;
  result.wall_seconds.reserve(static_cast<std::size_t>(options_.repeat));
  for (int i = 0; i < options_.warmup; ++i) (void)fn();
  for (int i = 0; i < options_.repeat; ++i) {
    const auto started = std::chrono::steady_clock::now();
    result.events = fn();
    result.wall_seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count());
  }

  const double p50 = sample_quantile(result.wall_seconds, 0.50);
  char line[256];
  if (result.events > 0 && p50 > 0.0) {
    std::snprintf(line, sizeof line, "[bench] %-32s p50 %10.2f ms  %12.0f events/s  (x%d)\n",
                  label.c_str(), p50 * 1000.0, static_cast<double>(result.events) / p50,
                  options_.repeat);
  } else {
    std::snprintf(line, sizeof line, "[bench] %-32s p50 %10.2f ms  (x%d)\n", label.c_str(),
                  p50 * 1000.0, options_.repeat);
  }
  std::fputs(line, stderr);
  cases_.push_back(std::move(result));
}

void Harness::set_note(const std::string& key, double value) {
  for (auto& note : notes_) {
    if (note.first == key) {
      note.second = value;
      return;
    }
  }
  notes_.emplace_back(key, value);
}

std::string Harness::to_json() const {
  json::Object root;
  root.set("type", json::Value("mvsim-bench"));
  root.set("bench_schema_version", json::Value(1));
  root.set("bench", json::Value(name_));
  // The build's provenance stamp, so two BENCH files can be
  // attributed to the commits that produced them.
  root.set("git_sha", json::Value(obs::build_info().git_sha));
  root.set("warmup", json::Value(options_.warmup));
  root.set("repeat", json::Value(options_.repeat));
  // The experiment-shape knobs the measured numbers depend on.
  root.set("replications", json::Value(core::replications_from_env(10)));
  root.set("threads", json::Value(core::threads_from_env(0)));

  json::Array cases;
  for (const CaseResult& c : cases_) {
    json::Object entry;
    entry.set("name", json::Value(c.name));
    entry.set("events", json::Value(c.events));
    entry.set("wall_seconds", json::Value(summarize(c.wall_seconds)));
    if (c.events > 0) {
      std::vector<double> rates;
      rates.reserve(c.wall_seconds.size());
      for (double seconds : c.wall_seconds) {
        if (seconds > 0.0) rates.push_back(static_cast<double>(c.events) / seconds);
      }
      entry.set("events_per_sec", json::Value(summarize(rates)));
    }
    cases.emplace_back(std::move(entry));
  }
  root.set("cases", json::Value(std::move(cases)));
  if (!notes_.empty()) {
    json::Object notes;
    for (const auto& [key, value] : notes_) notes.set(key, json::Value(value));
    root.set("notes", json::Value(std::move(notes)));
  }
  return json::stringify(json::Value(std::move(root)), 2) + "\n";
}

std::string Harness::write_report() const {
  const char* dir = std::getenv("MVSIM_BENCH_DIR");
  std::string path;
  if (dir != nullptr && *dir != '\0') {
    path = std::string(dir);
    if (path.back() != '/') path += '/';
  }
  path += "BENCH_" + name_ + ".json";
  std::ofstream file(path);
  file << to_json();
  file.flush();
  if (!file) throw std::runtime_error("harness: cannot write '" + path + "'");
  std::fprintf(stderr, "[bench] wrote %s (%zu case(s))\n", path.c_str(), cases_.size());
  return path;
}

}  // namespace mvsim::bench
