#include "obs/manifest.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/version.h"
#include "util/checked_integer.h"

namespace mvsim::obs {

BuildInfo build_info() {
  BuildInfo info;
  info.git_sha = MVSIM_GIT_SHA;
  info.compiler = MVSIM_COMPILER;
  info.build_type = MVSIM_BUILD_TYPE;
  return info;
}

std::uint64_t peak_rss_bytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#ifdef __APPLE__
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
}

std::string fnv1a_hex(std::string_view text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash));
  return buffer;
}

const std::vector<std::string>& manifest_fields() {
  static const std::vector<std::string> kFields = {
      "type",    "version", "scenario", "scenario_hash",  "seed",      "replications",
      "threads", "build",   "phases",   "peak_rss_bytes", "artifacts", "outcome",
      "sweep"};
  return kFields;
}

const std::vector<std::string>& phase_fields() {
  static const std::vector<std::string> kFields = {"run_seconds", "write_seconds"};
  return kFields;
}

const std::vector<std::string>& build_fields() {
  static const std::vector<std::string> kFields = {"git_sha", "compiler", "build_type"};
  return kFields;
}

const std::vector<std::string>& outcome_fields() {
  static const std::vector<std::string> kFields = {
      "final_infected_mean", "final_infected_ci95",   "peak_infected_mean",
      "time_to_peak_h",      "patched_mean",          "messages_blocked_mean",
      "total_events"};
  return kFields;
}

const std::vector<std::string>& sweep_fields() {
  static const std::vector<std::string> kFields = {"parameter", "value", "index", "count"};
  return kFields;
}

const std::vector<std::string>& artifact_fields() {
  static const std::vector<std::string> kFields = {"kind", "path"};
  return kFields;
}

json::Value to_json(const RunManifest& manifest) {
  json::Object root;
  root.set("type", json::Value("mvsim-manifest"));
  root.set("version", json::Value(RunManifest::kVersion));
  root.set("scenario", json::Value(manifest.scenario));
  root.set("scenario_hash", json::Value(manifest.scenario_hash));
  root.set("seed", json::Value(manifest.seed));
  root.set("replications", json::Value(manifest.replications));
  root.set("threads", json::Value(manifest.threads));
  json::Object build;
  build.set("git_sha", json::Value(manifest.build.git_sha));
  build.set("compiler", json::Value(manifest.build.compiler));
  build.set("build_type", json::Value(manifest.build.build_type));
  root.set("build", json::Value(std::move(build)));
  json::Object phases;
  phases.set("run_seconds", json::Value(manifest.phases.run_seconds));
  phases.set("write_seconds", json::Value(manifest.phases.write_seconds));
  root.set("phases", json::Value(std::move(phases)));
  root.set("peak_rss_bytes", json::Value(manifest.peak_rss));
  json::Array artifacts;
  for (const ManifestArtifact& artifact : manifest.artifacts) {
    json::Object entry;
    entry.set("kind", json::Value(artifact.kind));
    entry.set("path", json::Value(artifact.path));
    artifacts.push_back(json::Value(std::move(entry)));
  }
  root.set("artifacts", json::Value(std::move(artifacts)));
  json::Object outcome;
  outcome.set("final_infected_mean", json::Value(manifest.outcome.final_infected_mean));
  outcome.set("final_infected_ci95", json::Value(manifest.outcome.final_infected_ci95));
  outcome.set("peak_infected_mean", json::Value(manifest.outcome.peak_infected_mean));
  outcome.set("time_to_peak_h", json::Value(manifest.outcome.time_to_peak_h));
  outcome.set("patched_mean", json::Value(manifest.outcome.patched_mean));
  outcome.set("messages_blocked_mean", json::Value(manifest.outcome.messages_blocked_mean));
  outcome.set("total_events", json::Value(manifest.outcome.total_events));
  root.set("outcome", json::Value(std::move(outcome)));
  if (manifest.sweep.has_value()) {
    json::Object sweep;
    sweep.set("parameter", json::Value(manifest.sweep->parameter));
    sweep.set("value", json::Value(manifest.sweep->value));
    sweep.set("index", json::Value(manifest.sweep->index));
    sweep.set("count", json::Value(manifest.sweep->count));
    root.set("sweep", json::Value(std::move(sweep)));
  } else {
    root.set("sweep", json::Value(nullptr));
  }
  return json::Value(std::move(root));
}

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("manifest: " + message);
}

double number_at(const json::Object& object, const std::string& key) {
  const json::Value* value = object.find(key);
  if (value == nullptr || !value->is_number()) fail("missing numeric field '" + key + "'");
  return value->as_number();
}

/// A nonnegative integer field that fits T.
template <typename T>
T count_at(const json::Object& object, const std::string& key) {
  const double n = number_at(object, key);
  const std::optional<T> value = n < 0 ? std::nullopt : util::checked_integer<T>(n);
  if (!value) fail("field '" + key + "' is not a nonnegative integer");
  return *value;
}

std::string string_at(const json::Object& object, const std::string& key) {
  const json::Value* value = object.find(key);
  if (value == nullptr || !value->is_string()) fail("missing string field '" + key + "'");
  return value->as_string();
}

}  // namespace

RunManifest manifest_from_json(const json::Value& value) {
  if (!value.is_object()) fail("document is not a JSON object");
  const json::Object& root = value.as_object();
  if (string_at(root, "type") != "mvsim-manifest") fail("not an mvsim-manifest document");
  const int version = count_at<int>(root, "version");
  if (version != RunManifest::kVersion) {
    fail("unsupported manifest version " + std::to_string(version));
  }
  RunManifest manifest;
  manifest.scenario = string_at(root, "scenario");
  manifest.scenario_hash = string_at(root, "scenario_hash");
  manifest.seed = string_at(root, "seed");
  manifest.replications = count_at<int>(root, "replications");
  manifest.threads = count_at<int>(root, "threads");
  const json::Value* build = root.find("build");
  if (build == nullptr || !build->is_object()) fail("missing build block");
  manifest.build.git_sha = string_at(build->as_object(), "git_sha");
  manifest.build.compiler = string_at(build->as_object(), "compiler");
  manifest.build.build_type = string_at(build->as_object(), "build_type");
  const json::Value* phases = root.find("phases");
  if (phases == nullptr || !phases->is_object()) fail("missing phases block");
  manifest.phases.run_seconds = number_at(phases->as_object(), "run_seconds");
  manifest.phases.write_seconds = number_at(phases->as_object(), "write_seconds");
  manifest.peak_rss = count_at<std::uint64_t>(root, "peak_rss_bytes");
  const json::Value* artifacts = root.find("artifacts");
  if (artifacts == nullptr || !artifacts->is_array()) fail("missing artifacts array");
  for (const json::Value& entry : artifacts->as_array()) {
    if (!entry.is_object()) fail("artifact entry is not an object");
    ManifestArtifact artifact;
    artifact.kind = string_at(entry.as_object(), "kind");
    artifact.path = string_at(entry.as_object(), "path");
    manifest.artifacts.push_back(std::move(artifact));
  }
  const json::Value* outcome = root.find("outcome");
  if (outcome == nullptr || !outcome->is_object()) fail("missing outcome block");
  const json::Object& o = outcome->as_object();
  manifest.outcome.final_infected_mean = number_at(o, "final_infected_mean");
  manifest.outcome.final_infected_ci95 = number_at(o, "final_infected_ci95");
  manifest.outcome.peak_infected_mean = number_at(o, "peak_infected_mean");
  manifest.outcome.time_to_peak_h = number_at(o, "time_to_peak_h");
  manifest.outcome.patched_mean = number_at(o, "patched_mean");
  manifest.outcome.messages_blocked_mean = number_at(o, "messages_blocked_mean");
  manifest.outcome.total_events = count_at<std::uint64_t>(o, "total_events");
  const json::Value* sweep = root.find("sweep");
  if (sweep != nullptr && !sweep->is_null()) {
    if (!sweep->is_object()) fail("sweep block is neither null nor an object");
    SweepInfo info;
    info.parameter = string_at(sweep->as_object(), "parameter");
    info.value = number_at(sweep->as_object(), "value");
    info.index = count_at<int>(sweep->as_object(), "index");
    info.count = count_at<int>(sweep->as_object(), "count");
    manifest.sweep = std::move(info);
  }
  return manifest;
}

RunManifest read_manifest_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("manifest: cannot read '" + path + "'");
  std::ostringstream text;
  text << file.rdbuf();
  try {
    return manifest_from_json(json::parse(text.str()));
  } catch (const std::exception& e) {
    throw std::runtime_error("manifest: '" + path + "': " + e.what());
  }
}

std::vector<RunManifest> read_ledger_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("ledger: cannot read '" + path + "'");
  std::vector<RunManifest> manifests;
  std::string line;
  int lineno = 0;
  while (std::getline(file, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      manifests.push_back(manifest_from_json(json::parse(line)));
    } catch (const std::exception& e) {
      throw std::runtime_error("ledger: '" + path + "' line " + std::to_string(lineno) + ": " +
                               e.what());
    }
  }
  return manifests;
}

bool append_to_ledger(const std::string& path, const RunManifest& manifest) {
  // POSIX guarantees O_APPEND writes are atomic with respect to the
  // file offset, so emitting the whole line in one write() keeps
  // concurrent appenders from interleaving fragments — the ledger
  // analogue of the stats stream's whole-line mutex.
  std::string line = json::stringify(to_json(manifest), 0) + "\n";
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  std::size_t written = 0;
  bool ok = true;
  while (written < line.size()) {
    ssize_t n = ::write(fd, line.data() + written, line.size() - written);
    if (n <= 0) {
      ok = false;
      break;
    }
    written += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return ok;
}

}  // namespace mvsim::obs
