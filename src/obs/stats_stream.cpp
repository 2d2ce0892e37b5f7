#include "obs/stats_stream.h"

#include <ostream>
#include <utility>

#include "obs/manifest.h"
#include "util/json.h"

namespace mvsim::obs {

const std::vector<std::string>& RunStream::sample_fields() {
  static const std::vector<std::string> kFields = {
      "type",    "rep",    "t_min",          "infected", "patched",
      "blocked", "events", "events_per_sec", "queue"};
  return kFields;
}

void RunStream::write_header(const StreamInfo& info) {
  json::Object header;
  header.set("type", json::Value("mvsim-stats"));
  header.set("version", json::Value(kVersion));
  header.set("scenario", json::Value(info.scenario));
  header.set("scenario_hash", json::Value(info.scenario_hash));
  header.set("git_sha", json::Value(build_info().git_sha));
  header.set("replications", json::Value(info.replications));
  json::Array fields;
  for (const std::string& field : sample_fields()) fields.push_back(json::Value(field));
  header.set("fields", json::Value(std::move(fields)));

  std::lock_guard<std::mutex> lock(mutex_);
  *out_ << json::stringify(json::Value(std::move(header)), 0) << '\n';
  out_->flush();
}

void RunStream::write_sample(const RunSample& sample) {
  // Every sample record carries every schema field. The line is
  // appended straight into a reused buffer: the same bytes
  // json::stringify would give for the record's json::Object.
  std::lock_guard<std::mutex> lock(mutex_);
  line_.assign(R"({"type":"sample","rep":)");
  json::append_number(sample.replication, line_);
  const auto field = [this](const char* key, double value) {
    line_ += key;
    json::append_number(value, line_);
  };
  field(R"(,"t_min":)", sample.time.to_minutes());
  field(R"(,"infected":)", static_cast<double>(sample.infected));
  field(R"(,"patched":)", static_cast<double>(sample.patched));
  field(R"(,"blocked":)", static_cast<double>(sample.messages_blocked));
  field(R"(,"events":)", static_cast<double>(sample.events_executed));
  field(R"(,"events_per_sec":)", sample.events_per_sec);
  field(R"(,"queue":)", static_cast<double>(sample.queue_depth));
  line_ += "}\n";
  out_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
  out_->flush();
  ++samples_written_;
}

}  // namespace mvsim::obs
