#include "trace/export.h"

#include <fstream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/checked_integer.h"
#include "util/json.h"

namespace mvsim::trace {

namespace {

constexpr int kFormatVersion = 1;

/// Chrome-trace track (tid) per event family; purely presentational.
int chrome_track(EventKind kind) {
  switch (kind) {
    case EventKind::kMessageSent:
    case EventKind::kMessageBlocked:
    case EventKind::kMessageDelivered:
      return 1;
    case EventKind::kInfection: return 2;
    case EventKind::kPatchApplied: return 3;
    case EventKind::kDetectabilityCrossed:
    case EventKind::kMechanismAction:
      return 4;
    case EventKind::kReboot: return 5;
  }
  return 0;
}

const char* chrome_track_name(int tid) {
  switch (tid) {
    case 1: return "messages";
    case 2: return "infections";
    case 3: return "patches";
    case 4: return "mechanisms";
    case 5: return "reboots";
  }
  return "?";
}

std::uint64_t exported_capacity(const TraceBuffer& buffer) {
  // SIZE_MAX means "unbounded"; the formats encode that as 0 so the
  // number survives the double-typed JSON layer.
  return buffer.capacity() == std::numeric_limits<std::size_t>::max()
             ? 0
             : static_cast<std::uint64_t>(buffer.capacity());
}

/// The event's payload fields, sentinels omitted. Shared by both
/// formats so a round-trip through either reconstructs the same Event.
json::Object event_fields(const Event& event) {
  json::Object fields;
  fields.set("t", json::Value(event.time.to_minutes()));
  fields.set("kind", json::Value(to_string(event.kind)));
  if (event.phone != kInvalidPhoneId) fields.set("phone", json::Value(event.phone));
  if (event.peer != kInvalidPhoneId) fields.set("peer", json::Value(event.peer));
  if (event.message != kInvalidMessageId) {
    fields.set("msg", json::Value(static_cast<double>(event.message)));
  }
  if (event.value != 0) fields.set("value", json::Value(event.value));
  if (!event.detail.empty()) fields.set("detail", json::Value(event.detail));
  return fields;
}

/// One JSONL event line: the bytes json::stringify gives for
/// event_fields(event) plus the newline, appended without building the
/// json::Object.
void append_event_line(const Event& event, std::string& out) {
  out += R"({"t":)";
  json::append_number(event.time.to_minutes(), out);
  out += R"(,"kind":)";
  json::append_string(to_string(event.kind), out);
  if (event.phone != kInvalidPhoneId) {
    out += R"(,"phone":)";
    json::append_number(event.phone, out);
  }
  if (event.peer != kInvalidPhoneId) {
    out += R"(,"peer":)";
    json::append_number(event.peer, out);
  }
  if (event.message != kInvalidMessageId) {
    out += R"(,"msg":)";
    json::append_number(static_cast<double>(event.message), out);
  }
  if (event.value != 0) {
    out += R"(,"value":)";
    json::append_number(event.value, out);
  }
  if (!event.detail.empty()) {
    out += R"(,"detail":)";
    json::append_string(event.detail, out);
  }
  out += "}\n";
}

/// The integer field `key` of `fields`, or `fallback` when absent.
template <typename T>
T integer_field(const json::Object& fields, const char* key, T fallback, const char* where) {
  const json::Value* v = fields.find(key);
  if (v == nullptr) return fallback;
  const std::optional<T> n = util::checked_integer<T>(v->as_number());
  if (!n) {
    throw std::runtime_error(std::string(where) + ": \"" + key + "\" is not a nonnegative integer");
  }
  return *n;
}

Event event_from_fields(const json::Object& fields, const char* where) {
  Event event;
  const json::Value* t = fields.find("t");
  const json::Value* kind = fields.find("kind");
  if (t == nullptr || kind == nullptr) {
    throw std::runtime_error(std::string(where) + ": event record lacks \"t\" or \"kind\"");
  }
  event.time = SimTime::minutes(t->as_number());
  if (!event_kind_from_string(kind->as_string(), event.kind)) {
    throw std::runtime_error(std::string(where) + ": unknown event kind '" +
                             kind->as_string() + "'");
  }
  event.phone = integer_field<PhoneId>(fields, "phone", event.phone, where);
  event.peer = integer_field<PhoneId>(fields, "peer", event.peer, where);
  event.message = integer_field<std::uint64_t>(fields, "msg", event.message, where);
  event.value = integer_field<std::uint32_t>(fields, "value", event.value, where);
  if (const json::Value* v = fields.find("detail")) event.detail = v->as_string();
  return event;
}

TraceMeta meta_from_object(const json::Object& object) {
  TraceMeta meta;
  meta.capacity = integer_field<std::uint64_t>(object, "capacity", meta.capacity, "trace header");
  meta.dropped = integer_field<std::uint64_t>(object, "dropped", meta.dropped, "trace header");
  return meta;
}

LoadedTrace read_jsonl(const std::string& text) {
  LoadedTrace loaded;
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    if (line.empty()) continue;
    json::Value value = json::parse(line);
    const json::Object& object = value.as_object();
    const json::Value* type = object.find("type");
    if (type != nullptr && type->as_string() == "mvsim-trace") {
      loaded.meta = meta_from_object(object);
      continue;
    }
    loaded.events.push_back(
        event_from_fields(object, ("jsonl line " + std::to_string(lineno)).c_str()));
  }
  return loaded;
}

LoadedTrace read_chrome(const json::Object& document) {
  LoadedTrace loaded;
  const json::Value* events = document.find("traceEvents");
  if (events == nullptr) {
    throw std::runtime_error("chrome trace: document lacks \"traceEvents\"");
  }
  if (const json::Value* other = document.find("otherData")) {
    loaded.meta = meta_from_object(other->as_object());
  }
  for (const json::Value& entry : events->as_array()) {
    const json::Object& object = entry.as_object();
    const json::Value* phase = object.find("ph");
    if (phase == nullptr || phase->as_string() != "i") continue;  // metadata etc.
    const json::Value* args = object.find("args");
    if (args == nullptr) throw std::runtime_error("chrome trace: instant event lacks args");
    loaded.events.push_back(event_from_fields(args->as_object(), "chrome traceEvents"));
  }
  return loaded;
}

}  // namespace

void write_jsonl(const TraceBuffer& buffer, std::ostream& out) {
  json::Object meta;
  meta.set("type", json::Value("mvsim-trace"));
  meta.set("version", json::Value(kFormatVersion));
  meta.set("capacity", json::Value(exported_capacity(buffer)));
  meta.set("dropped", json::Value(buffer.dropped()));
  std::string lines = json::stringify(json::Value(std::move(meta)), 0);
  lines += '\n';
  // Lines go out in blocks of about 64 KiB.
  constexpr std::size_t kBlockBytes = std::size_t{1} << 16;
  for (const Event& event : buffer.events()) {
    append_event_line(event, lines);
    if (lines.size() >= kBlockBytes) {
      out.write(lines.data(), static_cast<std::streamsize>(lines.size()));
      lines.clear();
    }
  }
  out.write(lines.data(), static_cast<std::streamsize>(lines.size()));
}

void write_chrome_trace(const TraceBuffer& buffer, std::ostream& out) {
  json::Object other;
  other.set("generator", json::Value("mvsim"));
  other.set("version", json::Value(kFormatVersion));
  other.set("capacity", json::Value(exported_capacity(buffer)));
  other.set("dropped", json::Value(buffer.dropped()));

  json::Array events;
  json::Object process_name;
  process_name.set("name", json::Value("process_name"));
  process_name.set("ph", json::Value("M"));
  process_name.set("pid", json::Value(1));
  json::Object process_args;
  process_args.set("name", json::Value("mvsim"));
  process_name.set("args", json::Value(std::move(process_args)));
  events.push_back(json::Value(std::move(process_name)));
  for (int tid = 1; tid <= 5; ++tid) {
    json::Object thread_name;
    thread_name.set("name", json::Value("thread_name"));
    thread_name.set("ph", json::Value("M"));
    thread_name.set("pid", json::Value(1));
    thread_name.set("tid", json::Value(tid));
    json::Object thread_args;
    thread_args.set("name", json::Value(chrome_track_name(tid)));
    thread_name.set("args", json::Value(std::move(thread_args)));
    events.push_back(json::Value(std::move(thread_name)));
  }

  for (const Event& event : buffer.events()) {
    json::Object entry;
    // Blocks and mechanism actions read best when the slice itself
    // names the mechanism; args.kind stays authoritative for loading.
    const bool labeled = !event.detail.empty() && (event.kind == EventKind::kMessageBlocked ||
                                                   event.kind == EventKind::kMechanismAction);
    entry.set("name", labeled ? json::Value(event.detail) : json::Value(to_string(event.kind)));
    entry.set("ph", json::Value("i"));
    entry.set("s", json::Value("t"));
    // Microseconds of simulation time (trace viewers assume µs).
    entry.set("ts", json::Value(event.time.to_seconds() * 1e6));
    entry.set("pid", json::Value(1));
    entry.set("tid", json::Value(chrome_track(event.kind)));
    entry.set("args", json::Value(event_fields(event)));
    events.push_back(json::Value(std::move(entry)));
  }

  json::Object document;
  document.set("displayTimeUnit", json::Value("ms"));
  document.set("otherData", json::Value(std::move(other)));
  document.set("traceEvents", json::Value(std::move(events)));
  out << json::stringify(json::Value(std::move(document)), 1) << '\n';
}

LoadedTrace read_trace(const std::string& text) {
  // A JSONL export's first line is a complete JSON object of its own;
  // a Chrome trace's first line is the opening brace of a multi-line
  // document. Parse the first non-empty line to tell them apart.
  std::size_t start = text.find_first_not_of(" \t\r\n");
  if (start == std::string::npos) throw std::runtime_error("trace: empty input");
  std::size_t eol = text.find('\n', start);
  std::string first_line = text.substr(start, eol == std::string::npos ? eol : eol - start);
  try {
    json::Value value = json::parse(first_line);
    if (value.is_object() && value.as_object().find("traceEvents") == nullptr) {
      return read_jsonl(text.substr(start));
    }
  } catch (const json::ParseError&) {
    // Fall through: not a single-line document, so try the whole text.
  }
  return read_chrome(json::parse(text).as_object());
}

LoadedTrace read_trace_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot read trace file '" + path + "'");
  std::ostringstream content;
  content << file.rdbuf();
  return read_trace(content.str());
}

}  // namespace mvsim::trace
