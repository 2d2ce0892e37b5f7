// Unit tests for src/trace: the bounded event buffer, causal-link
// integrity of recorded simulations, transmission-tree analytics and
// the JSONL / Chrome trace_event exporters (lossless round-trips).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cli/preset_registry.h"
#include "config/scenario_io.h"
#include "core/presets.h"
#include "core/scenario.h"
#include "core/simulation.h"
#include "trace/analysis.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "util/json.h"

namespace mvsim::trace {
namespace {

core::ScenarioConfig traced_scenario() {
  core::ScenarioConfig config;
  config.name = "trace-test";
  config.population = 150;
  config.topology.mean_degree = 12.0;
  config.virus = virus::virus1();
  config.horizon = SimTime::hours(72.0);
  config.sample_step = SimTime::hours(1.0);
  return config;
}

Event make_event(double hours, EventKind kind, PhoneId phone) {
  Event event;
  event.time = SimTime::hours(hours);
  event.kind = kind;
  event.phone = phone;
  return event;
}

TEST(EventKindNames, RoundTripThroughStrings) {
  for (EventKind kind :
       {EventKind::kMessageSent, EventKind::kMessageBlocked, EventKind::kMessageDelivered,
        EventKind::kInfection, EventKind::kPatchApplied, EventKind::kReboot,
        EventKind::kDetectabilityCrossed, EventKind::kMechanismAction}) {
    EventKind parsed = EventKind::kInfection;
    ASSERT_TRUE(event_kind_from_string(to_string(kind), parsed)) << to_string(kind);
    EXPECT_EQ(parsed, kind);
  }
  EventKind parsed = EventKind::kInfection;
  EXPECT_FALSE(event_kind_from_string("not-a-kind", parsed));
}

TEST(TraceBufferTest, CountsAndTimeQueries) {
  TraceBuffer buffer;
  buffer.record(make_event(1.0, EventKind::kInfection, 7));
  buffer.record(make_event(2.0, EventKind::kDetectabilityCrossed, kInvalidPhoneId));
  buffer.record(make_event(3.0, EventKind::kInfection, 9));
  EXPECT_EQ(buffer.count(EventKind::kInfection), 2u);
  EXPECT_EQ(buffer.count(EventKind::kDetectabilityCrossed), 1u);
  EXPECT_EQ(buffer.first_time(EventKind::kInfection), SimTime::hours(1.0));
  EXPECT_EQ(buffer.last_time(EventKind::kInfection), SimTime::hours(3.0));
  EXPECT_EQ(buffer.first_time(EventKind::kPatchApplied), SimTime::infinity());
  EXPECT_EQ(buffer.last_time(EventKind::kPatchApplied), SimTime::infinity());
  buffer.clear();
  EXPECT_TRUE(buffer.events().empty());
  EXPECT_EQ(buffer.recorded(), 0u);
}

TEST(TraceBufferTest, BoundedCaptureDropsAndCounts) {
  TraceBuffer buffer(3);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(buffer.full(), i >= 3) << "event " << i;
    buffer.record(make_event(static_cast<double>(i), EventKind::kInfection,
                             static_cast<PhoneId>(i)));
  }
  EXPECT_EQ(buffer.capacity(), 3u);
  ASSERT_EQ(buffer.events().size(), 3u);
  EXPECT_EQ(buffer.dropped(), 2u);
  EXPECT_EQ(buffer.recorded(), 5u);
  // The kept prefix is the *earliest* events — the ones that explain
  // how the outbreak started.
  EXPECT_EQ(buffer.events().back().phone, 2u);
  EXPECT_TRUE(buffer.drop_if_full());
  EXPECT_EQ(buffer.recorded(), 6u) << "drop_if_full() counts the drop it reports";
  buffer.clear();
  EXPECT_EQ(buffer.dropped(), 0u);
  EXPECT_FALSE(buffer.full());
  EXPECT_FALSE(buffer.drop_if_full());
  EXPECT_EQ(buffer.recorded(), 0u);
  EXPECT_EQ(buffer.capacity(), 3u) << "clear() keeps the capacity";

  // Recording sites skip building an event once the buffer is full.
  // The kept events must still be a prefix of the unbounded trace of
  // the same run, and the drop count must make up the rest exactly.
  // Gateway scanning, blacklisting and immunization put blocks,
  // mechanism actions and patches behind the cap too.
  core::ScenarioConfig config = traced_scenario();
  config.responses.gateway_scan = response::GatewayScanConfig{};
  config.responses.blacklist = response::BlacklistConfig{};
  config.responses.blacklist->message_threshold = 30;
  config.responses.immunization = response::ImmunizationConfig{};
  config.responses.immunization->development_time = SimTime::hours(6.0);
  TraceBuffer full = TraceBuffer::unbounded();
  (void)core::Simulation(config, 404, &full).run();
  for (EventKind kind :
       {EventKind::kMessageBlocked, EventKind::kMechanismAction, EventKind::kPatchApplied}) {
    ASSERT_GT(full.count(kind), 0u) << to_string(kind);
  }
  for (std::size_t cap : {std::size_t{0}, std::size_t{1}, std::size_t{37}, full.events().size() / 2}) {
    TraceBuffer capped(cap);
    (void)core::Simulation(config, 404, &capped).run();
    ASSERT_EQ(capped.events().size(), cap);
    EXPECT_EQ(capped.recorded(), full.recorded()) << "cap " << cap;
    EXPECT_EQ(capped.dropped(), full.recorded() - cap) << "cap " << cap;
    for (std::size_t i = 0; i < cap; ++i) {
      ASSERT_EQ(capped.events()[i], full.events()[i]) << "cap " << cap << ", event " << i;
    }
  }
}

TEST(TraceBufferTest, RecordActionHelper) {
  TraceBuffer buffer;
  record_action(&buffer, SimTime::hours(5.0), "blacklist", "blacklisted", 42);
  ASSERT_EQ(buffer.events().size(), 1u);
  const Event& event = buffer.events().front();
  EXPECT_EQ(event.kind, EventKind::kMechanismAction);
  EXPECT_EQ(event.phone, 42u);
  EXPECT_EQ(event.detail, "blacklist:blacklisted");
  EXPECT_NO_THROW(record_action(nullptr, SimTime::zero(), "x", "y"));
}

// Every MMS infection must be explained by a prior delivery of the
// triggering message from the named infector, and every delivery by a
// prior submission — the causal chain the tentpole promises.
TEST(CausalIntegrity, InfectionsTraceBackToDeliveriesAndSends) {
  TraceBuffer buffer = TraceBuffer::unbounded();
  core::Simulation sim(traced_scenario(), 101, &buffer);
  core::ReplicationResult result = sim.run();
  ASSERT_GT(result.total_infected, 1u) << "outbreak fizzled; pick another seed";

  std::unordered_set<std::uint64_t> submitted;
  // delivery key: message id -> recipients seen so far.
  std::unordered_map<std::uint64_t, std::set<PhoneId>> delivered;
  std::unordered_set<PhoneId> infected;
  SimTime last = SimTime::zero();
  for (const Event& event : buffer.events()) {
    ASSERT_GE(event.time, last) << "trace must be time-ordered";
    last = event.time;
    switch (event.kind) {
      case EventKind::kMessageSent:
        EXPECT_TRUE(infected.count(event.phone))
            << "phone " << event.phone << " sent a virus message while not traced as infected";
        submitted.insert(event.message);
        break;
      case EventKind::kMessageDelivered:
        EXPECT_TRUE(submitted.count(event.message))
            << "delivery of message " << event.message << " without a prior submission";
        delivered[event.message].insert(event.phone);
        break;
      case EventKind::kMessageBlocked:
        EXPECT_TRUE(submitted.count(event.message));
        EXPECT_FALSE(event.detail.empty()) << "blocks must name the blocking mechanism";
        break;
      case EventKind::kInfection:
        if (event.detail == "seed") {
          EXPECT_EQ(event.peer, kInvalidPhoneId);
        } else if (event.detail == "mms") {
          EXPECT_TRUE(infected.count(event.peer))
              << "infector " << event.peer << " was never traced as infected";
          auto it = delivered.find(event.message);
          ASSERT_NE(it, delivered.end())
              << "infection via message " << event.message << " that was never delivered";
          EXPECT_TRUE(it->second.count(event.phone))
              << "message " << event.message << " was not delivered to victim " << event.phone;
        }
        infected.insert(event.phone);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(infected.size(), result.total_infected);
}

TEST(Analysis, ReconstructsGenerationsAndAttribution) {
  // Hand-built tree: seed 0 infects 1 and 2 (gen 1); 1 infects 3
  // (gen 2). One message from 2 is blocked by "gateway-scan" with two
  // prospective recipients — a truncated chain. Phone 9's infector
  // never appears: an orphan root.
  std::vector<Event> events;
  Event seed = make_event(0.0, EventKind::kInfection, 0);
  seed.detail = "seed";
  events.push_back(seed);

  auto infect = [](double hours, PhoneId victim, PhoneId infector, std::uint64_t msg,
                   const char* channel) {
    Event e = make_event(hours, EventKind::kInfection, victim);
    e.peer = infector;
    e.message = msg;
    e.detail = channel;
    return e;
  };
  Event sent1 = make_event(0.5, EventKind::kMessageSent, 0);
  sent1.message = 1;
  sent1.value = 2;
  events.push_back(sent1);
  events.push_back(infect(1.0, 1, 0, 1, "mms"));
  events.push_back(infect(2.0, 2, 0, 1, "mms"));
  events.push_back(infect(6.0, 3, 1, 2, "mms"));
  events.push_back(infect(7.0, 9, 77, 3, "bluetooth"));  // infector 77 unknown

  Event blocked = make_event(8.0, EventKind::kMessageBlocked, 2);
  blocked.message = 4;
  blocked.value = 2;
  blocked.detail = "gateway-scan";
  events.push_back(blocked);
  Event detected = make_event(9.0, EventKind::kDetectabilityCrossed, kInvalidPhoneId);
  events.push_back(detected);

  TreeStats stats = analyze(events);
  EXPECT_EQ(stats.infections, 5u);
  EXPECT_EQ(stats.seeds, 1u);
  EXPECT_EQ(stats.orphans, 1u);
  EXPECT_EQ(stats.max_generation, 2u);
  EXPECT_EQ(stats.infections_via_mms, 3u);
  EXPECT_EQ(stats.infections_via_bluetooth, 1u);
  EXPECT_EQ(stats.detected_at, SimTime::hours(9.0));

  ASSERT_EQ(stats.generations.size(), 3u);
  EXPECT_EQ(stats.generations[0].infections, 2u);  // seed + orphan root
  EXPECT_EQ(stats.generations[1].infections, 2u);
  EXPECT_EQ(stats.generations[2].infections, 1u);
  // Gen 0 (seed + orphan) caused the two gen-1 infections: R = 1.0.
  EXPECT_DOUBLE_EQ(stats.generations[0].effective_r, 1.0);
  EXPECT_DOUBLE_EQ(stats.generations[1].effective_r, 0.5);
  EXPECT_DOUBLE_EQ(stats.generations[2].effective_r, 0.0);

  ASSERT_EQ(stats.mechanism_blocks.size(), 1u);
  EXPECT_EQ(stats.mechanism_blocks[0].mechanism, "gateway-scan");
  EXPECT_EQ(stats.mechanism_blocks[0].messages_blocked, 1u);
  EXPECT_EQ(stats.mechanism_blocks[0].chains_truncated, 1u)
      << "sender 2 is an infected tree node, so the block truncated a chain";
  EXPECT_EQ(stats.mechanism_blocks[0].recipients_spared, 2u);

  std::ostringstream report;
  write_report(stats, report);
  EXPECT_NE(report.str().find("gateway-scan"), std::string::npos);
  EXPECT_NE(report.str().find("generation"), std::string::npos);
}

/// Runs `config` once with an uncapped trace and checks the trace's
/// tree statistics against the replication's counters.
void expect_trace_matches_counters(const core::ScenarioConfig& config,
                                   std::uint64_t replication_seed) {
  TraceBuffer buffer = TraceBuffer::unbounded();
  core::Simulation sim(config, replication_seed, &buffer);
  core::ReplicationResult result = sim.run();
  const metrics::Snapshot& counters = result.metrics;

  TreeStats stats = analyze(buffer.events());
  EXPECT_EQ(stats.infections, result.total_infected);
  EXPECT_EQ(stats.seeds, config.initial_infected);
  EXPECT_EQ(stats.orphans, 0u) << "an unbounded trace loses no infectors";
  EXPECT_EQ(stats.messages_sent, counters.counter_value("net.messages_submitted"));
  EXPECT_EQ(stats.messages_blocked, counters.counter_value("net.messages_blocked"));
  EXPECT_LE(stats.messages_delivered, counters.counter_value("net.recipients_delivered"))
      << "recipients are counted at routing; deliveries happen after the transit delay";
  EXPECT_EQ(stats.detected_at, result.detected_at);
  if (counters.counter_value("net.messages_blocked") > 0) {
    ASSERT_FALSE(stats.mechanism_blocks.empty());
    std::uint64_t attributed = 0;
    for (const MechanismBlockRow& row : stats.mechanism_blocks) {
      attributed += row.messages_blocked;
    }
    EXPECT_EQ(attributed, counters.counter_value("net.messages_blocked"))
        << "every block must be attributed to exactly one mechanism";
  }
}

TEST(Analysis, AgreesWithSimulationTotals) {
  core::ScenarioConfig config = traced_scenario();
  config.responses.gateway_scan = response::GatewayScanConfig{};
  expect_trace_matches_counters(config, 202);
}

/// Every preset by name, then every shipped scenarios/*.json by file
/// name.
std::vector<std::string> shipped_configs() {
  std::vector<std::string> names;
  for (const cli::PresetEntry& preset : cli::list_presets()) names.push_back(preset.name);
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::filesystem::path(MVSIM_SOURCE_DIR) / "scenarios")) {
    if (entry.path().extension() == ".json") files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  names.insert(names.end(), files.begin(), files.end());
  return names;
}

class ShippedConfigTrace : public ::testing::TestWithParam<std::string> {};

TEST_P(ShippedConfigTrace, AgreesWithSimulationTotals) {
  const std::string& name = GetParam();
  const std::filesystem::path file = std::filesystem::path(MVSIM_SOURCE_DIR) / "scenarios" / name;
  const core::ScenarioConfig scenario = file.extension() == ".json"
                                            ? config::load_scenario_file(file.string())
                                            : *cli::find_preset(name);
  expect_trace_matches_counters(scenario, 1);
}

INSTANTIATE_TEST_SUITE_P(Shipped, ShippedConfigTrace, ::testing::ValuesIn(shipped_configs()),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           std::string id = param_info.param;
                           for (char& c : id) {
                             if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
                           }
                           return id;
                         });

TEST(Export, JsonlRoundTripIsLossless) {
  TraceBuffer buffer(100);
  Event infection = make_event(1.25, EventKind::kInfection, 7);
  infection.peer = 3;
  infection.message = 12;
  infection.detail = "mms";
  buffer.record(infection);
  Event blocked = make_event(2.75, EventKind::kMessageBlocked, 3);
  // Ids above 2^53 still read back exactly (the reader's range is u64).
  blocked.message = (std::uint64_t{1} << 60) + 4096;
  blocked.value = 4;
  blocked.detail = "blacklist";
  buffer.record(blocked);
  buffer.record(make_event(3.5, EventKind::kDetectabilityCrossed, kInvalidPhoneId));

  std::ostringstream out;
  write_jsonl(buffer, out);
  LoadedTrace loaded = read_trace(out.str());
  EXPECT_EQ(loaded.meta.capacity, 100u);
  EXPECT_EQ(loaded.meta.dropped, 0u);
  ASSERT_EQ(loaded.events.size(), buffer.events().size());
  for (std::size_t i = 0; i < loaded.events.size(); ++i) {
    EXPECT_EQ(loaded.events[i], buffer.events()[i]) << "event " << i;
  }
}

/// The JSONL writer before it appended lines directly: a meta record
/// and one json::Object tree per event, stringified. Kept as the
/// reference the direct writer must match byte for byte.
std::string reference_jsonl(const TraceBuffer& buffer) {
  json::Object meta;
  meta.set("type", json::Value("mvsim-trace"));
  meta.set("version", json::Value(1));
  meta.set("capacity",
           json::Value(buffer.capacity() == std::numeric_limits<std::size_t>::max()
                           ? std::uint64_t{0}
                           : static_cast<std::uint64_t>(buffer.capacity())));
  meta.set("dropped", json::Value(buffer.dropped()));
  std::string out = json::stringify(json::Value(std::move(meta)), 0) + "\n";
  for (const Event& event : buffer.events()) {
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
    out += json::stringify(json::Value(std::move(fields)), 0) + "\n";
  }
  return out;
}

TEST(Export, JsonlWriterMatchesTheTreeRendererByteForByte) {
  std::mt19937_64 rng(20070625);
  std::exponential_distribution<double> minutes(1.0 / 600.0);
  const EventKind kinds[] = {EventKind::kMessageSent,     EventKind::kMessageBlocked,
                             EventKind::kMessageDelivered, EventKind::kInfection,
                             EventKind::kPatchApplied,     EventKind::kReboot,
                             EventKind::kDetectabilityCrossed, EventKind::kMechanismAction};
  // Details that need escaping: quotes, backslashes, control bytes and
  // multi-byte UTF-8 next to the plain mechanism and channel names.
  const std::string details[] = {"",
                                 "mms",
                                 "blacklist",
                                 "monitoring:flagged",
                                 "quote\"d\\back",
                                 "tab\tnew\nline\r",
                                 std::string("ctl\x01\x1f\b\f", 7),
                                 "caf\xc3\xa9 \xe2\x9c\x93"};
  // One chance in four that a field holds its sentinel (and is omitted).
  const auto sentinel = [&rng] { return rng() % 4 == 0; };
  TraceBuffer buffer(40000);
  for (int i = 0; i < 50000; ++i) {
    Event event;
    event.time = SimTime::minutes(i % 5 == 0 ? std::floor(minutes(rng)) : minutes(rng));
    event.kind = kinds[rng() % 8];
    if (!sentinel()) event.phone = static_cast<PhoneId>(rng() % 2000000);
    if (!sentinel()) event.peer = static_cast<PhoneId>(rng() % 2000000);
    if (!sentinel()) {
      // Ids up to 2^54: past 2^53 the double conversion rounds.
      event.message = (rng() % 1000000) + (rng() % 64) * (std::uint64_t{1} << 48);
    }
    if (!sentinel()) event.value = static_cast<std::uint32_t>(rng() % 40);
    event.detail = details[rng() % 8];
    buffer.record(std::move(event));
  }
  ASSERT_EQ(buffer.dropped(), 10000u);
  TraceBuffer empty = TraceBuffer::unbounded();
  for (const TraceBuffer* traced : {&buffer, &empty}) {
    std::ostringstream out;
    write_jsonl(*traced, out);
    const std::string expected = reference_jsonl(*traced);
    std::istringstream actual_lines(out.str());
    std::istringstream expected_lines(expected);
    std::string a;
    std::string e;
    while (std::getline(expected_lines, e) && std::getline(actual_lines, a)) ASSERT_EQ(a, e);
    EXPECT_EQ(out.str().size(), expected.size());
  }
}

TEST(Export, ChromeTraceRoundTripIsLossless) {
  TraceBuffer buffer = TraceBuffer::unbounded();
  core::Simulation sim(traced_scenario(), 101, &buffer);
  (void)sim.run();
  ASSERT_GT(buffer.events().size(), 10u);

  std::ostringstream out;
  write_chrome_trace(buffer, out);
  LoadedTrace loaded = read_trace(out.str());
  EXPECT_EQ(loaded.meta.capacity, 0u) << "unbounded encodes as capacity 0";
  EXPECT_EQ(loaded.meta.dropped, 0u);
  ASSERT_EQ(loaded.events.size(), buffer.events().size());
  for (std::size_t i = 0; i < loaded.events.size(); ++i) {
    ASSERT_EQ(loaded.events[i], buffer.events()[i]) << "event " << i;
  }
}

TEST(Export, BothFormatsCarryDropCounts) {
  TraceBuffer buffer(2);
  for (int i = 0; i < 5; ++i) {
    buffer.record(make_event(static_cast<double>(i), EventKind::kInfection,
                             static_cast<PhoneId>(i)));
  }
  for (bool jsonl : {true, false}) {
    std::ostringstream out;
    if (jsonl) {
      write_jsonl(buffer, out);
    } else {
      write_chrome_trace(buffer, out);
    }
    LoadedTrace loaded = read_trace(out.str());
    EXPECT_EQ(loaded.meta.capacity, 2u);
    EXPECT_EQ(loaded.meta.dropped, 3u);
    EXPECT_EQ(loaded.events.size(), 2u);
  }
}

TEST(Export, RejectsMalformedInput) {
  EXPECT_THROW((void)read_trace(""), std::runtime_error);
  EXPECT_THROW((void)read_trace("{\"no\": \"events\"}\n{\"kind\": \"infection\"}\n"),
               std::runtime_error);  // second line lacks "t"
  EXPECT_THROW((void)read_trace("{\"t\": 1, \"kind\": \"warp-drive\"}\n"), std::runtime_error);
  EXPECT_THROW((void)read_trace_file("/nonexistent/trace.jsonl"), std::runtime_error);
}

// The golden tests pin bit-identical *results* under tracing; this
// pins the trace itself: same seed, same events, independent of the
// buffer's bound (the kept prefix matches).
TEST(Determinism, SameSeedSameTrace) {
  TraceBuffer full = TraceBuffer::unbounded();
  core::Simulation a(traced_scenario(), 303, &full);
  (void)a.run();
  TraceBuffer capped(50);
  core::Simulation b(traced_scenario(), 303, &capped);
  (void)b.run();
  ASSERT_EQ(capped.events().size(), 50u);
  EXPECT_EQ(capped.recorded(), full.recorded());
  for (std::size_t i = 0; i < capped.events().size(); ++i) {
    ASSERT_EQ(capped.events()[i], full.events()[i]) << "event " << i;
  }
}

}  // namespace
}  // namespace mvsim::trace
