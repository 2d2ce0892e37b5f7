// The traced pass: spans around the benchmark's own calls into each
// layer, the program's per-replication counters, standalone graph
// timings and the per-layer cost ladder. Nothing here is inside the
// program: every span wraps a public function.
#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "core/runner.h"
#include "core/sharded_simulation.h"
#include "core/topology_build.h"
#include "des/scheduler.h"
#include "graph/partition.h"
#include "metrics/report.h"
#include "net/gateway.h"
#include "net/shard_mailbox.h"
#include "phone/consent.h"
#include "rng/seed.h"
#include "util/json.h"

namespace perfbench {
namespace {

using des::EventType;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Benchmark-owned per-event timer, handed to the Simulation
/// constructor (the scheduler's public profiling hook).
class TypeTimer final : public des::EventTimer {
 public:
  void record_event(EventType type, double micros) override {
    const auto i = static_cast<std::size_t>(type);
    ++count[i];
    micros_total[i] += micros;
  }
  std::array<std::uint64_t, des::kEventTypeCount> count{};
  std::array<double, des::kEventTypeCount> micros_total{};
};

/// Span totals over every traced experiment, summed over replications.
struct Spans {
  std::size_t reps = 0;
  double wall_ms = 0.0;
  double build_ms = 0.0;
  double run_ms = 0.0;
  double collect_ms = 0.0;
  std::array<std::uint64_t, des::kEventTypeCount> event_count{};
  std::array<double, des::kEventTypeCount> event_ms{};
  // Sharded window spans (from the stats observer).
  std::vector<double> window_ms;
  std::uint64_t windows = 0;
  std::uint64_t empty_windows = 0;
  double barrier_wait_ms = 0.0;
  double imbalance_sum = 0.0;
  /// Counters of the last experiment (deterministic in the seed).
  metrics::Snapshot counters;
};

/// One replication on the sharded engine, window spans from the stats
/// observer and per-event time from the engine's own profiler.
core::ReplicationResult traced_sharded_rep(const Prepared& p, const core::ScenarioConfig& config,
                                           std::uint64_t seed, Spans& spans) {
  core::ShardingOptions sharding;
  sharding.shards = p.shards;
  sharding.worker_threads = kShardWorkers;
  sharding.profile = true;
  const auto t0 = Clock::now();
  core::ShardedSimulation sim(config, seed, sharding, des::QueueImpl::kWheel,
                              p.graph_cache.get());
  auto last = Clock::now();
  spans.build_ms += ms_between(t0, last);
  std::uint64_t last_events = 0;
  sim.set_stats_observer([&](const core::ShardedSimulation::ShardWindowSample& w) {
    const auto now = Clock::now();
    spans.window_ms.push_back(ms_between(last, now));
    last = now;
    ++spans.windows;
    if (w.events_executed == last_events) ++spans.empty_windows;
    last_events = w.events_executed;
    spans.barrier_wait_ms += w.barrier_wait_ms;
    if (w.last && !w.shards.empty()) {
      std::uint64_t max = 0;
      std::uint64_t sum = 0;
      for (const auto& s : w.shards) {
        max = std::max(max, s.events_executed);
        sum += s.events_executed;
      }
      if (sum > 0) {
        spans.imbalance_sum += static_cast<double>(max) * static_cast<double>(w.shards.size()) /
                               static_cast<double>(sum);
      }
    }
  });
  const auto t1 = Clock::now();
  core::ReplicationResult result = sim.run();  // collect is folded into run()
  spans.run_ms += ms_between(t1, Clock::now());
  for (std::size_t i = 0; i < des::kEventTypeCount; ++i) {
    const std::string name =
        std::string("prof.event.") + des::to_string(static_cast<EventType>(i));
    if (const auto* h = result.metrics.find_histogram(name)) {
      spans.event_count[i] += h->count;
      spans.event_ms[i] += h->sum / 1e3;
    }
  }
  return result;
}

/// One traced experiment: the same replications and seeds as the
/// untraced one, with a span around each layer call.
ExperimentRun traced_experiment(const Prepared& p, const Options& options, Spans& spans) {
  ExperimentRun run;
  metrics::Snapshot merged;
  const auto started = Clock::now();
  for (const core::ScenarioConfig& config : p.scenarios) {
    std::vector<core::ReplicationResult> results;
    TypeTimer timer;
    for (int r = 0; r < p.reps; ++r) {
      const std::uint64_t seed = rng::derive_seed(options.seed, static_cast<unsigned>(r));
      if (p.shards > 1) {
        results.push_back(traced_sharded_rep(p, config, seed, spans));
        continue;
      }
      const auto t0 = Clock::now();
      core::Simulation sim(config, seed, nullptr, &timer, des::QueueImpl::kWheel,
                           p.graph_cache.get());
      const auto t1 = Clock::now();
      sim.run_until(config.horizon);
      const auto t2 = Clock::now();
      results.push_back(sim.result());
      const auto t3 = Clock::now();
      spans.build_ms += ms_between(t0, t1);
      spans.run_ms += ms_between(t1, t2);
      spans.collect_ms += ms_between(t2, t3);
    }
    for (std::size_t i = 0; i < des::kEventTypeCount; ++i) {
      spans.event_count[i] += timer.count[i];
      spans.event_ms[i] += timer.micros_total[i] / 1e3;
    }
    for (const core::ReplicationResult& r : results) merged.merge(r.metrics);
    auto& outcomes = run.outcomes.emplace_back();
    for (const auto& r : results) outcomes.push_back(outcome_of(r, config));
  }
  run.wall_s = seconds_since(started);
  spans.wall_ms += run.wall_s * 1e3;
  spans.reps += static_cast<std::size_t>(p.reps) * p.scenarios.size();
  spans.counters = std::move(merged);
  return run;
}

// ---- Layer cost ladder: ns per operation through public functions ----

/// Hold model at a fixed queue depth: every event reschedules itself,
/// so each executed event is one pop plus one schedule.
double scheduler_op_ns(std::size_t depth) {
  constexpr std::uint64_t kOps = 400000;
  des::Scheduler scheduler;
  rng::Stream stream(17);
  std::vector<double> delays(4096);
  for (double& d : delays) d = stream.exponential(static_cast<double>(depth));
  struct Hold {
    des::Scheduler* scheduler;
    const std::vector<double>* delays;
    std::uint64_t remaining;
    std::size_t next = 0;
  } hold{&scheduler, &delays, kOps};
  struct Fire {
    Hold* h;
    void operator()() const {
      if (h->remaining == 0) return;
      --h->remaining;
      const double d = (*h->delays)[h->next++ & 4095];
      h->scheduler->schedule_after(SimTime::minutes(d), EventType::kGeneric, Fire{h});
    }
  };
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
    scheduler.schedule_at(SimTime::minutes(delays[i & 4095]), EventType::kGeneric, Fire{&hold});
  }
  const std::uint64_t before = scheduler.executed_count();
  const auto t0 = Clock::now();
  scheduler.run_to_quiescence();
  const double ns = ms_between(t0, Clock::now()) * 1e6;
  return ns / static_cast<double>(scheduler.executed_count() - before);
}

double rng_draw_ns() {
  constexpr int kDraws = 4'000'000;
  rng::Stream stream(23);
  double sink = 0.0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kDraws; ++i) sink += stream.uniform01();
  const double ns = ms_between(t0, Clock::now()) * 1e6 / kDraws;
  return sink >= 0.0 ? ns : -ns;  // keeps the loop observable
}

/// A read decision: acceptance probability for the n-th infected
/// message, then the Bernoulli draw.
double consent_ns() {
  constexpr int kDecisions = 2'000'000;
  const phone::ConsentModel consent;
  rng::Stream stream(29);
  std::uint64_t accepted = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kDecisions; ++i) {
    accepted += stream.bernoulli(consent.acceptance_probability(i % 12 + 1)) ? 1u : 0u;
  }
  const double ns = ms_between(t0, Clock::now()) * 1e6 / kDecisions;
  return accepted <= static_cast<std::uint64_t>(kDecisions) ? ns : -ns;
}

/// Gateway::submit with `recipients` valid recipients per message and
/// no filters; deliveries are drained outside the timed region.
double gateway_submit_ns(std::size_t recipients) {
  constexpr int kBatch = 2000;
  constexpr int kBatches = 40;
  des::Scheduler scheduler;
  rng::Stream stream(31);
  net::Gateway gateway(scheduler, stream, SimTime::minutes(1.0));
  std::uint64_t delivered = 0;
  gateway.set_delivery_callback([&delivered](PhoneId, const net::MmsMessage&) { ++delivered; });
  double total_ms = 0.0;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<net::MmsMessage> batch(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      batch[static_cast<std::size_t>(i)].sender = static_cast<PhoneId>(i);
      batch[static_cast<std::size_t>(i)].infected = true;
      for (std::size_t k = 0; k < recipients; ++k) {
        batch[static_cast<std::size_t>(i)].recipients.push_back(
            {static_cast<PhoneId>((static_cast<std::size_t>(i) + k + 1) % 1000), true});
      }
    }
    const auto t0 = Clock::now();
    for (net::MmsMessage& m : batch) gateway.submit(std::move(m));
    total_ms += ms_between(t0, Clock::now());
    scheduler.run_to_quiescence();
  }
  return total_ms * 1e6 / (kBatch * kBatches);
}

/// ShardMailboxGrid push plus drain, per entry, on a 4-shard grid.
double mailbox_ns() {
  constexpr std::uint32_t kShards = 4;
  constexpr int kPerRound = 20000;
  constexpr int kRounds = 20;
  net::ShardMailboxGrid grid(kShards);
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kPerRound; ++i) {
      const auto u = static_cast<std::uint32_t>(i);
      net::CrossShardDelivery d;
      d.at = SimTime::minutes(static_cast<double>(round));
      d.recipient = u;
      d.sender = u + 1;
      grid.push(u % kShards, (u / kShards) % kShards, d);
    }
    for (std::uint32_t dst = 0; dst < kShards; ++dst) {
      grid.drain_to(dst, [&sink](const net::CrossShardDelivery& d) { sink += d.recipient; });
    }
  }
  const double ns = ms_between(t0, Clock::now()) * 1e6 / (kPerRound * kRounds);
  return sink > 0 ? ns : -ns;
}

std::uint64_t file_bytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

json::Value read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return json::parse(text.str());
}

/// Per-layer figures of the `mvsim run` artifact path, read back from
/// the files the last observed experiment wrote.
void observed_layers(const Options& options, Report& report) {
  const std::string& out = options.out_dir;
  const metrics::Snapshot snapshot = metrics::snapshot_from_json(read_json(out + "/metrics.json"));
  double event_ms = 0.0;
  double run_ms = 0.0;
  for (const auto& h : snapshot.histograms) {
    if (h.name.rfind("prof.event.", 0) == 0) event_ms += h.sum / 1e3;
    if (h.name == "prof.phase.run_ms") run_ms = h.sum;
  }
  report.add("prof.coverage_frac", run_ms > 0.0 ? event_ms / run_ms : 0.0, "ratio");
  // JSONL trace: a header record carrying the drop count, then one
  // line per recorded event.
  std::uint64_t events = 0;
  double dropped = 0.0;
  {
    std::ifstream trace(out + "/trace.jsonl");
    std::string line;
    if (std::getline(trace, line)) dropped = json::parse(line).as_object().at("dropped").as_number();
    while (std::getline(trace, line)) events += line.empty() ? 0u : 1u;
  }
  report.add("trace.events_recorded", static_cast<double>(events), "count");
  report.add("trace.events_dropped", dropped, "count");
  const json::Value manifest = read_json(out + "/manifest.json");
  report.add("artifact.write_ms",
             manifest.as_object().at("phases").as_object().at("write_seconds").as_number() * 1e3,
             "ms");
  std::uint64_t bytes = 0;
  for (const char* name :
       {"profile.json", "trace.jsonl", "stats.ndjson", "metrics.json", "manifest.json"}) {
    bytes += file_bytes(out + "/" + name);
  }
  report.add("artifact.bytes", static_cast<double>(bytes), "B");
}

}  // namespace

Report run_traced(const Prepared& p, const Options& options, const Pins* pins) {
  Report report;
  const double share = options.seconds / (p.observed ? 3.0 : 2.0);
  const auto walls_into = [](std::vector<double>& walls) {
    return [&walls](const ExperimentRun& run) { walls.push_back(run.wall_s); };
  };

  // Untraced reference on the plain runner path (after one warm-up),
  // then the traced pass with the same seeds. The runner's own share of
  // each plain call (validation, cache look-up, engine teardown and
  // aggregation) is the call's wall time minus its replications' wall
  // times.
  const auto plain_experiment = [&] { return run_plain_experiment(p, options); };
  std::vector<double> plain;
  std::vector<double> runner_ms;
  const bool plain_ok =
      repeat_checked(p, pins, 0.0, report, plain_experiment, [](const ExperimentRun&) {}) &&
      repeat_checked(p, pins, share, report, plain_experiment, [&](const ExperimentRun& run) {
        plain.push_back(run.wall_s);
        double ms = run.wall_s * 1e3;
        for (const double rep_ms : run.rep_wall_ms) ms -= rep_ms;
        runner_ms.push_back(ms / static_cast<double>(run.call_s.size()));
      });
  if (!plain_ok) return report;
  Spans spans;
  std::vector<double> traced;
  if (!repeat_checked(p, pins, share, report, [&] { return traced_experiment(p, options, spans); },
                      walls_into(traced))) {
    return report;
  }
  std::vector<double> observed;
  if (p.observed && !repeat_checked(p, pins, share, report,
                                    [&] { return run_experiment_once(p, options); },
                                    walls_into(observed))) {
    return report;
  }

  const double reps = static_cast<double>(std::max<std::size_t>(spans.reps, 1));
  const metrics::Snapshot& c = spans.counters;
  const double per_rep =
      1.0 / (static_cast<double>(p.reps) * static_cast<double>(p.scenarios.size()));
  auto count = [&](const char* name) { return static_cast<double>(c.counter_value(name)) * per_rep; };

  // core
  report.add("core.build_ms", spans.build_ms / reps, "ms");
  report.add("core.run_ms", spans.run_ms / reps, "ms");
  report.add("core.collect_ms", spans.collect_ms / reps, "ms");
  report.add("core.aggregate_ms", median(runner_ms), "ms", runner_ms.size());
  const double events = count("des.events_executed");
  const double run_ms = spans.run_ms / reps;
  report.add("core.events_per_s", run_ms > 0.0 ? events / (run_ms / 1e3) : 0.0, "1/s");
  report.add("core.span_coverage_frac",
             (spans.build_ms + spans.run_ms + spans.collect_ms) / spans.wall_ms, "ratio");
  const double hook_calls = count("core.dispatch.hook_calls");
  const double hooks_skipped = count("core.dispatch.hooks_skipped");
  report.add("core.dispatch.hook_calls", hook_calls, "count");
  report.add("core.dispatch.hooks_skipped", hooks_skipped, "count");
  report.add("core.dispatch.useful_frac",
             hook_calls + hooks_skipped > 0 ? hook_calls / (hook_calls + hooks_skipped) : 0.0,
             "ratio");

  // graph: standalone calls, each timed on its own.
  const core::ScenarioConfig& first = p.scenarios[0];
  {
    std::vector<double> build_ms;
    graph::ContactGraph g(1);
    for (int i = 0; i < 3; ++i) {
      rng::Stream stream(core::topology_build_seed(first, rng::derive_seed(options.seed, 0)));
      const auto t0 = Clock::now();
      g = core::build_graph_for(first, stream);
      build_ms.push_back(ms_between(t0, Clock::now()));
    }
    const double ms = median(build_ms);
    report.add("graph.build_ms", ms, "ms");
    report.add("graph.ns_per_edge", ms * 1e6 / static_cast<double>(std::max<std::size_t>(g.edge_count(), 1)), "ns");
    report.add("graph.bytes", static_cast<double>(g.memory_bytes()), "B");
    double prewarm_ms = 0.0;
    double partition_ms = 0.0;
    if (first.topology.shared_seed) {
      graph::GraphCache cache;
      const auto t0 = Clock::now();
      core::prewarm_shared_graph(first, cache);
      prewarm_ms = ms_between(t0, Clock::now());
    }
    if (p.shards > 1) {
      const auto t0 = Clock::now();
      (void)graph::Partition::degree_balanced(g, p.shards);
      partition_ms = ms_between(t0, Clock::now());
    }
    report.add("graph.prewarm_ms", prewarm_ms, "ms");
    report.add("graph.partition_ms", partition_ms, "ms");
  }

  // des
  const double scheduled = count("des.events_scheduled");
  report.add("des.events_executed", events, "count");
  report.add("des.events_scheduled", scheduled, "count");
  report.add("des.events_cancelled", count("des.events_cancelled"), "count");
  const auto* depth = c.find_gauge("des.queue_depth_peak");
  const double depth_peak = depth != nullptr ? static_cast<double>(depth->peak) : 0.0;
  report.add("des.queue_depth_peak", depth_peak, "count");
  report.add("des.useful_frac", scheduled > 0 ? events / scheduled : 0.0, "ratio");
  const double op_ns = scheduler_op_ns(static_cast<std::size_t>(depth_peak));
  report.add("des.op_ns", op_ns, "ns");

  // per event type
  double attributed_ms = 0.0;
  for (const EventType type :
       {EventType::kVirusSend, EventType::kMessageDelivery, EventType::kPhoneRead,
        EventType::kResponseActivation, EventType::kMobilityMove, EventType::kBluetoothScan}) {
    report.add(std::string("event.") + des::to_string(type) + ".ms",
               spans.event_ms[static_cast<std::size_t>(type)] / reps, "ms");
  }
  for (double ms : spans.event_ms) attributed_ms += ms;
  report.add("event.unattributed_ms", std::max(0.0, (spans.run_ms - attributed_ms) / reps), "ms");

  // virus / net / phone / rng
  const double submitted = count("net.messages_submitted");
  const double delivered = count("net.recipients_delivered");
  report.add("net.messages_submitted", submitted, "count");
  report.add("net.recipients_delivered", delivered, "count");
  report.add("net.messages_blocked", count("net.messages_blocked"), "count");
  const std::size_t fanout =
      submitted > 0 ? static_cast<std::size_t>(std::max(1.0, std::round(delivered / submitted))) : 1;
  const double submit_ns = gateway_submit_ns(fanout);
  report.add("net.submit_ns", submit_ns, "ns");
  const double consent = consent_ns();
  report.add("phone.consent_ns", consent, "ns");
  const double draws = count("rng.draws");
  const double draw_ns = rng_draw_ns();
  report.add("rng.draws", draws, "count");
  report.add("rng.draw_ns", draw_ns, "ns");

  // response / mobility
  for (const char* name : {"response.gateway_scan.messages_blocked", "core.bluetooth_push_attempts"}) {
    report.add(name, count(name), "count");
  }

  // shard
  const double mailbox_sent = count("shard.mailbox.sent");
  report.add("shard.windows", static_cast<double>(spans.windows) / reps, "count");
  report.add("shard.empty_windows", static_cast<double>(spans.empty_windows) / reps, "count");
  report.add("shard.window_ms_p50", quantile(spans.window_ms, 0.5), "ms");
  report.add("shard.window_ms_p90", quantile(spans.window_ms, 0.9), "ms");
  report.add("shard.barrier_wait_ms", spans.barrier_wait_ms / reps, "ms");
  report.add("shard.imbalance", spans.imbalance_sum / reps, "ratio");
  report.add("shard.mailbox.sent", mailbox_sent, "count");
  report.add("shard.mailbox.received", count("shard.mailbox.received"), "count");
  const double mailbox = mailbox_ns();
  report.add("shard.mailbox_ns", mailbox, "ns");

  // prof / trace / obs / cli (the observed workload only)
  if (p.observed) {
    report.add("obs.overhead_frac", min_of(observed) / min_of(plain) - 1.0, "ratio");
    observed_layers(options, report);
  } else {
    report.add("obs.overhead_frac", 0.0, "ratio");
    report.add("prof.coverage_frac", 0.0, "ratio");
    report.add("trace.events_recorded", 0.0, "count");
    report.add("trace.events_dropped", 0.0, "count");
    report.add("artifact.write_ms", 0.0, "ms");
    report.add("artifact.bytes", 0.0, "B");
  }

  // Budget: per-op costs times the run's counts, against the run span.
  const double phone_reads =
      static_cast<double>(spans.event_count[static_cast<std::size_t>(EventType::kPhoneRead)]) / reps;
  const double explained_ns = events * op_ns + draws * draw_ns + phone_reads * consent +
                              submitted * submit_ns + mailbox_sent * mailbox;
  report.add("layers.explained_frac", run_ms > 0.0 ? explained_ns / 1e6 / run_ms : 0.0, "ratio");
  report.add("bench.trace_overhead_frac", min_of(traced) / min_of(plain) - 1.0, "ratio");
  return report;
}

}  // namespace perfbench
