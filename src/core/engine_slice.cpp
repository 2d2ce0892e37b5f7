#include "core/engine_slice.h"

#include <algorithm>

#include "core/topology_build.h"
#include "response/registry.h"
#include "rng/seed.h"

namespace mvsim::core {

namespace {

/// Tag offset for per-shard seed derivation: shard s's streams hang off
/// derive_seed(replication_seed, kShardSeedTag + s, StreamIndex). The
/// offset keeps shard seeds far from the replication-level StreamIndex
/// values derived directly under the same replication seed.
constexpr std::uint64_t kShardSeedTag = 0x5aa4'd000'0000'0000ULL;

/// The serial slice uses the replication's own stream seeds; a shard's
/// are salted with its index.
std::uint64_t stream_seed(std::uint64_t replication_seed, std::uint32_t index, bool sharded,
                          StreamIndex stream) {
  return sharded ? rng::derive_seed(replication_seed, kShardSeedTag + index, stream)
                 : rng::derive_seed(replication_seed, stream);
}

}  // namespace

// ---- ReplicationState ----

ReplicationState::ReplicationState(const ScenarioConfig& config_in,
                                   std::uint64_t replication_seed_in,
                                   graph::GraphCache* graph_cache)
    : config(config_in),
      replication_seed(replication_seed_in),
      topology_stream(rng::derive_seed(replication_seed_in, kTopologyStream)),
      consent(response::consent_for_suite(config_in.responses, config_in.eventual_acceptance)) {
  config.validate().throw_if_invalid();
  graph = resolve_topology(config, replication_seed, topology_stream, graph_cache);
}

ReplicationState::~ReplicationState() = default;

EngineSlice& ReplicationState::owner_of(graph::PhoneId id) const {
  return partition == nullptr ? *slices.front() : *slices[partition->shard_of(id)];
}

void ReplicationState::populate(const graph::Partition* slice_partition) {
  partition = slice_partition;
  if (partition == nullptr) {
    phones = std::make_unique<phone::PhoneTable>(config.population, &slices.front()->phone_env());
  } else {
    std::vector<const phone::PhoneEnvironment*> envs;
    envs.reserve(slices.size());
    for (const auto& slice : slices) envs.push_back(&slice->phone_env());
    phones = std::make_unique<phone::PhoneTable>(config.population, std::move(envs),
                                                 partition->bounds());
  }

  // "800 are randomly designated as susceptible": sample without
  // replacement from the whole population.
  auto chosen =
      topology_stream.sample_without_replacement(config.population, config.susceptible_count());
  std::vector<bool> susceptible(config.population, false);
  for (auto id : chosen) susceptible[static_cast<std::size_t>(id)] = true;
  std::vector<graph::PhoneId> susceptible_ids;
  susceptible_ids.reserve(chosen.size());
  for (graph::PhoneId id = 0; id < config.population; ++id) {
    if (!susceptible[id]) continue;
    phones->set_susceptible(id, true);
    susceptible_ids.push_back(id);
    owner_of(id).patch_targets().push_back(id);
  }
  processes.resize(config.population);

  for (const auto& slice : slices) slice->attach();

  // Patient zero: uniformly random susceptible phones, infected at t=0
  // on their owner slice.
  auto picks = topology_stream.sample_without_replacement(susceptible_ids.size(),
                                                          config.initial_infected);
  for (auto pick : picks) {
    graph::PhoneId id = susceptible_ids[static_cast<std::size_t>(pick)];
    owner_of(id).scheduler().schedule_at(SimTime::zero(), des::EventType::kSeedInfection,
                                         [table = phones.get(), id] { table->force_infect(id); });
  }
}

ReplicationResult ReplicationState::result() const {
  ReplicationResult r;

  // K-way merge of the per-slice infection instants into one cumulative
  // step series (ties resolve lowest-slice-first; any fixed rule works —
  // the inputs are fixed per (seed, slices)).
  std::vector<std::size_t> cursor(slices.size(), 0);
  std::uint64_t cumulative = 0;
  while (true) {
    std::size_t best = slices.size();
    SimTime best_at = SimTime::infinity();
    for (std::size_t s = 0; s < slices.size(); ++s) {
      const auto& times = slices[s]->infection_times();
      if (cursor[s] < times.size() && times[cursor[s]] < best_at) {
        best_at = times[cursor[s]];
        best = s;
      }
    }
    if (best == slices.size()) break;
    ++cursor[best];
    ++cumulative;
    r.infections.push(best_at, static_cast<double>(cumulative));
  }

  for (const auto& slice : slices) r.total_infected += slice->infected_count();
  r.metrics = collect_metrics();
  return r;
}

metrics::Snapshot ReplicationState::collect_metrics() const {
  // Instruments merge commutatively, so the per-slice snapshots fold
  // into the same totals whatever the slice count.
  metrics::Registry shared;
  shared.counter("rng.draws").add(topology_stream.draw_count());
  metrics::Snapshot merged = shared.snapshot();
  for (const auto& slice : slices) merged.merge(slice->collect_metrics());
  return merged;
}

obs::RunSample ReplicationState::sample(SimTime at) const {
  obs::RunSample sample;
  sample.time = at;
  for (const auto& slice : slices) {
    sample.infected += slice->infected_count();
    sample.patched += slice->patched_infected() + slice->immunized_healthy();
    sample.messages_blocked += slice->gateway().counters().messages_blocked;
    sample.events_executed += slice->scheduler().executed_count();
    sample.queue_depth += slice->scheduler().pending_count();
  }
  return sample;
}

// ---- EngineSlice ----

EngineSlice::EngineSlice(ReplicationState& state, std::uint32_t index, const ShardLinks& links)
    : state_(state),
      index_(index),
      links_(links),
      user_stream_(stream_seed(state.replication_seed, index, sharded(), kUserStream)),
      virus_stream_(stream_seed(state.replication_seed, index, sharded(), kVirusStream)),
      net_stream_(stream_seed(state.replication_seed, index, sharded(), kNetStream)),
      response_stream_(stream_seed(state.replication_seed, index, sharded(), kResponseStream)),
      mobility_stream_(stream_seed(state.replication_seed, index, sharded(), kMobilityStream)),
      proximity_stream_(stream_seed(state.replication_seed, index, sharded(), kProximityStream)) {
  const ScenarioConfig& config = state_.config;
  gateway_ = std::make_unique<net::Gateway>(scheduler_, net_stream_, config.delivery_delay_mean);
  gateway_->set_delivery_callback([this](graph::PhoneId recipient, const net::MmsMessage& msg) {
    state_.phones->receive_infected_message(
        recipient, {msg.sender, msg.sequence, phone::InfectionChannel::kMms});
  });
  if (sharded()) gateway_->set_shard_router(this);

  phone_env_.scheduler = &scheduler_;
  phone_env_.user_stream = &user_stream_;
  phone_env_.consent = &state_.consent;
  phone_env_.read_delay_mean = config.read_delay_mean;
  phone_env_.decision_cutoff = config.decision_cutoff;
  phone_env_.listener = this;
}

EngineSlice::EngineSlice(ReplicationState& state, trace::TraceBuffer* trace,
                         des::EventTimer* event_timer)
    : EngineSlice(state, 0, ShardLinks{}) {
  scheduler_.set_event_timer(event_timer);
  trace_ = trace;
  if (trace_ == nullptr) return;
  // First observer on the gateway, so each submission's trace event
  // precedes any mechanism reaction to it. Observers are passive —
  // registering one more never perturbs RNG draws or event order.
  recorder_ = std::make_unique<trace::GatewayRecorder>(*trace_);
  gateway_->add_observer(*recorder_);
}

EngineSlice::EngineSlice(ReplicationState& state, std::uint32_t index, const ShardLinks& links,
                         bool profile)
    : EngineSlice(state, index, links) {
  if (profile) profiler_ = std::make_unique<prof::Profiler>();
  scheduler_.set_event_timer(profiler_.get());
}

EngineSlice::~EngineSlice() = default;

void EngineSlice::attach() {
  const ScenarioConfig& config = state_.config;
  // The registry decides which mechanisms exist; the context owns them
  // (plus the detectability monitor) and dispatches every simulation
  // event to them. On a shard every mechanism's state is keyed by
  // sender or gateway, and a phone only ever submits through its owner
  // shard's gateway, so per-shard instances partition the global state
  // without changing its semantics. Detectability is the one global
  // quantity: shards count in deferred mode and the coordinator decides
  // the crossing at window barriers.
  context_ = std::make_unique<SimulationContext>(
      config.responses, response::ResponseRegistry::built_ins(), /*defer_detection=*/sharded());

  sending_env_.scheduler = &scheduler_;
  sending_env_.virus_stream = &virus_stream_;
  sending_env_.gateway = gateway_.get();
  sending_env_.trace = trace_;

  response::BuildContext build;
  build.scheduler = &scheduler_;
  build.response_stream = &response_stream_;
  build.patch_targets = &patch_targets_;
  build.apply_patch = [this](net::PhoneId id) { on_patch_applied(id); };
  build.population = config.population;
  build.trace = trace_;
  context_->attach(*gateway_, sending_env_, std::move(build));

  if (config.proximity) {
    const ProximityChannelConfig& proximity = *config.proximity;
    proximity_grid_ = std::make_unique<mobility::MobilityGrid>(
        proximity.grid_width, proximity.grid_height, config.population);
    proximity_grid_->place_all_uniform(mobility_stream_);
    movement_ = std::make_unique<mobility::MovementProcess>(scheduler_, *proximity_grid_,
                                                            mobility_stream_,
                                                            proximity.dwell_mean);
  }

  if (trace_ != nullptr) {
    context_->detector().on_detected([this](SimTime at) {
      if (trace_->drop_if_full()) return;
      trace::Event event;
      event.time = at;
      event.kind = trace::EventKind::kDetectabilityCrossed;
      trace_->record(std::move(event));
    });
  }
}

void EngineSlice::on_phone_infected(phone::PhoneId id, const phone::InfectionSource& source) {
  infection_times_.push_back(scheduler_.now());
  if (trace_ != nullptr && !trace_->drop_if_full()) {
    trace::Event event;
    event.time = scheduler_.now();
    event.kind = trace::EventKind::kInfection;
    event.phone = id;
    event.peer = source.sender;
    event.message = source.message;
    event.detail = phone::to_string(source.channel);
    trace_->record(std::move(event));
  }
  context_->notify_infection(id, scheduler_.now());

  const ScenarioConfig& config = state_.config;
  std::unique_ptr<virus::Targeter> targeter;
  switch (config.virus.targeting) {
    case virus::TargetingMode::kContactList:
      targeter =
          std::make_unique<virus::ContactListTargeter>(state_.graph->contacts(id), virus_stream_);
      break;
    case virus::TargetingMode::kRandomDialing:
      targeter = std::make_unique<virus::RandomDialTargeter>(
          id, config.population, config.virus.valid_number_fraction, virus_stream_);
      break;
    case virus::TargetingMode::kNone:  // Bluetooth-only worm: no MMS arm
      break;
  }
  if (targeter) {
    auto& process = state_.processes[id];
    process = std::make_unique<virus::SendingProcess>(sending_env_, config.virus, *state_.phones,
                                                      id, std::move(targeter));
    process->start();
  }

  if (config.proximity) {
    scheduler_.schedule_after(config.virus.dormancy, des::EventType::kBluetoothScan,
                              [this, id] { schedule_bluetooth_scan(id); });
  }
}

void EngineSlice::schedule_bluetooth_scan(graph::PhoneId id) {
  scheduler_.schedule_after(
      proximity_stream_.exponential(state_.config.proximity->scan_interval_mean),
      des::EventType::kBluetoothScan, [this, id] {
        // A patch kills the worm outright. Blacklisting and monitoring
        // do NOT apply: the provider's MMS-side levers cannot touch
        // point-to-point Bluetooth transfers.
        if (state_.phones->propagation_stopped(id)) return;
        graph::PhoneId victim = 0;
        if (proximity_grid_->sample_co_located(id, proximity_stream_, victim)) {
          ++bluetooth_push_attempts_;
          state_.phones->receive_infected_message(
              victim, {id, net::kInvalidMessageId, phone::InfectionChannel::kBluetooth});
        }
        schedule_bluetooth_scan(id);
      });
}

void EngineSlice::on_patch_applied(graph::PhoneId id) {
  phone::PhoneTable& phones = *state_.phones;
  bool was_infected = phones.infected(id);
  bool was_patched = phones.patched(id);
  phones.apply_patch(id);
  if (was_patched) return;
  if (trace_ != nullptr && !trace_->drop_if_full()) {
    trace::Event event;
    event.time = scheduler_.now();
    event.kind = trace::EventKind::kPatchApplied;
    event.phone = id;
    trace_->record(std::move(event));
  }
  context_->notify_patch(id, scheduler_.now());
  if (was_infected) {
    ++patched_infected_;
    // Stop immediately, not at the next send attempt.
    if (state_.processes[id]) state_.processes[id]->stop();
  } else if (phones.state(id) == phone::HealthState::kImmunized) {
    ++immunized_healthy_;
  }
}

metrics::Snapshot EngineSlice::collect_metrics() const {
  metrics::Registry reg;
  reg.counter("des.events_scheduled").add(scheduler_.scheduled_count());
  reg.counter("des.events_executed").add(scheduler_.executed_count());
  reg.counter("des.events_cancelled").add(scheduler_.cancelled_count());
  reg.gauge("des.queue_depth_peak").set(scheduler_.peak_pending_count());

  const net::GatewayCounters& gc = gateway_->counters();
  reg.counter("net.messages_submitted").add(gc.messages_submitted);
  reg.counter("net.infected_messages_submitted").add(gc.infected_messages_submitted);
  reg.counter("net.messages_blocked").add(gc.messages_blocked);
  reg.counter("net.recipients_delivered").add(gc.recipients_delivered);
  reg.counter("net.invalid_recipients_dropped").add(gc.invalid_recipients_dropped);

  reg.counter("core.infections").add(infected_count());
  reg.counter("core.phones_immunized_healthy").add(immunized_healthy_);
  reg.counter("core.phones_patched_infected").add(patched_infected_);
  reg.counter("core.bluetooth_push_attempts").add(bluetooth_push_attempts_);

  reg.counter("rng.draws").add(user_stream_.draw_count() + virus_stream_.draw_count() +
                               net_stream_.draw_count() + response_stream_.draw_count() +
                               mobility_stream_.draw_count() + proximity_stream_.draw_count());

  context_->collect_metrics(reg);
  metrics::Snapshot snapshot = reg.snapshot();
  // Profiler histograms merge commutatively, like any other instrument.
  if (profiler_ != nullptr) snapshot.merge(profiler_->snapshot());
  return snapshot;
}

bool EngineSlice::route_remote(net::PhoneId recipient, const net::MmsMessage& message,
                               SimTime deliver_at) {
  const std::uint32_t dst = links_.partition->shard_of(recipient);
  if (dst == index_) return false;
  links_.mailbox->push(index_, dst,
                       {deliver_at, recipient, message.sender, message.sequence, message.infected});
  return true;
}

void EngineSlice::flush_staged() {
  for (const net::CrossShardDelivery& d : staged_) {
    scheduler_.schedule_at(d.at, des::EventType::kMessageDelivery, [this, d] {
      state_.phones->receive_infected_message(
          d.recipient, {d.sender, d.sequence, phone::InfectionChannel::kMms});
      // The local gateway's per-recipient on_delivered dispatch, so
      // core.dispatch.* telemetry and any delivery-subscribed mechanism
      // see cross-shard traffic too.
      net::MmsMessage& msg = remote_delivery_;
      msg.sender = d.sender;
      msg.sequence = d.sequence;
      msg.infected = d.infected;
      msg.recipients.assign(1, {d.recipient, true});
      context_->on_delivered(d.recipient, msg, scheduler_.now());
    });
  }
  staged_.clear();
  if (staged_detection_) {
    const SimTime at = *staged_detection_;
    staged_detection_.reset();
    scheduler_.schedule_at(at, des::EventType::kResponseActivation,
                           [this, at] { context_->detector().force_detect(at); });
  }
}

void EngineSlice::run_window(SimTime until, bool stamp) {
  flush_staged();
  scheduler_.run_until(until);
  if (stamp) window_finished_ = std::chrono::steady_clock::now();
}

}  // namespace mvsim::core
