// Event-dispatch layer between the simulation core and the response
// mechanisms.
//
// SimulationContext owns the detectability monitor and the set of
// mechanisms the registry built for the scenario, and it is the ONLY
// place that fans simulation events out to them: gateway traffic
// (submitted / blocked / delivered, via its GatewayObserver role),
// infection and patch events (via notify_*), the detectability
// crossing, and periodic ticks. Dispatch is always in registration
// order — the order ResponseRegistry::built_ins() fixes — which the
// golden tests pin down as bit-identical to the pre-refactor wiring.
//
// The core interacts with mechanisms only through this class; it never
// names a concrete mechanism type.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "des/scheduler.h"
#include "metrics/registry.h"
#include "net/gateway.h"
#include "response/detectability.h"
#include "response/mechanism.h"
#include "response/registry.h"
#include "response/suite.h"
#include "virus/sending_process.h"

namespace mvsim::core {

class SimulationContext final : public net::GatewayObserver {
 public:
  /// Builds the detectability monitor and every enabled mechanism (in
  /// registry order). Nothing is wired yet — call attach().
  ///
  /// `defer_detection` puts the monitor in deferred (count-only) mode
  /// for per-shard contexts of a sharded run, where the crossing is a
  /// global decision the barrier coordinator makes (see
  /// response::DetectabilityMonitor and core/sharded_simulation.h).
  SimulationContext(const response::ResponseSuiteConfig& suite,
                    const response::ResponseRegistry& registry, bool defer_detection = false);

  /// Wires the built mechanisms into a simulation: registers the
  /// detector and this dispatcher as gateway observers, runs every
  /// mechanism's on_build, registers delivery-filter and
  /// outgoing-policy roles, and schedules recurring ticks. Call once.
  ///
  /// `build.detector` is filled in here; the other fields must be set
  /// by the caller.
  void attach(net::Gateway& gateway, virus::SendingEnvironment& sending_env,
              response::BuildContext build);

  /// A phone became infected / a patch landed; fans out to on_infection
  /// / on_patch.
  void notify_infection(net::PhoneId phone, SimTime now);
  void notify_patch(net::PhoneId phone, SimTime now);

  [[nodiscard]] response::DetectabilityMonitor& detector() { return *detector_; }
  [[nodiscard]] const response::DetectabilityMonitor& detector() const { return *detector_; }
  [[nodiscard]] const std::vector<std::unique_ptr<response::ResponseMechanism>>& mechanisms()
      const {
    return mechanisms_;
  }
  /// nullptr when no enabled mechanism has that name.
  [[nodiscard]] const response::ResponseMechanism* find(std::string_view name) const;

  /// Publishes the dispatch layer's own telemetry (`core.dispatch.*`)
  /// and every mechanism's `response.<name>.*` counters (via the
  /// on_metrics hook) into `registry`. Observation-only.
  void collect_metrics(metrics::Registry& registry) const;

  // GatewayObserver — forwards gateway traffic to every mechanism.
  void on_submitted(const net::MmsMessage& message, SimTime now) override;
  void on_blocked(const net::MmsMessage& message, const char* blocked_by, SimTime now) override;
  void on_delivered(net::PhoneId recipient, const net::MmsMessage& message,
                    SimTime now) override;

 private:
  void schedule_tick(response::ResponseMechanism* mechanism, SimTime period);
  /// One dispatched event fanning out to a hook's subscriber list;
  /// non-subscribers are counted as skipped virtual calls.
  void count_dispatch(std::size_t subscribers) {
    ++dispatch_events_;
    dispatch_hook_calls_ += subscribers;
    dispatch_hooks_skipped_ += mechanisms_.size() - subscribers;
  }

  std::unique_ptr<response::DetectabilityMonitor> detector_;
  std::vector<std::unique_ptr<response::ResponseMechanism>> mechanisms_;
  des::Scheduler* scheduler_ = nullptr;
  bool attached_ = false;

  // Per-hook subscriber lists, precomputed at attach() from each
  // mechanism's subscribed_hooks() mask (registration order preserved
  // within each list). Dispatch walks these instead of virtual-calling
  // every mechanism's (usually no-op) default hook.
  std::vector<response::ResponseMechanism*> submitted_subs_;
  std::vector<response::ResponseMechanism*> blocked_subs_;
  std::vector<response::ResponseMechanism*> delivered_subs_;
  std::vector<response::ResponseMechanism*> infection_subs_;
  std::vector<response::ResponseMechanism*> patch_subs_;
  std::vector<response::ResponseMechanism*> detect_subs_;

  // Telemetry (`core.dispatch.*`): events fanned out, total
  // mechanism-hook invocations, and hook calls the subscription masks
  // avoided. Plain counters; never feed back into the simulation.
  std::uint64_t dispatch_events_ = 0;
  std::uint64_t dispatch_hook_calls_ = 0;
  std::uint64_t dispatch_hooks_skipped_ = 0;
};

}  // namespace mvsim::core
