// Event-type tags for the discrete-event scheduler.
//
// Every scheduled callback carries one of these tags so the profiler
// can attribute wall-clock time to the kind of work an event does
// ("where does the time go: deliveries? phone reads? virus sends?").
// The catalogue is FIXED — prof::Profiler registers one histogram per
// tag eagerly, and metrics::schema() lists the same names — so adding
// a tag here means adding it to prof/profiler.cpp and the schema too
// (tests/prof_test.cpp holds the three together).
//
// Tags are observation-only: they never influence ordering, RNG draws
// or anything else the simulation computes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mvsim::des {

enum class EventType : std::uint8_t {
  kGeneric = 0,         ///< untagged (tests, ad-hoc drivers)
  kSeedInfection,       ///< patient-zero force-infect at t=0
  kPhoneRead,           ///< a phone reading a received message
  kVirusSend,           ///< a virus dissemination attempt
  kVirusLegitTraffic,   ///< legitimate MMS traffic (piggyback viruses)
  kVirusReboot,         ///< per-reboot budget refresh
  kMessageDelivery,     ///< gateway delivering a message to recipients
  kBluetoothScan,       ///< proximity-channel scan / push attempt
  kMobilityMove,        ///< a phone moving on the mobility grid
  kResponseActivation,  ///< a response mechanism going live / deploying
  kResponsePatch,       ///< a patch arriving at one phone
  kResponseTick,        ///< a periodic response-mechanism tick
  kSample,              ///< a time-series sampling event
};

inline constexpr std::size_t kEventTypeCount =
    static_cast<std::size_t>(EventType::kSample) + 1;

/// Stable snake_case name, used to build the `prof.event.<name>` metric.
[[nodiscard]] inline const char* to_string(EventType type) {
  switch (type) {
    case EventType::kGeneric: return "generic";
    case EventType::kSeedInfection: return "seed_infection";
    case EventType::kPhoneRead: return "phone_read";
    case EventType::kVirusSend: return "virus_send";
    case EventType::kVirusLegitTraffic: return "virus_legit_traffic";
    case EventType::kVirusReboot: return "virus_reboot";
    case EventType::kMessageDelivery: return "message_delivery";
    case EventType::kBluetoothScan: return "bluetooth_scan";
    case EventType::kMobilityMove: return "mobility_move";
    case EventType::kResponseActivation: return "response_activation";
    case EventType::kResponsePatch: return "response_patch";
    case EventType::kResponseTick: return "response_tick";
    case EventType::kSample: return "sample";
  }
  return "unknown";
}

/// Sink for per-event wall-clock measurements. The scheduler calls
/// record_event() after each executed event when a timer is attached,
/// with the time since the previous event boundary (see
/// Scheduler::set_event_timer); prof::Profiler is the
/// production implementation. Implementations must not schedule
/// events or draw randomness — timing is observation-only.
class EventTimer {
 public:
  virtual void record_event(EventType type, double micros) = 0;

 protected:
  ~EventTimer() = default;
};

}  // namespace mvsim::des
