// Causal event trace of one replication.
//
// The aggregate curves answer "how many"; the trace answers "what
// happened, and because of what": every message submission, block
// (with the blocking mechanism's registry name), delivery, infection
// (victim *and* infector plus the triggering message id), patch,
// reboot, detectability crossing and mechanism state transition, in
// simulation-time order. On top of the raw events, trace/analysis.h
// reconstructs the transmission tree (generation depth, effective R
// per generation, per-mechanism chain truncation) and trace/export.h
// writes JSONL and Chrome trace_event files.
//
// Tracing is opt-in (pass a TraceBuffer to the Simulation constructor)
// and observation-only: recording never draws randomness, schedules
// events or mutates simulation state, so fixed-seed results are
// bit-identical with tracing on or off (the golden tests pin this
// down). Capture is bounded — past the configured event cap the buffer
// counts drops instead of growing, so tracing stays safe on large
// populations and long horizons.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "graph/contact_graph.h"
#include "net/message.h"
#include "util/sim_time.h"

namespace mvsim::trace {

using graph::kInvalidPhoneId;
using graph::PhoneId;
using net::kInvalidMessageId;

enum class EventKind : std::uint8_t {
  kMessageSent,      ///< phone handed a message to the gateway (phone = sender)
  kMessageBlocked,   ///< a delivery filter stopped it (detail = mechanism name)
  kMessageDelivered, ///< it reached a valid recipient (phone = recipient, peer = sender)
  kInfection,        ///< phone = victim, peer = infector, detail = channel
  kPatchApplied,     ///< immunization patch landed (phone = target)
  kReboot,           ///< an infected phone rebooted (refills per-reboot budgets)
  kDetectabilityCrossed,  ///< the gateways crossed the detectability threshold
  kMechanismAction,  ///< a mechanism changed state (detail = "mechanism:action")
};

[[nodiscard]] const char* to_string(EventKind kind);
/// Inverse of to_string; false when `text` names no kind.
[[nodiscard]] bool event_kind_from_string(std::string_view text, EventKind& out);

/// One traced event. Fields that do not apply to a kind keep their
/// invalid-sentinel defaults (and the exporters omit them).
struct Event {
  SimTime time;
  EventKind kind = EventKind::kInfection;
  /// The subject phone: sender / recipient / victim / patched phone.
  PhoneId phone = kInvalidPhoneId;
  /// The causal partner: the infector, or the sender of a delivery.
  PhoneId peer = kInvalidPhoneId;
  /// Gateway sequence number of the message concerned.
  std::uint64_t message = kInvalidMessageId;
  /// Kind-specific count: valid recipients for sent/blocked messages.
  std::uint32_t value = 0;
  /// Kind-specific label: blocking mechanism, infection channel
  /// ("mms", "bluetooth", "seed") or "mechanism:action".
  std::string detail;

  friend bool operator==(const Event&, const Event&) = default;
};

/// Bounded, append-only event buffer for one replication.
class TraceBuffer {
 public:
  /// Default cap: ~10^6 events (~64 MB worst case) — plenty for every
  /// paper preset while keeping a runaway scenario's trace bounded.
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  /// `capacity` = maximum events kept; past it record() only counts.
  explicit TraceBuffer(std::size_t capacity = kDefaultCapacity);

  /// A buffer that never drops (capacity SIZE_MAX).
  [[nodiscard]] static TraceBuffer unbounded() {
    return TraceBuffer(std::numeric_limits<std::size_t>::max());
  }

  void record(Event event);

  /// True once the buffer holds capacity() events: every further
  /// record() only counts a drop.
  [[nodiscard]] bool full() const { return events_.size() >= capacity_; }
  /// Hot-path guard for recording sites: when full, counts the drop
  /// record() would have counted and returns true, so the caller can
  /// skip building the Event at all.
  bool drop_if_full() {
    if (!full()) return false;
    ++dropped_;
    return true;
  }

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events discarded because the buffer was full.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Everything record() ever saw: events().size() + dropped().
  [[nodiscard]] std::uint64_t recorded() const { return events_.size() + dropped_; }

  [[nodiscard]] std::size_t count(EventKind kind) const;
  /// First event of `kind`; SimTime::infinity() if none occurred.
  [[nodiscard]] SimTime first_time(EventKind kind) const;
  [[nodiscard]] SimTime last_time(EventKind kind) const;

  /// Forgets events and the drop count; keeps the capacity.
  void clear() {
    events_.clear();
    dropped_ = 0;
  }

 private:
  std::vector<Event> events_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
};

/// Records a mechanism state transition as "<mechanism>:<action>".
/// Null `buffer` is a no-op, so mechanisms call this unconditionally.
void record_action(TraceBuffer* buffer, SimTime now, const char* mechanism, const char* action,
                   PhoneId phone = kInvalidPhoneId);

}  // namespace mvsim::trace
