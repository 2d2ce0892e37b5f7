#include "trace/trace.h"

#include <utility>

namespace mvsim::trace {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kMessageSent: return "message_sent";
    case EventKind::kMessageBlocked: return "message_blocked";
    case EventKind::kMessageDelivered: return "message_delivered";
    case EventKind::kInfection: return "infection";
    case EventKind::kPatchApplied: return "patch";
    case EventKind::kReboot: return "reboot";
    case EventKind::kDetectabilityCrossed: return "detected";
    case EventKind::kMechanismAction: return "mechanism";
  }
  return "?";
}

bool event_kind_from_string(std::string_view text, EventKind& out) {
  for (EventKind kind :
       {EventKind::kMessageSent, EventKind::kMessageBlocked, EventKind::kMessageDelivered,
        EventKind::kInfection, EventKind::kPatchApplied, EventKind::kReboot,
        EventKind::kDetectabilityCrossed, EventKind::kMechanismAction}) {
    if (text == to_string(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

TraceBuffer::TraceBuffer(std::size_t capacity) : capacity_(capacity) {}

void TraceBuffer::record(Event event) {
  if (drop_if_full()) return;
  events_.push_back(std::move(event));
}

std::size_t TraceBuffer::count(EventKind kind) const {
  std::size_t n = 0;
  for (const Event& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

SimTime TraceBuffer::first_time(EventKind kind) const {
  for (const Event& e : events_) {
    if (e.kind == kind) return e.time;
  }
  return SimTime::infinity();
}

SimTime TraceBuffer::last_time(EventKind kind) const {
  SimTime last = SimTime::infinity();
  for (const Event& e : events_) {
    if (e.kind == kind) last = e.time;
  }
  return last;
}

void record_action(TraceBuffer* buffer, SimTime now, const char* mechanism, const char* action,
                   PhoneId phone) {
  if (buffer == nullptr || buffer->drop_if_full()) return;
  Event event;
  event.time = now;
  event.kind = EventKind::kMechanismAction;
  event.phone = phone;
  event.detail = std::string(mechanism) + ":" + action;
  buffer->record(std::move(event));
}

}  // namespace mvsim::trace
