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
  if (shard_ != kNoShard) event.shard = shard_;
  events_.push_back(std::move(event));
}

TraceBuffer TraceBuffer::merge_shards(std::span<const TraceBuffer* const> buffers) {
  constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();
  std::size_t capacity = 0;
  std::size_t total_events = 0;
  std::uint64_t dropped = 0;
  for (const TraceBuffer* buffer : buffers) {
    if (buffer->capacity() == kUnbounded || capacity > kUnbounded - buffer->capacity()) {
      capacity = kUnbounded;
    } else if (capacity != kUnbounded) {
      capacity += buffer->capacity();
    }
    total_events += buffer->events().size();
    dropped += buffer->dropped();
  }

  TraceBuffer merged(capacity);
  merged.dropped_ = dropped;
  merged.events_.reserve(total_events);

  // Each input is time-ordered, so a cursor-per-buffer K-way merge
  // suffices; ties on time resolve lowest-shard-first (kNoShard, being
  // the max uint32, sorts last) and within a buffer keep recording
  // order — a total, input-independent order.
  std::vector<std::size_t> cursor(buffers.size(), 0);
  for (;;) {
    std::size_t best = buffers.size();
    for (std::size_t b = 0; b < buffers.size(); ++b) {
      const auto& events = buffers[b]->events();
      if (cursor[b] >= events.size()) continue;
      const Event& candidate = events[cursor[b]];
      if (best == buffers.size()) {
        best = b;
        continue;
      }
      const Event& leader = buffers[best]->events()[cursor[best]];
      if (candidate.time < leader.time ||
          (candidate.time == leader.time && candidate.shard < leader.shard)) {
        best = b;
      }
    }
    if (best == buffers.size()) break;
    merged.events_.push_back(buffers[best]->events()[cursor[best]]);
    ++cursor[best];
  }
  return merged;
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
