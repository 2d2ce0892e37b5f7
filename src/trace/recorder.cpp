#include "trace/recorder.h"

#include <utility>

namespace mvsim::trace {

namespace {

Event message_event(EventKind kind, const net::MmsMessage& message, SimTime now) {
  Event event;
  event.time = now;
  event.kind = kind;
  event.phone = message.sender;
  event.message = message.sequence;
  event.value = static_cast<std::uint32_t>(message.valid_recipient_count());
  return event;
}

}  // namespace

void GatewayRecorder::on_submitted(const net::MmsMessage& message, SimTime now) {
  if (buffer_->drop_if_full()) return;
  buffer_->record(message_event(EventKind::kMessageSent, message, now));
}

void GatewayRecorder::on_blocked(const net::MmsMessage& message, const char* blocked_by,
                                 SimTime now) {
  if (buffer_->drop_if_full()) return;
  Event event = message_event(EventKind::kMessageBlocked, message, now);
  event.detail = blocked_by;
  buffer_->record(std::move(event));
}

void GatewayRecorder::on_delivered(net::PhoneId recipient, const net::MmsMessage& message,
                                   SimTime now) {
  if (buffer_->drop_if_full()) return;
  Event event;
  event.time = now;
  event.kind = EventKind::kMessageDelivered;
  event.phone = recipient;
  event.peer = message.sender;
  event.message = message.sequence;
  buffer_->record(std::move(event));
}

}  // namespace mvsim::trace
