#include "net/gateway.h"

#include <stdexcept>
#include <utility>

namespace mvsim::net {

Gateway::Gateway(des::Scheduler& scheduler, rng::Stream& stream, SimTime delivery_delay_mean)
    : scheduler_(&scheduler), stream_(&stream), delivery_delay_mean_(delivery_delay_mean) {
  if (!(delivery_delay_mean > SimTime::zero())) {
    throw std::invalid_argument("Gateway: delivery_delay_mean must be positive");
  }
}

void Gateway::add_filter(DeliveryFilter& filter) { filters_.push_back(&filter); }

void Gateway::add_observer(GatewayObserver& observer) { observers_.push_back(&observer); }

void Gateway::set_delivery_callback(DeliveryCallback callback) {
  deliver_ = std::move(callback);
}

std::vector<DialedRecipient> Gateway::recipient_buffer() {
  if (spare_buffers_.empty()) return {};
  std::vector<DialedRecipient> buffer = std::move(spare_buffers_.back());
  spare_buffers_.pop_back();
  return buffer;
}

void Gateway::release(std::vector<DialedRecipient>&& recipients) {
  --in_flight_;
  if (spare_buffers_.size() < peak_in_flight_ && recipients.capacity() > 0) {
    recipients.clear();
    spare_buffers_.push_back(std::move(recipients));
  }
}

void Gateway::submit(MmsMessage message) {
  message.sequence = next_sequence_++;
  if (++in_flight_ > peak_in_flight_) peak_in_flight_ = in_flight_;
  const SimTime now = scheduler_->now();

  ++counters_.messages_submitted;
  if (message.infected) ++counters_.infected_messages_submitted;
  for (GatewayObserver* obs : observers_) obs->on_submitted(message, now);

  for (DeliveryFilter* filter : filters_) {
    if (filter->inspect(message, now) == DeliveryFilter::Decision::kBlock) {
      ++counters_.messages_blocked;
      for (GatewayObserver* obs : observers_) obs->on_blocked(message, filter->name(), now);
      release(std::move(message.recipients));
      return;
    }
  }

  if (!deliver_) {  // no subscriber (unit tests exercising counters only)
    release(std::move(message.recipients));
    return;
  }

  // One transit event per message; recipients share the transit delay.
  // Invalid numbers are dropped here — the provider's switch discovers
  // at routing time that the dialed number has no subscriber.
  std::size_t valid = message.valid_recipient_count();
  counters_.invalid_recipients_dropped +=
      static_cast<std::uint64_t>(message.recipients.size() - valid);
  if (valid == 0) {
    release(std::move(message.recipients));
    return;
  }
  counters_.recipients_delivered += valid;

  SimTime delay = stream_->exponential(delivery_delay_mean_);

  // Sharded runs: recipients owned by other shards leave through the
  // router (mailbox + lookahead latency) and are struck from the local
  // transit event. The delay draw above happens either way, so the RNG
  // sequence — and with it the shards-1 golden gate — is unchanged.
  if (router_ != nullptr) {
    const SimTime remote_at = scheduler_->now() + delay + router_->remote_extra_latency();
    std::size_t local = 0;
    for (DialedRecipient& r : message.recipients) {
      if (!r.valid) continue;
      if (router_->route_remote(r.phone, message, remote_at)) {
        r.valid = false;  // claimed; the local event skips it
      } else {
        ++local;
      }
    }
    if (local == 0) {
      release(std::move(message.recipients));
      return;
    }
  }

  // The message moves into the event's inline storage (it fits EventFn's
  // buffer), so the transit event costs no allocation of its own — the
  // recipients vector just changes hands, and returns to the pool once
  // every recipient has been served.
  scheduler_->schedule_after(delay, des::EventType::kMessageDelivery,
                             [this, msg = std::move(message)]() mutable {
    const SimTime at = scheduler_->now();
    for (const DialedRecipient& r : msg.recipients) {
      if (r.valid) {
        deliver_(r.phone, msg);
        for (GatewayObserver* obs : observers_) obs->on_delivered(r.phone, msg, at);
      }
    }
    release(std::move(msg.recipients));
  });
}

}  // namespace mvsim::net
