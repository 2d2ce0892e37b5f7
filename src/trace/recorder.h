// Gateway tap: records message traffic into a TraceBuffer.
//
// Registered as an ordinary net::GatewayObserver when tracing is
// enabled (and not at all otherwise), so the no-trace path pays
// nothing. Strictly observation-only: it reads the message and the
// clock, writes the buffer, and touches nothing else.
#pragma once

#include "net/gateway.h"
#include "trace/trace.h"

namespace mvsim::trace {

class GatewayRecorder final : public net::GatewayObserver {
 public:
  explicit GatewayRecorder(TraceBuffer& buffer) : buffer_(&buffer) {}

  void on_submitted(const net::MmsMessage& message, SimTime now) override;
  void on_blocked(const net::MmsMessage& message, const char* blocked_by, SimTime now) override;
  void on_delivered(net::PhoneId recipient, const net::MmsMessage& message,
                    SimTime now) override;

 private:
  TraceBuffer* buffer_;
};

}  // namespace mvsim::trace
