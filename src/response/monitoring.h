// Response mechanism 5 (paper §3.3): monitoring for anomalous behavior.
//
// The provider counts MMS messages sent per phone inside an
// observation window ("monitoring detects sharp peaks in activity");
// a phone exceeding the threshold is flagged as suspicious and a
// forced minimum wait is imposed between all its subsequent outgoing
// messages (the paper sweeps 15 / 30 / 60 minutes). Monitoring counts
// *all* outgoing messages — it cannot tell infected from clean.
//
// Why it is effective only against Virus 3 (paper §5.2): the
// random-dialer sends ~60 messages/hour, trips the per-hour threshold
// within minutes, and a 15-minute forced wait cuts its rate 15-fold.
// Viruses 1 and 4 send at most ~2 messages/hour and are never flagged;
// Virus 2's burst can trip the detector, but a virus that needs only
// 30 sends/day is barely constrained by a 15-60 minute wait, so the
// response is ineffectual against it either way.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "net/gateway.h"
#include "response/mechanism.h"
#include "util/sim_time.h"
#include "util/validation.h"

namespace mvsim::response {

struct MonitoringConfig {
  /// Messages allowed per phone per observation window before the
  /// phone is flagged. Default 5/hour: above legitimate MMS usage
  /// (paid, picture-sized messages) and above the <=2/hour of the
  /// stealthy viruses, far below the random-dialer's ~60/hour. With
  /// this value the reproduction matches the paper's Figure 6 anchor
  /// (a 15-minute forced wait holds Virus 3 under 150 infections for
  /// ~20 hours).
  std::uint32_t window_message_threshold = 5;
  /// Length of the tumbling observation window.
  SimTime observation_window = SimTime::hours(1.0);
  /// Forced minimum wait between outgoing messages once flagged.
  SimTime forced_wait = SimTime::minutes(30.0);
  /// If false, a flagged phone is unflagged at the next window (the
  /// paper keeps suspicion permanent within an incident; default true).
  bool flag_is_permanent = true;

  [[nodiscard]] ValidationErrors validate() const;
};

class Monitoring final : public ResponseMechanism, public net::OutgoingMmsPolicy {
 public:
  explicit Monitoring(const MonitoringConfig& config);

  [[nodiscard]] std::size_t flagged_count() const { return flagged_total_; }
  [[nodiscard]] bool is_flagged(net::PhoneId phone) const;

  // ResponseMechanism — counts every submission.
  [[nodiscard]] const char* name() const override { return "monitoring"; }
  [[nodiscard]] std::uint32_t subscribed_hooks() const override {
    return hook::kMessageSubmitted;
  }
  void on_build(BuildContext& context) override;
  void on_message_submitted(const net::MmsMessage& message, SimTime now) override;
  [[nodiscard]] net::OutgoingMmsPolicy* as_outgoing_policy() override { return this; }
  void on_metrics(metrics::Registry& registry) const override;

  // OutgoingMmsPolicy — monitoring delays, never blocks.
  [[nodiscard]] bool is_blocked(net::PhoneId, SimTime) const override { return false; }
  [[nodiscard]] SimTime forced_min_gap(net::PhoneId phone, SimTime now) const override;

 private:
  struct PhoneRecord {
    std::int64_t window_index = -1;
    std::uint32_t count_in_window = 0;
    bool flagged = false;
  };

  [[nodiscard]] std::int64_t window_index(SimTime now) const;

  MonitoringConfig config_;
  mutable std::unordered_map<net::PhoneId, PhoneRecord> records_;
  std::size_t flagged_total_ = 0;
  trace::TraceBuffer* trace_ = nullptr;
};

}  // namespace mvsim::response
