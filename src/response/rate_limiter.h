// Extension mechanism: MMS rate limiting at the gateway.
//
// The provider caps how many messages any single phone may submit per
// tumbling window (default 10/hour). Unlike blacklisting the cut-off
// is temporary — a phone that exhausts its quota is merely held until
// the window rolls over — and unlike monitoring it needs no anomaly
// threshold or suspicion state: the cap applies to every phone from
// t=0. Rate limiting is a plausible always-on guard the paper does not
// evaluate; it mainly brakes high-rate senders (Virus 3's ~60/hour)
// while staying invisible to stealthy low-rate viruses.
//
// Implementation note: the quota is enforced through the
// OutgoingMmsPolicy forced-gap channel rather than is_blocked().
// SendingProcess treats is_blocked as a permanent service cut
// (blacklist semantics) and stops for good; a forced gap that lasts
// exactly until the next window boundary models a temporary hold.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "net/gateway.h"
#include "response/mechanism.h"
#include "util/sim_time.h"
#include "util/validation.h"

namespace mvsim::response {

struct RateLimiterConfig {
  /// Messages a phone may submit per window before it is held.
  std::uint32_t max_messages_per_window = 10;
  /// Length of the tumbling quota window.
  SimTime window = SimTime::hours(1.0);

  [[nodiscard]] ValidationErrors validate() const;
};

class RateLimiter final : public ResponseMechanism, public net::OutgoingMmsPolicy {
 public:
  explicit RateLimiter(const RateLimiterConfig& config);

  /// Distinct phones that ever exhausted a window's quota.
  [[nodiscard]] std::size_t phones_limited() const { return limited_phones_.size(); }
  /// Windows in which some phone hit the cap (counted once per
  /// phone-window).
  [[nodiscard]] std::uint64_t windows_capped() const { return windows_capped_; }
  [[nodiscard]] bool is_at_cap(net::PhoneId phone, SimTime now) const;

  // ResponseMechanism
  [[nodiscard]] const char* name() const override { return "rate_limiter"; }
  [[nodiscard]] std::uint32_t subscribed_hooks() const override {
    return hook::kMessageSubmitted;
  }
  void on_build(BuildContext& context) override;
  void on_message_submitted(const net::MmsMessage& message, SimTime now) override;
  /// Prunes per-phone records from windows long past (memory hygiene
  /// over multi-day horizons).
  void on_tick(SimTime now) override;
  [[nodiscard]] SimTime tick_period() const override { return config_.window; }
  [[nodiscard]] net::OutgoingMmsPolicy* as_outgoing_policy() override { return this; }
  void on_metrics(metrics::Registry& registry) const override;

  // OutgoingMmsPolicy — holds until the window rolls over, never cuts.
  [[nodiscard]] bool is_blocked(net::PhoneId, SimTime) const override { return false; }
  [[nodiscard]] SimTime forced_min_gap(net::PhoneId phone, SimTime now) const override;

 private:
  struct PhoneRecord {
    std::int64_t window_index = -1;
    std::uint32_t count_in_window = 0;
    /// When this phone last submitted (the reference point the forced
    /// gap is measured from).
    SimTime last_submit = SimTime::zero();
  };

  [[nodiscard]] std::int64_t window_index(SimTime now) const;

  RateLimiterConfig config_;
  std::unordered_map<net::PhoneId, PhoneRecord> records_;
  std::unordered_set<net::PhoneId> limited_phones_;
  std::uint64_t windows_capped_ = 0;
  trace::TraceBuffer* trace_ = nullptr;
};

}  // namespace mvsim::response
