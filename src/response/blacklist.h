// Response mechanism 6 (paper §3.3): blacklist phones suspected of
// infection.
//
// The provider counts messages *suspected of being infected* per phone
// (cumulatively — in contrast to monitoring's per-window count of all
// traffic); at the threshold the phone's MMS service is cut entirely,
// until the phone is proven clean (outside the incident horizon, so
// permanent in-simulation). Invalid-number sends count too: that is
// exactly why a random-dialing virus burns through its threshold three
// times faster than a contact-list virus (paper: threshold 30 against
// Virus 3 ≈ threshold 10 against a contact-list virus).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "net/gateway.h"
#include "response/mechanism.h"
#include "util/sim_time.h"
#include "util/validation.h"

namespace mvsim::response {

struct BlacklistConfig {
  /// Suspected-infected messages tolerated before the phone is cut off
  /// (paper sweeps 10 / 20 / 30 / 40).
  std::uint32_t message_threshold = 10;

  [[nodiscard]] ValidationErrors validate() const;
};

class Blacklist final : public ResponseMechanism, public net::OutgoingMmsPolicy {
 public:
  explicit Blacklist(const BlacklistConfig& config);

  [[nodiscard]] std::size_t blacklisted_count() const { return blacklisted_.size(); }
  [[nodiscard]] bool is_blacklisted(net::PhoneId phone) const {
    return blacklisted_.count(phone) > 0;
  }

  // ResponseMechanism — counts suspected (infected) submissions only.
  [[nodiscard]] const char* name() const override { return "blacklist"; }
  [[nodiscard]] std::uint32_t subscribed_hooks() const override {
    return hook::kMessageSubmitted;
  }
  void on_build(BuildContext& context) override;
  void on_message_submitted(const net::MmsMessage& message, SimTime now) override;
  [[nodiscard]] net::OutgoingMmsPolicy* as_outgoing_policy() override { return this; }
  void on_metrics(metrics::Registry& registry) const override;

  // OutgoingMmsPolicy — blacklisting blocks, never merely delays.
  [[nodiscard]] bool is_blocked(net::PhoneId phone, SimTime) const override {
    return is_blacklisted(phone);
  }
  [[nodiscard]] SimTime forced_min_gap(net::PhoneId, SimTime) const override {
    return SimTime::zero();
  }

 private:
  BlacklistConfig config_;
  std::unordered_map<net::PhoneId, std::uint32_t> suspected_counts_;
  std::unordered_set<net::PhoneId> blacklisted_;
  trace::TraceBuffer* trace_ = nullptr;
};

}  // namespace mvsim::response
