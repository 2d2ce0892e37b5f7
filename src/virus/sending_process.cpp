#include "virus/sending_process.h"

#include <cmath>
#include <stdexcept>

namespace mvsim::virus {

SendingProcess::SendingProcess(const SendingEnvironment& env, const VirusProfile& profile,
                               const phone::PhoneTable& phones, phone::PhoneId host,
                               std::unique_ptr<Targeter> targeter)
    : env_(env), profile_(&profile), phones_(&phones), host_(host),
      targeter_(std::move(targeter)) {
  if (env_.scheduler == nullptr || env_.virus_stream == nullptr || env_.gateway == nullptr) {
    throw std::invalid_argument("SendingProcess: environment is incomplete");
  }
  if (!targeter_) throw std::invalid_argument("SendingProcess: null targeter");
  profile.validate().throw_if_invalid();
}

SendingProcess::~SendingProcess() { stop(); }

void SendingProcess::start() {
  if (started_) throw std::logic_error("SendingProcess::start called twice");
  started_ = true;
  running_ = true;

  if (profile_->budget == BudgetKind::kPerReboot) schedule_reboot();

  if (profile_->trigger == SendTrigger::kPiggyback) {
    // The virus only ever transmits alongside the phone's legitimate
    // MMS activity, and not before the dormancy period has elapsed.
    pending_legit_ = env_.scheduler->schedule_after(
        profile_->dormancy + env_.virus_stream->exponential(profile_->legit_traffic_gap_mean),
        des::EventType::kVirusLegitTraffic, [this] { on_legit_traffic(); });
  } else {
    SimTime first = env_.scheduler->now() + profile_->dormancy;
    if (profile_->align_first_burst) {
      // Virus 2 semantics: bursts happen at the start of each aligned
      // period, so a phone infected mid-period waits for the next
      // boundary before its first burst.
      double windows = std::ceil(first / profile_->budget_window);
      first = max(first, profile_->budget_window * windows);
    }
    schedule_attempt_at(first);
  }
}

void SendingProcess::stop() {
  if (!running_) return;
  running_ = false;
  env_.scheduler->cancel(pending_attempt_);
  env_.scheduler->cancel(pending_reboot_);
  env_.scheduler->cancel(pending_legit_);
}

SimTime SendingProcess::effective_min_gap() const {
  SimTime gap = profile_->min_message_gap;
  const SimTime now = env_.scheduler->now();
  for (net::OutgoingMmsPolicy* policy : env_.policies) {
    gap = max(gap, policy->forced_min_gap(host_, now));
  }
  return gap;
}

bool SendingProcess::blocked_by_policy(SimTime now) const {
  for (net::OutgoingMmsPolicy* policy : env_.policies) {
    if (policy->is_blocked(host_, now)) return true;
  }
  return false;
}

bool SendingProcess::budget_available(SimTime now, SimTime& resume_at) {
  switch (profile_->budget) {
    case BudgetKind::kUnlimited:
      return true;
    case BudgetKind::kPerReboot:
      if (sent_in_window_ < profile_->budget_limit) return true;
      resume_at = SimTime::infinity();  // resumed by the reboot event
      return false;
    case BudgetKind::kPerDayAligned: {
      auto window = static_cast<std::int64_t>(std::floor(now / profile_->budget_window));
      if (window != current_window_index_) {
        current_window_index_ = window;
        sent_in_window_ = 0;
        targets_sent_in_window_ = 0;
      }
      resume_at = profile_->budget_window * static_cast<double>(window + 1);
      if (sent_in_window_ >= profile_->budget_limit) return false;
      if (profile_->one_pass_per_window &&
          targets_sent_in_window_ >= targeter_->universe_size()) {
        // Whole contact list covered this period: wait for the next one.
        return false;
      }
      return true;
    }
  }
  return true;
}

void SendingProcess::schedule_attempt_at(SimTime at) {
  env_.scheduler->cancel(pending_attempt_);
  pending_attempt_ = env_.scheduler->schedule_at(max(at, env_.scheduler->now()),
                                                 des::EventType::kVirusSend,
                                                 [this] { attempt_send(); });
}

void SendingProcess::schedule_next_active_attempt() {
  SimTime gap = effective_min_gap();
  if (profile_->extra_gap_mean > SimTime::zero()) {
    gap += env_.virus_stream->exponential(profile_->extra_gap_mean);
  }
  schedule_attempt_at(env_.scheduler->now() + gap);
}

void SendingProcess::attempt_send() {
  if (!running_) return;
  const SimTime now = env_.scheduler->now();

  // A patch on an infected phone halts dissemination (paper §3.2);
  // a blacklisted phone has its MMS service cut (paper §3.3).
  if (phones_->propagation_stopped(host_) || blocked_by_policy(now)) {
    stop();
    return;
  }

  // Monitoring may have imposed a forced wait after this attempt was
  // scheduled; re-check the gap against the *current* policy state.
  if (has_sent_) {
    SimTime earliest = last_send_ + effective_min_gap();
    if (now < earliest) {
      schedule_attempt_at(earliest);
      return;
    }
  }

  SimTime resume_at = SimTime::infinity();
  if (!budget_available(now, resume_at)) {
    if (profile_->budget == BudgetKind::kPerReboot) {
      waiting_for_reboot_ = true;  // the reboot event will resume us
    } else {
      schedule_attempt_at(resume_at);
    }
    return;
  }

  send_now();
  if (running_) schedule_next_active_attempt();
}

void SendingProcess::send_now() {
  std::uint32_t request = profile_->recipients_per_message;
  if (profile_->one_pass_per_window) {
    // Spread one pass over the contact list across the period's whole
    // message budget (the paper's Virus 2 sends its full allotment of
    // 30 messages each day, so a message carries ~list/30 recipients,
    // "up to 100" for hub phones), and never re-address a contact
    // within the period.
    std::size_t universe = targeter_->universe_size();
    std::size_t remaining =
        universe > targets_sent_in_window_ ? universe - targets_sent_in_window_ : 0;
    std::uint32_t budget_left =
        profile_->budget_limit > sent_in_window_ ? profile_->budget_limit - sent_in_window_ : 1;
    auto per_message = static_cast<std::uint32_t>(
        (remaining + budget_left - 1) / std::max<std::uint32_t>(budget_left, 1));
    request = std::clamp<std::uint32_t>(per_message, 1, request);
    if (remaining < request) request = static_cast<std::uint32_t>(remaining);
    if (request == 0) return;  // defensive; budget_available gates this
  }
  net::MmsMessage message;
  message.recipients = env_.gateway->recipient_buffer();
  targeter_->next_targets(request, message.recipients);
  if (message.recipients.empty()) {
    // A phone with an empty contact list has nobody to infect; the
    // process stays alive only in the sense that it never sends.
    stop();
    return;
  }
  const std::size_t message_recipient_count = message.recipients.size();
  message.sender = host_;
  message.infected = true;
  env_.gateway->submit(std::move(message));

  last_send_ = env_.scheduler->now();
  has_sent_ = true;
  ++messages_sent_;
  ++sent_in_window_;
  targets_sent_in_window_ += message_recipient_count;
}

void SendingProcess::schedule_reboot() {
  // "The time between phone reboots is on average approximately 24
  // hours": modeled as uniform in [0.75, 1.25] x the window. A phone's
  // reboot cycle is routine (nightly charge, habitual power-cycling),
  // not memoryless — and a heavy-tailed cycle would let the per-reboot
  // budget refill several times in one day, which the paper's
  // "30 messages per day"-style prose clearly excludes.
  pending_reboot_ = env_.scheduler->schedule_after(
      env_.virus_stream->uniform(profile_->budget_window * 0.75, profile_->budget_window * 1.25),
      des::EventType::kVirusReboot, [this] { on_reboot(); });
}

void SendingProcess::on_reboot() {
  if (!running_) return;
  if (env_.trace != nullptr && !env_.trace->drop_if_full()) {
    trace::Event event;
    event.time = env_.scheduler->now();
    event.kind = trace::EventKind::kReboot;
    event.phone = host_;
    env_.trace->record(std::move(event));
  }
  sent_in_window_ = 0;
  if (waiting_for_reboot_) {
    waiting_for_reboot_ = false;
    // Resume sending, still honoring the inter-message gap.
    SimTime earliest = has_sent_ ? last_send_ + effective_min_gap() : env_.scheduler->now();
    schedule_attempt_at(earliest);
  }
  schedule_reboot();
}

void SendingProcess::schedule_legit_traffic() {
  pending_legit_ = env_.scheduler->schedule_after(
      env_.virus_stream->exponential(profile_->legit_traffic_gap_mean),
      des::EventType::kVirusLegitTraffic, [this] { on_legit_traffic(); });
}

void SendingProcess::on_legit_traffic() {
  if (!running_) return;
  const SimTime now = env_.scheduler->now();

  if (phones_->propagation_stopped(host_) || blocked_by_policy(now)) {
    stop();
    return;
  }

  // Ride this legitimate message only if the virus's gap (and any
  // monitoring-forced wait) has elapsed and budget remains; otherwise
  // skip it and wait for the next legitimate send.
  bool gap_ok = !has_sent_ || now >= last_send_ + effective_min_gap();
  SimTime resume_at = SimTime::infinity();
  bool budget_ok = budget_available(now, resume_at);
  if (gap_ok && budget_ok) send_now();
  if (running_) schedule_legit_traffic();
}

}  // namespace mvsim::virus
