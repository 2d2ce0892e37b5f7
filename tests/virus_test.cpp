// Unit tests for src/virus: profiles, targeting, and the sending
// process under budgets, policies and piggybacking.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "des/scheduler.h"
#include "net/gateway.h"
#include "phone/phone.h"
#include "phone/phone_table.h"
#include "rng/stream.h"
#include "virus/profile.h"
#include "virus/sending_process.h"
#include "virus/targeting.h"

namespace mvsim::virus {
namespace {

TEST(VirusProfile, PaperPresetsValidate) {
  for (const auto& profile : paper_virus_suite()) {
    EXPECT_TRUE(profile.validate().ok()) << profile.validate().to_string();
  }
}

TEST(VirusProfile, PresetParametersMatchPaper) {
  VirusProfile v1 = virus1();
  EXPECT_EQ(v1.targeting, TargetingMode::kContactList);
  EXPECT_EQ(v1.min_message_gap, SimTime::minutes(30.0));
  EXPECT_EQ(v1.recipients_per_message, 1u);
  EXPECT_EQ(v1.budget, BudgetKind::kPerReboot);
  EXPECT_EQ(v1.budget_limit, 30u);

  VirusProfile v2 = virus2();
  EXPECT_EQ(v2.min_message_gap, SimTime::minutes(1.0));
  EXPECT_EQ(v2.recipients_per_message, 100u);
  EXPECT_EQ(v2.budget, BudgetKind::kPerDayAligned);
  EXPECT_TRUE(v2.align_first_burst);
  EXPECT_TRUE(v2.one_pass_per_window);

  VirusProfile v3 = virus3();
  EXPECT_EQ(v3.targeting, TargetingMode::kRandomDialing);
  EXPECT_NEAR(v3.valid_number_fraction, 1.0 / 3.0, 1e-12);
  EXPECT_EQ(v3.budget, BudgetKind::kUnlimited);

  VirusProfile v4 = virus4();
  EXPECT_EQ(v4.dormancy, SimTime::hours(1.0));
  EXPECT_EQ(v4.trigger, SendTrigger::kPiggyback);
  EXPECT_EQ(v4.min_message_gap, SimTime::minutes(30.0));
}

TEST(VirusProfile, ValidationCatchesBadFields) {
  VirusProfile p = virus1();
  p.recipients_per_message = 0;
  EXPECT_FALSE(p.validate().ok());

  p = virus1();
  p.budget_limit = 0;
  EXPECT_FALSE(p.validate().ok());

  p = virus3();
  p.valid_number_fraction = 0.0;
  EXPECT_FALSE(p.validate().ok());

  p = virus1();
  p.min_message_gap = SimTime::zero();
  p.extra_gap_mean = SimTime::zero();
  EXPECT_FALSE(p.validate().ok()) << "zero-delay send loop must be rejected";

  p = virus1();
  p.align_first_burst = true;  // requires kPerDayAligned
  EXPECT_FALSE(p.validate().ok());

  p = virus4();
  p.legit_traffic_gap_mean = SimTime::zero();
  EXPECT_FALSE(p.validate().ok());

  p = virus1();
  p.name.clear();
  EXPECT_FALSE(p.validate().ok());
}

/// The next message's recipients, drawn into a fresh buffer.
std::vector<DialedRecipient> draw(Targeter& targeter, std::uint32_t count) {
  std::vector<DialedRecipient> out;
  targeter.next_targets(count, out);
  return out;
}

TEST(ContactListTargeter, CoversWholeListBeforeRepeating) {
  rng::Stream stream(11);
  std::vector<net::PhoneId> contacts{1, 2, 3, 4, 5};
  ContactListTargeter targeter(contacts, stream);
  std::set<net::PhoneId> seen;
  for (int i = 0; i < 5; ++i) {
    auto t = draw(targeter, 1);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_TRUE(t[0].valid);
    seen.insert(t[0].phone);
  }
  EXPECT_EQ(seen.size(), 5u) << "one full pass touches every contact exactly once";
}

TEST(ContactListTargeter, BatchNeverExceedsContactList) {
  rng::Stream stream(12);
  std::vector<net::PhoneId> contacts{1, 2, 3};
  ContactListTargeter targeter(contacts, stream);
  auto t = draw(targeter, 100);
  EXPECT_EQ(t.size(), 3u);
  std::set<net::PhoneId> unique;
  for (const auto& r : t) unique.insert(r.phone);
  EXPECT_EQ(unique.size(), 3u) << "no duplicate recipients within one message";
}

TEST(ContactListTargeter, CyclesIndefinitely) {
  rng::Stream stream(13);
  std::vector<net::PhoneId> contacts{1, 2};
  ContactListTargeter targeter(contacts, stream);
  for (int i = 0; i < 50; ++i) {
    auto t = draw(targeter, 1);
    ASSERT_EQ(t.size(), 1u);
  }
}

TEST(ContactListTargeter, EmptyContactListYieldsNothing) {
  rng::Stream stream(14);
  ContactListTargeter targeter(std::span<const net::PhoneId>{}, stream);
  EXPECT_TRUE(draw(targeter, 5).empty());
}

TEST(Targeter, AppendsToTheCallersBuffer) {
  // Targeters append, so a recycled buffer's capacity carries over and
  // whatever the caller already put there is kept.
  rng::Stream stream(17);
  std::vector<net::PhoneId> contacts{1, 2, 3};
  ContactListTargeter contact_list(contacts, stream);
  RandomDialTargeter random_dial(0, 10, 1.0, stream);
  std::vector<DialedRecipient> out;
  out.reserve(16);
  const DialedRecipient* storage = out.data();
  out.push_back({9, false});
  contact_list.next_targets(2, out);
  random_dial.next_targets(4, out);
  ASSERT_EQ(out.size(), 7u);
  EXPECT_EQ(out.data(), storage) << "appending within capacity must not reallocate";
  EXPECT_EQ(out[0].phone, 9u);
  EXPECT_FALSE(out[0].valid);
  for (std::size_t i = 1; i < out.size(); ++i) EXPECT_TRUE(out[i].valid);
}

TEST(RandomDialTargeter, ValidFractionRoughlyRespected) {
  rng::Stream stream(15);
  RandomDialTargeter targeter(0, 1000, 1.0 / 3.0, stream);
  int valid = 0;
  constexpr int kN = 30000;
  auto targets = draw(targeter, kN);
  ASSERT_EQ(targets.size(), static_cast<std::size_t>(kN));
  for (const auto& t : targets) valid += t.valid ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(valid) / kN, 1.0 / 3.0, 0.02);
}

TEST(RandomDialTargeter, NeverDialsSelfValidly) {
  rng::Stream stream(16);
  RandomDialTargeter targeter(7, 10, 1.0, stream);
  for (const auto& t : draw(targeter, 5000)) {
    ASSERT_TRUE(t.valid);
    ASSERT_NE(t.phone, 7u);
    ASSERT_LT(t.phone, 10u);
  }
}

TEST(RandomDialTargeter, RejectsBadParameters) {
  rng::Stream stream(17);
  EXPECT_THROW(RandomDialTargeter(0, 1, 0.5, stream), std::invalid_argument);
  EXPECT_THROW(RandomDialTargeter(0, 10, 0.0, stream), std::invalid_argument);
  EXPECT_THROW(RandomDialTargeter(0, 10, 1.5, stream), std::invalid_argument);
}

// ---- SendingProcess ----

class GapPolicy final : public net::OutgoingMmsPolicy {
 public:
  bool is_blocked(net::PhoneId, SimTime) const override { return blocked; }
  SimTime forced_min_gap(net::PhoneId, SimTime) const override { return gap; }
  bool blocked = false;
  SimTime gap = SimTime::zero();
};

struct SendingFixture {
  des::Scheduler scheduler;
  rng::Stream virus_stream{91};
  rng::Stream user_stream{92};
  rng::Stream net_stream{93};
  net::Gateway gateway{scheduler, net_stream, SimTime::minutes(1.0)};
  phone::ConsentModel consent{0.468};
  phone::PhoneEnvironment phone_env;
  GapPolicy policy;
  SendingEnvironment env;

  std::unique_ptr<phone::PhoneTable> phones;

  SendingFixture() {
    phone_env.scheduler = &scheduler;
    phone_env.user_stream = &user_stream;
    phone_env.consent = &consent;
    phones = std::make_unique<phone::PhoneTable>(1, &phone_env);
    phones->set_susceptible(0, true);
    env.scheduler = &scheduler;
    env.virus_stream = &virus_stream;
    env.gateway = &gateway;
    env.policies = {&policy};
  }

  std::unique_ptr<Targeter> contact_targeter(std::vector<net::PhoneId> contacts) {
    return std::make_unique<ContactListTargeter>(contacts, virus_stream);
  }
};

TEST(SendingProcess, SendsImmediatelyAndRespectsMinGap) {
  SendingFixture fx;
  VirusProfile p = virus1();
  p.extra_gap_mean = SimTime::zero();  // exact cadence for the assertion
  fx.phones->force_infect(0);
  SendingProcess process(fx.env, p, *fx.phones, 0, fx.contact_targeter({1, 2, 3}));
  process.start();
  fx.scheduler.run_until(SimTime::minutes(89.0));
  // Sends at t=0, 30, 60 — the t=90 send hasn't happened yet.
  EXPECT_EQ(process.messages_sent(), 3u);
}

TEST(SendingProcess, PerRebootBudgetPausesUntilReboot) {
  SendingFixture fx;
  VirusProfile p = virus1();
  p.extra_gap_mean = SimTime::zero();
  p.budget_limit = 3;
  fx.phones->force_infect(0);
  SendingProcess process(fx.env, p, *fx.phones, 0, fx.contact_targeter({1, 2, 3, 4}));
  process.start();
  fx.scheduler.run_until(SimTime::hours(8.0));
  // Budget 3 per reboot; reboot intervals are uniform in [18 h, 30 h],
  // so by 8 h the process has sent exactly its first allotment.
  EXPECT_EQ(process.messages_sent(), 3u);
  fx.scheduler.run_until(SimTime::hours(40.0));
  EXPECT_GE(process.messages_sent(), 6u) << "the first reboot refilled the budget";
}

TEST(SendingProcess, OnePassPerWindowCoversListOncePerDay) {
  SendingFixture fx;
  VirusProfile p = virus2();  // 100 recipients/message, one pass per day
  p.extra_gap_mean = SimTime::zero();
  fx.phones->force_infect(0);

  std::uint64_t recipient_copies = 0;
  class CopyCounter final : public net::GatewayObserver {
   public:
    explicit CopyCounter(std::uint64_t& out) : out_(&out) {}
    void on_submitted(const net::MmsMessage& m, SimTime) override {
      *out_ += m.recipients.size();
    }
    std::uint64_t* out_;
  } counter(recipient_copies);
  fx.gateway.add_observer(counter);

  std::vector<net::PhoneId> contacts(80);
  for (net::PhoneId i = 0; i < 80; ++i) contacts[i] = i + 1;
  SendingProcess process(fx.env, p, *fx.phones, 0, fx.contact_targeter(contacts));
  process.start();

  fx.scheduler.run_until(SimTime::hours(23.9));
  // The pass over 80 contacts rides the full 30-message budget: ~3
  // recipients per message, all sent near the start of the period.
  EXPECT_GE(process.messages_sent(), 27u);
  EXPECT_LE(process.messages_sent(), 30u);
  EXPECT_EQ(recipient_copies, 80u) << "each contact addressed exactly once on day 0";
  fx.scheduler.run_until(SimTime::hours(47.9));
  EXPECT_EQ(recipient_copies, 160u) << "exactly one more pass on day 1";
}

TEST(SendingProcess, OnePassPerWindowWithSmallBudgetStopsAtListEnd) {
  SendingFixture fx;
  VirusProfile p = virus2();
  p.budget_limit = 3;  // pass spread over 3 messages: 3 + 3 + 1 contacts
  p.extra_gap_mean = SimTime::zero();
  fx.phones->force_infect(0);
  SendingProcess process(fx.env, p, *fx.phones, 0, fx.contact_targeter({1, 2, 3, 4, 5, 6, 7}));
  process.start();
  fx.scheduler.run_until(SimTime::hours(12.0));
  EXPECT_EQ(process.messages_sent(), 3u);
  fx.scheduler.run_until(SimTime::hours(26.0));
  EXPECT_EQ(process.messages_sent(), 6u) << "next pass after the period boundary";
}

TEST(SendingProcess, PerDayAlignedBudgetResetsAtBoundary) {
  SendingFixture fx;
  VirusProfile p = virus2();
  p.recipients_per_message = 1;
  p.budget_limit = 5;
  p.one_pass_per_window = false;  // budget semantics under test, not pass capping
  p.extra_gap_mean = SimTime::zero();
  fx.phones->force_infect(0);
  SendingProcess process(fx.env, p, *fx.phones, 0, fx.contact_targeter({1, 2, 3}));
  process.start();
  fx.scheduler.run_until(SimTime::hours(23.0));
  EXPECT_EQ(process.messages_sent(), 5u) << "first day's allotment only";
  fx.scheduler.run_until(SimTime::hours(25.0));
  EXPECT_EQ(process.messages_sent(), 10u) << "second allotment right after midnight";
}

TEST(SendingProcess, AlignFirstBurstHoldsUntilBoundary) {
  SendingFixture fx;
  VirusProfile p = virus2();
  p.recipients_per_message = 1;
  p.budget_limit = 5;
  p.one_pass_per_window = false;
  p.extra_gap_mean = SimTime::zero();
  // Infect mid-day: the first burst must wait for the next boundary.
  fx.scheduler.schedule_at(SimTime::hours(10.0), [&] { fx.phones->force_infect(0); });
  fx.scheduler.run_until(SimTime::hours(10.0));
  SendingProcess process(fx.env, p, *fx.phones, 0, fx.contact_targeter({1, 2, 3}));
  process.start();
  fx.scheduler.run_until(SimTime::hours(23.9));
  EXPECT_EQ(process.messages_sent(), 0u);
  fx.scheduler.run_until(SimTime::hours(24.5));
  EXPECT_EQ(process.messages_sent(), 5u);
}

TEST(SendingProcess, UnalignedStartSendsImmediately) {
  SendingFixture fx;
  VirusProfile p = virus2();
  p.align_first_burst = false;
  p.one_pass_per_window = false;
  p.recipients_per_message = 1;
  p.budget_limit = 5;
  p.extra_gap_mean = SimTime::zero();
  fx.scheduler.schedule_at(SimTime::hours(10.0), [&] { fx.phones->force_infect(0); });
  fx.scheduler.run_until(SimTime::hours(10.0));
  SendingProcess process(fx.env, p, *fx.phones, 0, fx.contact_targeter({1, 2, 3}));
  process.start();
  fx.scheduler.run_until(SimTime::hours(11.0));
  EXPECT_EQ(process.messages_sent(), 5u);
}

TEST(SendingProcess, BlockedPolicyStopsPermanently) {
  SendingFixture fx;
  fx.policy.blocked = true;
  VirusProfile p = virus1();
  fx.phones->force_infect(0);
  SendingProcess process(fx.env, p, *fx.phones, 0, fx.contact_targeter({1, 2}));
  process.start();
  fx.scheduler.run_until(SimTime::days(2.0));
  EXPECT_EQ(process.messages_sent(), 0u);
  EXPECT_FALSE(process.running());
}

TEST(SendingProcess, ForcedGapSlowsCadence) {
  SendingFixture fx;
  fx.policy.gap = SimTime::minutes(120.0);
  VirusProfile p = virus1();
  p.extra_gap_mean = SimTime::zero();
  fx.phones->force_infect(0);
  SendingProcess process(fx.env, p, *fx.phones, 0, fx.contact_targeter({1, 2, 3}));
  process.start();
  fx.scheduler.run_until(SimTime::minutes(239.0));
  // 2 h forced gap dominates the 30 min virus gap: sends at 0 and 120.
  EXPECT_EQ(process.messages_sent(), 2u);
}

TEST(SendingProcess, PatchStopsAtNextAttempt) {
  SendingFixture fx;
  VirusProfile p = virus1();
  p.extra_gap_mean = SimTime::zero();
  fx.phones->force_infect(0);
  SendingProcess process(fx.env, p, *fx.phones, 0, fx.contact_targeter({1, 2}));
  process.start();
  fx.scheduler.schedule_at(SimTime::minutes(45.0), [&] { fx.phones->apply_patch(0); });
  fx.scheduler.run_until(SimTime::days(1.0));
  EXPECT_EQ(process.messages_sent(), 2u) << "t=0 and t=30 only; patched before t=60";
  EXPECT_FALSE(process.running());
}

TEST(SendingProcess, PiggybackWaitsForDormancyAndLegitTraffic) {
  SendingFixture fx;
  VirusProfile p = virus4();
  fx.phones->force_infect(0);
  SendingProcess process(fx.env, p, *fx.phones, 0, fx.contact_targeter({1, 2, 3}));
  process.start();
  fx.scheduler.run_until(SimTime::hours(1.0));
  EXPECT_EQ(process.messages_sent(), 0u) << "dormant for the first hour";
  fx.scheduler.run_until(SimTime::days(2.0));
  EXPECT_GT(process.messages_sent(), 5u);
  // Mean legit gap is 2 h => roughly 12/day; allow a wide band.
  EXPECT_LT(process.messages_sent(), 40u);
}

TEST(SendingProcess, PiggybackHonorsMinGap) {
  SendingFixture fx;
  VirusProfile p = virus4();
  p.dormancy = SimTime::zero();
  p.legit_traffic_gap_mean = SimTime::minutes(1.0);  // chatty user
  p.min_message_gap = SimTime::minutes(30.0);
  fx.phones->force_infect(0);
  SendingProcess process(fx.env, p, *fx.phones, 0, fx.contact_targeter({1, 2, 3}));
  process.start();
  fx.scheduler.run_until(SimTime::hours(10.0));
  // Despite ~600 legit events, the 30-min gap caps sends at ~20.
  EXPECT_LE(process.messages_sent(), 21u);
  EXPECT_GE(process.messages_sent(), 15u);
}

TEST(SendingProcess, StopCancelsFutureSends) {
  SendingFixture fx;
  VirusProfile p = virus3();
  fx.phones->force_infect(0);
  auto targeter = std::make_unique<RandomDialTargeter>(0, 100, 1.0 / 3.0, fx.virus_stream);
  SendingProcess process(fx.env, p, *fx.phones, 0, std::move(targeter));
  process.start();
  fx.scheduler.run_until(SimTime::minutes(30.0));
  auto sent_before = process.messages_sent();
  EXPECT_GT(sent_before, 10u);
  process.stop();
  fx.scheduler.run_until(SimTime::hours(5.0));
  EXPECT_EQ(process.messages_sent(), sent_before);
}

TEST(SendingProcess, EmptyContactListStopsQuietly) {
  SendingFixture fx;
  VirusProfile p = virus1();
  fx.phones->force_infect(0);
  SendingProcess process(fx.env, p, *fx.phones, 0, fx.contact_targeter({}));
  process.start();
  fx.scheduler.run_until(SimTime::days(1.0));
  EXPECT_EQ(process.messages_sent(), 0u);
  EXPECT_FALSE(process.running());
}

TEST(SendingProcess, StartTwiceThrows) {
  SendingFixture fx;
  VirusProfile p = virus1();
  fx.phones->force_infect(0);
  SendingProcess process(fx.env, p, *fx.phones, 0, fx.contact_targeter({1}));
  process.start();
  EXPECT_THROW(process.start(), std::logic_error);
}

TEST(SendingProcess, Virus2MessageCarriesWholeContactList) {
  SendingFixture fx;
  std::size_t largest_recipient_list = 0;
  fx.gateway.set_delivery_callback([](net::PhoneId, const net::MmsMessage&) {});
  class CountObserver final : public net::GatewayObserver {
   public:
    explicit CountObserver(std::size_t& out) : out_(&out) {}
    void on_submitted(const net::MmsMessage& m, SimTime) override {
      *out_ = std::max(*out_, m.recipients.size());
    }
    std::size_t* out_;
  } observer(largest_recipient_list);
  fx.gateway.add_observer(observer);

  VirusProfile p = virus2();
  p.align_first_burst = false;
  p.one_pass_per_window = false;  // exercise the raw multi-recipient capability
  fx.phones->force_infect(0);
  std::vector<net::PhoneId> contacts(80);
  for (net::PhoneId i = 0; i < 80; ++i) contacts[i] = i + 1;
  SendingProcess process(fx.env, p, *fx.phones, 0, fx.contact_targeter(contacts));
  process.start();
  fx.scheduler.run_until(SimTime::hours(1.0));
  EXPECT_EQ(largest_recipient_list, 80u)
      << "up to 100 recipients per message covers the whole 80-contact list";
}

}  // namespace
}  // namespace mvsim::virus
