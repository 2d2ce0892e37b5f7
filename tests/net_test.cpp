// Unit tests for src/net: message helpers and the Gateway's
// observer/filter/delivery semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "des/scheduler.h"
#include "net/gateway.h"
#include "net/message.h"
#include "rng/stream.h"

// Counting global allocator: this binary's allocation witness. Every
// operator new in net_test (the array and nothrow forms forward here)
// bumps the counter, so a test can require that a stretch of gateway
// traffic performs no heap allocation at all.
namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};
}  // namespace

// Out of line, so GCC's -Wmismatched-new-delete does not pair an
// inlined malloc with a caller's operator delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* block) noexcept { std::free(block); }
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace mvsim::net {
namespace {

MmsMessage infected_message(PhoneId sender, std::vector<DialedRecipient> recipients) {
  MmsMessage m;
  m.sender = sender;
  m.recipients = std::move(recipients);
  m.infected = true;
  return m;
}

TEST(MmsMessage, ValidRecipientCount) {
  MmsMessage m;
  m.recipients = {{1, true}, {0, false}, {2, true}, {0, false}};
  EXPECT_EQ(m.valid_recipient_count(), 2u);
  EXPECT_EQ(MmsMessage{}.valid_recipient_count(), 0u);
}

class RecordingObserver final : public GatewayObserver {
 public:
  void on_submitted(const MmsMessage& message, SimTime) override {
    submitted.push_back(message.sequence);
  }
  void on_blocked(const MmsMessage& message, const char* blocked_by, SimTime) override {
    blocked.push_back(message.sequence);
    blocked_by_names.emplace_back(blocked_by);
  }
  std::vector<std::uint64_t> submitted;
  std::vector<std::uint64_t> blocked;
  std::vector<std::string> blocked_by_names;
};

class BlockInfectedFilter final : public DeliveryFilter {
 public:
  Decision inspect(const MmsMessage& message, SimTime) override {
    ++inspected;
    return message.infected ? Decision::kBlock : Decision::kDeliver;
  }
  const char* name() const override { return "block-infected"; }
  int inspected = 0;
};

class AllowAllFilter final : public DeliveryFilter {
 public:
  Decision inspect(const MmsMessage&, SimTime) override {
    ++inspected;
    return Decision::kDeliver;
  }
  const char* name() const override { return "allow-all"; }
  int inspected = 0;
};

struct GatewayFixture {
  des::Scheduler scheduler;
  rng::Stream stream{77};
  Gateway gateway{scheduler, stream, SimTime::minutes(1.0)};
  std::vector<std::pair<PhoneId, std::uint64_t>> delivered;

  GatewayFixture() {
    gateway.set_delivery_callback([this](PhoneId recipient, const MmsMessage& message) {
      delivered.emplace_back(recipient, message.sequence);
    });
  }
};

TEST(Gateway, AssignsMonotoneSequenceNumbers) {
  GatewayFixture fx;
  RecordingObserver obs;
  fx.gateway.add_observer(obs);
  fx.gateway.submit(infected_message(0, {{1, true}}));
  fx.gateway.submit(infected_message(0, {{2, true}}));
  fx.gateway.submit(infected_message(0, {{3, true}}));
  ASSERT_EQ(obs.submitted.size(), 3u);
  EXPECT_EQ(obs.submitted, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(Gateway, DeliversToAllValidRecipientsAfterDelay) {
  GatewayFixture fx;
  fx.gateway.submit(infected_message(0, {{1, true}, {2, true}, {9, false}}));
  EXPECT_TRUE(fx.delivered.empty()) << "delivery is asynchronous";
  fx.scheduler.run_to_quiescence();
  ASSERT_EQ(fx.delivered.size(), 2u);
  EXPECT_EQ(fx.delivered[0].first, 1u);
  EXPECT_EQ(fx.delivered[1].first, 2u);
  EXPECT_GT(fx.scheduler.now(), SimTime::zero()) << "transit took nonzero time";
}

TEST(Gateway, CountersTrackSubmissionsAndDeliveries) {
  GatewayFixture fx;
  fx.gateway.submit(infected_message(0, {{1, true}, {9, false}}));
  MmsMessage clean;
  clean.sender = 1;
  clean.recipients = {{2, true}};
  clean.infected = false;
  fx.gateway.submit(std::move(clean));
  fx.scheduler.run_to_quiescence();
  const GatewayCounters& c = fx.gateway.counters();
  EXPECT_EQ(c.messages_submitted, 2u);
  EXPECT_EQ(c.infected_messages_submitted, 1u);
  EXPECT_EQ(c.messages_blocked, 0u);
  EXPECT_EQ(c.recipients_delivered, 2u);
  EXPECT_EQ(c.invalid_recipients_dropped, 1u);
}

TEST(Gateway, FilterBlocksAndObserversSeeIt) {
  GatewayFixture fx;
  RecordingObserver obs;
  BlockInfectedFilter filter;
  fx.gateway.add_observer(obs);
  fx.gateway.add_filter(filter);
  fx.gateway.submit(infected_message(0, {{1, true}}));
  fx.scheduler.run_to_quiescence();
  EXPECT_TRUE(fx.delivered.empty());
  EXPECT_EQ(obs.submitted.size(), 1u) << "observers see the submission before filtering";
  EXPECT_EQ(obs.blocked.size(), 1u);
  ASSERT_EQ(obs.blocked_by_names.size(), 1u);
  EXPECT_EQ(obs.blocked_by_names[0], "block-infected")
      << "on_blocked must name the filter that blocked";
  EXPECT_EQ(fx.gateway.counters().messages_blocked, 1u);
}

TEST(Gateway, FilterChainStopsAtFirstBlock) {
  GatewayFixture fx;
  BlockInfectedFilter first;
  AllowAllFilter second;
  fx.gateway.add_filter(first);
  fx.gateway.add_filter(second);
  fx.gateway.submit(infected_message(0, {{1, true}}));
  EXPECT_EQ(first.inspected, 1);
  EXPECT_EQ(second.inspected, 0) << "later filters must not run after a block";
}

TEST(Gateway, CleanMessagePassesBlockInfectedFilter) {
  GatewayFixture fx;
  BlockInfectedFilter filter;
  fx.gateway.add_filter(filter);
  MmsMessage clean;
  clean.sender = 0;
  clean.recipients = {{1, true}};
  fx.gateway.submit(std::move(clean));
  fx.scheduler.run_to_quiescence();
  EXPECT_EQ(fx.delivered.size(), 1u);
}

TEST(Gateway, AllInvalidRecipientsMeansNoDeliveryEvent) {
  GatewayFixture fx;
  fx.gateway.submit(infected_message(0, {{0, false}, {0, false}}));
  fx.scheduler.run_to_quiescence();
  EXPECT_TRUE(fx.delivered.empty());
  EXPECT_EQ(fx.gateway.counters().invalid_recipients_dropped, 2u);
  EXPECT_EQ(fx.gateway.counters().messages_submitted, 1u);
}

TEST(Gateway, NoCallbackIsTolerated) {
  des::Scheduler scheduler;
  rng::Stream stream(5);
  Gateway gateway(scheduler, stream, SimTime::minutes(1.0));
  gateway.submit(infected_message(0, {{1, true}}));
  scheduler.run_to_quiescence();
  EXPECT_EQ(gateway.counters().messages_submitted, 1u);
}

TEST(Gateway, RejectsNonPositiveDelay) {
  des::Scheduler scheduler;
  rng::Stream stream(6);
  EXPECT_THROW(Gateway(scheduler, stream, SimTime::zero()), std::invalid_argument);
}

TEST(Gateway, ManyMessagesAllDeliveredOnce) {
  GatewayFixture fx;
  for (PhoneId i = 0; i < 100; ++i) {
    fx.gateway.submit(infected_message(0, {{i + 1, true}}));
  }
  fx.scheduler.run_to_quiescence();
  EXPECT_EQ(fx.delivered.size(), 100u);
  EXPECT_EQ(fx.gateway.counters().recipients_delivered, 100u);
}

// ---- Recipient buffers ----------------------------------------------------

/// A message whose recipients live in a buffer from the gateway's pool:
/// `valid` live recipients, then `invalid` dead numbers.
MmsMessage pooled_message(Gateway& gateway, bool infected, std::size_t valid,
                          std::size_t invalid = 0) {
  MmsMessage m;
  m.recipients = gateway.recipient_buffer();
  for (std::size_t i = 0; i < valid; ++i) {
    m.recipients.push_back({static_cast<PhoneId>(i + 1), true});
  }
  for (std::size_t i = 0; i < invalid; ++i) m.recipients.push_back({0, false});
  m.infected = infected;
  return m;
}

/// Claims every recipient for another shard.
class RouteEverything final : public ShardRouter {
 public:
  [[nodiscard]] SimTime remote_extra_latency() const override { return SimTime::minutes(1.0); }
  bool route_remote(PhoneId, const MmsMessage&, SimTime) override { return true; }
};

TEST(GatewayBuffers, EveryExitReturnsTheBuffer) {
  // Each way a message can leave the gateway hands its recipient
  // buffer back: the next recipient_buffer() is the same storage.
  enum class Exit { kBlocked, kNoCallback, kNoValidRecipient, kAllRouted, kDelivered };
  for (Exit exit : {Exit::kBlocked, Exit::kNoCallback, Exit::kNoValidRecipient,
                    Exit::kAllRouted, Exit::kDelivered}) {
    des::Scheduler scheduler;
    rng::Stream stream(40);
    Gateway gateway(scheduler, stream, SimTime::minutes(1.0));
    BlockInfectedFilter filter;
    RouteEverything router;
    gateway.add_filter(filter);
    if (exit != Exit::kNoCallback) gateway.set_delivery_callback([](PhoneId, const MmsMessage&) {});
    if (exit == Exit::kAllRouted) gateway.set_shard_router(&router);

    MmsMessage m = exit == Exit::kNoValidRecipient
                       ? pooled_message(gateway, false, 0, 4)
                       : pooled_message(gateway, exit == Exit::kBlocked, 4);
    const DialedRecipient* storage = m.recipients.data();
    gateway.submit(std::move(m));
    scheduler.run_to_quiescence();
    const std::vector<DialedRecipient> next = gateway.recipient_buffer();
    EXPECT_TRUE(next.empty()) << static_cast<int>(exit);
    EXPECT_EQ(next.data(), storage) << "exit " << static_cast<int>(exit) << " kept its buffer";
  }
}

TEST(GatewayBuffers, SteadyStateTrafficDoesNotAllocate) {
  // 1- and 100-recipient deliveries, filter blocks and all-invalid
  // messages, built from recipient_buffer(), cost no heap allocation
  // from submit through the drain once the pool and the scheduler's
  // arena are warm.
  des::Scheduler scheduler;
  rng::Stream stream(41);
  Gateway gateway(scheduler, stream, SimTime::minutes(1.0));
  BlockInfectedFilter filter;
  gateway.add_filter(filter);
  std::uint64_t delivered = 0;
  gateway.set_delivery_callback([&delivered](PhoneId, const MmsMessage&) { ++delivered; });

  constexpr int kBatch = 32;
  auto round = [&] {
    for (std::size_t size : {std::size_t{1}, std::size_t{100}}) {
      for (int i = 0; i < kBatch; ++i) gateway.submit(pooled_message(gateway, false, size));
      scheduler.run_to_quiescence();
    }
    for (int i = 0; i < kBatch; ++i) {
      gateway.submit(pooled_message(gateway, true, 3));      // blocked
      gateway.submit(pooled_message(gateway, false, 0, 3));  // no valid recipient
    }
    scheduler.run_to_quiescence();
  };
  round();
  round();
  const std::uint64_t delivered_before = delivered;
  const std::uint64_t before = g_heap_allocations.load();
  for (int r = 0; r < 20; ++r) round();
  EXPECT_EQ(g_heap_allocations.load() - before, 0u) << "steady-state messages allocated";
  EXPECT_EQ(delivered - delivered_before, 20u * kBatch * 101u);
  EXPECT_EQ(gateway.counters().messages_blocked, 22u * kBatch);
}

TEST(GatewayBuffers, CallerBuiltMessagesCannotGrowThePool) {
  // Messages whose vectors the caller allocated also return them, but
  // the pool keeps no more than the most messages ever in flight: after
  // five batches of eight, eight spare buffers, not forty.
  constexpr std::size_t kInFlight = 8;
  des::Scheduler scheduler;
  rng::Stream stream(42);
  Gateway gateway(scheduler, stream, SimTime::minutes(1.0));
  gateway.set_delivery_callback([](PhoneId, const MmsMessage&) {});
  for (int batch = 0; batch < 5; ++batch) {
    for (std::size_t i = 0; i < kInFlight; ++i) {
      gateway.submit(infected_message(0, {{static_cast<PhoneId>(i + 1), true}}));
    }
    scheduler.run_to_quiescence();
  }
  std::vector<std::vector<DialedRecipient>> taken;
  for (std::size_t i = 0; i <= kInFlight; ++i) taken.push_back(gateway.recipient_buffer());
  for (std::size_t i = 0; i < kInFlight; ++i) {
    EXPECT_GT(taken[i].capacity(), 0u) << "spare " << i << " should be a recycled buffer";
  }
  EXPECT_EQ(taken[kInFlight].capacity(), 0u) << "the pool held more than the peak in flight";
}

}  // namespace
}  // namespace mvsim::net
