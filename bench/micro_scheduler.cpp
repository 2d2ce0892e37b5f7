// MICRO: scheduler-internals microbenchmarks.
//
// Not a paper figure. Where micro_engine measures the scheduler as the
// simulation uses it (fresh scheduler, modest queue), these cases load
// the calendar queue on its own:
//
//   churn/*        steady-state schedule+fire cycles at a held queue
//                  depth D; the wheel's O(1) pop keeps the per-pair
//                  cost flat as D grows.
//   queue_only/*   the same hold model on the bare CalendarQueue, with
//                  the arena, EventFn and dispatch costs stripped away.
//   cancel_churn/* schedule-then-cancel rounds that never fire; the
//                  wheel unlinks and recycles at cancel() time.
//   arena_cycle    the schedule→fire→recycle loop on one long-lived
//                  scheduler, with a hard zero-allocation witness:
//                  the run aborts if the arena grows a chunk or any
//                  callback spills to the heap after warmup.
//   rng/*          batched Stream draws vs single-draw engine calls.
//
// The per-case numbers land in BENCH_micro_scheduler.json like every
// other bench.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"
#include "des/calendar_queue.h"
#include "des/scheduler.h"
#include "rng/stream.h"

namespace {

using namespace mvsim;

// Keeps a computed value alive so the optimizer cannot delete the work.
volatile std::uint64_t g_sink = 0;

constexpr std::uint64_t kLcgMul = 6364136223846793005ULL;
constexpr std::uint64_t kLcgAdd = 1442695040888963407ULL;

/// Shared state for the self-replacing churn event. The callback is a
/// trivially copyable 8-byte struct, so it rides EventFn's inline
/// trivial fast path — exactly like the simulation's own hot events.
struct ChurnCtx {
  des::Scheduler* sched;
  std::uint64_t state;
  std::uint64_t remaining;
  std::uint64_t delay_span;  // replacement delays uniform in [1, span]
};

struct ChurnTick {
  ChurnCtx* ctx;
  void operator()() const {
    if (ctx->remaining == 0) return;
    --ctx->remaining;
    ctx->state = ctx->state * kLcgMul + kLcgAdd;
    double delay = static_cast<double>((ctx->state >> 33) % ctx->delay_span) + 1.0;
    ctx->sched->schedule_after(SimTime::minutes(delay), ChurnTick{ctx});
  }
};

/// The classic hold model: keep `depth` events pending, pop the
/// earliest, push a replacement a uniform-random delay ahead — for
/// `churn_ops` pairs, then drain. Replacement delays span `depth`
/// minutes so the pending set stays uniformly spread at every depth;
/// every executed event is one pop plus (until the quota runs out) one
/// push, so events/sec ≈ sustained pair throughput.
std::uint64_t churn_at_depth(std::uint64_t depth, std::uint64_t churn_ops) {
  des::Scheduler sched;
  ChurnCtx ctx{&sched, 0x9e3779b97f4a7c15ULL, churn_ops, depth};
  for (std::uint64_t i = 0; i < depth; ++i) {
    ctx.state = ctx.state * kLcgMul + kLcgAdd;
    double at = static_cast<double>((ctx.state >> 33) % depth) + 1.0;
    sched.schedule_at(SimTime::minutes(at), ChurnTick{&ctx});
  }
  sched.run_to_quiescence();
  g_sink = sched.executed_count();
  return sched.executed_count();
}

/// Rounds of (schedule a burst, cancel the whole burst). Nothing ever
/// fires, so the measured cost is pure queue bookkeeping; the reported
/// events count schedules + cancels.
std::uint64_t cancel_churn(int rounds, int burst) {
  des::Scheduler sched;
  std::vector<des::EventHandle> handles;
  handles.reserve(static_cast<std::size_t>(burst));
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  for (int round = 0; round < rounds; ++round) {
    handles.clear();
    for (int i = 0; i < burst; ++i) {
      state = state * kLcgMul + kLcgAdd;
      double at = static_cast<double>((state >> 33) % 4096) + 1.0;
      handles.push_back(sched.schedule_at(SimTime::minutes(at), [] {}));
    }
    for (des::EventHandle h : handles) sched.cancel(h);
  }
  sched.run_to_quiescence();
  g_sink = sched.arena_recycled_count();
  return sched.cancelled_count() * 2;
}

/// Steady-state schedule→fire→recycle on one long-lived scheduler.
/// Aborts the bench if the cycle allocates after warmup — this is the
/// executable form of the "zero heap allocations per event in steady
/// state" contract.
std::uint64_t arena_cycle() {
  des::Scheduler sched;
  constexpr int kWarmupRounds = 4;
  constexpr int kRounds = 400;
  constexpr int kBurst = 512;
  auto one_round = [&sched] {
    for (int i = 0; i < kBurst; ++i) {
      sched.schedule_after(SimTime::minutes(static_cast<double>(i % 97) + 1.0), [] {});
    }
    sched.run_to_quiescence();
  };
  for (int round = 0; round < kWarmupRounds; ++round) one_round();
  const std::size_t warm_chunks = sched.arena_chunk_count();
  for (int round = 0; round < kRounds; ++round) one_round();
  if (sched.arena_chunk_count() != warm_chunks || sched.callback_heap_fallback_count() != 0) {
    std::fprintf(stderr,
                 "arena_cycle: steady state allocated (chunks %zu -> %zu, heap fallbacks %llu)\n",
                 warm_chunks, sched.arena_chunk_count(),
                 static_cast<unsigned long long>(sched.callback_heap_fallback_count()));
    std::abort();
  }
  g_sink = sched.arena_recycled_count();
  return sched.executed_count();
}

/// Hold model on the bare calendar queue: pop the minimum, push a
/// replacement a uniform-random delay (spanning `depth` minutes) ahead.
std::uint64_t queue_only_wheel(std::uint64_t depth, std::uint64_t ops) {
  des::CalendarQueue q;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  std::uint64_t seq = 0;
  for (std::uint64_t i = 0; i < depth; ++i) {
    state = state * kLcgMul + kLcgAdd;
    q.insert(static_cast<double>((state >> 33) % depth) + 1.0, seq, static_cast<std::uint32_t>(seq));
    ++seq;
  }
  double checksum = 0.0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const des::CalendarQueue::Entry* top = q.peek();
    double now = top->at;
    checksum += now;
    q.pop_front();
    state = state * kLcgMul + kLcgAdd;
    q.insert(now + static_cast<double>((state >> 33) % depth) + 1.0, seq,
             static_cast<std::uint32_t>(seq));
    ++seq;
  }
  while (q.size() > 0) q.pop_front();
  g_sink = static_cast<std::uint64_t>(checksum);
  return ops + depth;
}

constexpr std::uint64_t kRngDraws = 20'000'000;

/// Stream's buffered path: one bulk engine fill per 64 draws.
std::uint64_t rng_batched() {
  rng::Stream stream(1234);
  double sum = 0.0;
  for (std::uint64_t i = 0; i < kRngDraws; ++i) sum += stream.uniform01();
  g_sink = static_cast<std::uint64_t>(sum);
  return kRngDraws;
}

/// The pre-batching shape: one counted engine call per draw.
std::uint64_t rng_unbatched() {
  rng::Xoshiro256 engine(1234);
  double sum = 0.0;
  for (std::uint64_t i = 0; i < kRngDraws; ++i) {
    sum += static_cast<double>(engine() >> 11) * 0x1.0p-53;
  }
  g_sink = static_cast<std::uint64_t>(sum);
  return kRngDraws;
}

}  // namespace

int main() {
  bench::Harness harness("micro_scheduler", {.warmup = 1, .repeat = 5});

  const std::uint64_t kChurnOps = 200'000;
  for (std::uint64_t depth : {1'000ULL, 10'000ULL, 100'000ULL}) {
    harness.run_case("churn/wheel/depth_" + std::to_string(depth),
                     [depth, kChurnOps] { return churn_at_depth(depth, kChurnOps); });
  }
  const std::uint64_t kBareOps = 1'000'000;
  for (std::uint64_t depth : {1'000ULL, 10'000ULL, 100'000ULL, 1'000'000ULL}) {
    harness.run_case("queue_only/wheel/depth_" + std::to_string(depth),
                     [depth, kBareOps] { return queue_only_wheel(depth, kBareOps); });
  }
  harness.run_case("cancel_churn/wheel", [] { return cancel_churn(200, 1000); });
  harness.run_case("arena_cycle", arena_cycle);
  harness.run_case("rng/batched", rng_batched);
  harness.run_case("rng/unbatched", rng_unbatched);

  harness.write_report();
  return 0;
}
