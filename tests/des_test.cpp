// Unit tests for src/des: scheduler ordering, cancellation, arena.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <utility>
#include <vector>

#include "des/calendar_queue.h"
#include "des/scheduler.h"

// Counting global allocator: this binary's allocation witness. Every
// operator new in des_test (the array and nothrow forms forward here)
// bumps the counter, so a test can require that a stretch of scheduler
// work performs no heap allocation at all, scratch buffers included.
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

namespace mvsim::des {
namespace {

/// Reference oracle for the calendar queue: the simplest structure that
/// meets the Scheduler's ordering contract — a binary min-heap over
/// (time, schedule order) — with lazy cancellation. A handle is the
/// event's schedule order; fired and cancelled events leave an empty
/// callback behind.
class HeapOracle {
 public:
  using Handle = std::size_t;

  Handle schedule_at(SimTime at, std::function<void()> fn) {
    const Handle handle = callbacks_.size();
    callbacks_.push_back(std::move(fn));
    heap_.push({at, handle});
    return handle;
  }
  Handle schedule_after(SimTime delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }
  bool cancel(Handle handle) {
    if (!callbacks_[handle]) return false;
    callbacks_[handle] = nullptr;
    ++cancelled_;
    return true;
  }
  void run_until(SimTime until) {
    while (!heap_.empty() && heap_.top().at <= until) fire_top();
    now_ = until;
  }
  void run_to_quiescence() {
    while (!heap_.empty()) fire_top();
  }
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t executed_count() const { return executed_; }
  [[nodiscard]] std::uint64_t cancelled_count() const { return cancelled_; }

 private:
  struct Entry {
    SimTime at;
    Handle order;
    // std::priority_queue is a max-heap, so invert to pop the minimum.
    friend bool operator<(const Entry& a, const Entry& b) {
      return a.at != b.at ? a.at > b.at : a.order > b.order;
    }
  };

  void fire_top() {
    const Entry top = heap_.top();
    heap_.pop();
    if (!callbacks_[top.order]) return;  // cancelled
    now_ = top.at;
    std::function<void()> fn = std::move(callbacks_[top.order]);
    callbacks_[top.order] = nullptr;
    ++executed_;
    fn();
  }

  SimTime now_ = SimTime::zero();
  std::priority_queue<Entry> heap_;
  std::vector<std::function<void()>> callbacks_;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
};

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), SimTime::zero());
  EXPECT_EQ(sched.pending_count(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(SimTime::minutes(30.0), [&] { order.push_back(3); });
  sched.schedule_at(SimTime::minutes(10.0), [&] { order.push_back(1); });
  sched.schedule_at(SimTime::minutes(20.0), [&] { order.push_back(2); });
  sched.run_until(SimTime::hours(1.0));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, EqualTimesFireInScheduleOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(SimTime::minutes(5.0), [&order, i] { order.push_back(i); });
  }
  sched.run_until(SimTime::minutes(5.0));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, ClockIsEventTimeDuringCallback) {
  Scheduler sched;
  SimTime observed;
  sched.schedule_at(SimTime::minutes(42.0), [&] { observed = sched.now(); });
  sched.run_until(SimTime::hours(2.0));
  EXPECT_EQ(observed, SimTime::minutes(42.0));
  EXPECT_EQ(sched.now(), SimTime::hours(2.0)) << "clock rests at the horizon";
}

TEST(Scheduler, ScheduleAfterIsRelative) {
  Scheduler sched;
  SimTime fired;
  sched.schedule_at(SimTime::minutes(10.0), [&] {
    sched.schedule_after(SimTime::minutes(5.0), [&] { fired = sched.now(); });
  });
  sched.run_until(SimTime::hours(1.0));
  EXPECT_EQ(fired, SimTime::minutes(15.0));
}

TEST(Scheduler, RejectsPastTimesAndNegativeDelays) {
  Scheduler sched;
  sched.schedule_at(SimTime::minutes(1.0), [] {});
  sched.run_until(SimTime::minutes(30.0));
  EXPECT_THROW(sched.schedule_at(SimTime::minutes(10.0), [] {}), std::invalid_argument);
  EXPECT_THROW(sched.schedule_after(SimTime::minutes(-1.0), [] {}), std::invalid_argument);
  EXPECT_THROW(sched.run_until(SimTime::minutes(10.0)), std::invalid_argument);
}

TEST(Scheduler, RejectsEmptyCallback) {
  Scheduler sched;
  EXPECT_THROW(sched.schedule_after(SimTime::zero(), Scheduler::Callback{}),
               std::invalid_argument);
}

TEST(Scheduler, RunUntilStopsBeforeLaterEvents) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(SimTime::minutes(10.0), [&] { ++fired; });
  sched.schedule_at(SimTime::minutes(50.0), [&] { ++fired; });
  sched.run_until(SimTime::minutes(30.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.pending_count(), 1u);
  sched.run_until(SimTime::minutes(60.0));
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, EventExactlyAtHorizonFires) {
  Scheduler sched;
  bool fired = false;
  sched.schedule_at(SimTime::minutes(30.0), [&] { fired = true; });
  sched.run_until(SimTime::minutes(30.0));
  EXPECT_TRUE(fired);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  EventHandle h = sched.schedule_at(SimTime::minutes(5.0), [&] { fired = true; });
  EXPECT_TRUE(sched.pending(h));
  EXPECT_TRUE(sched.cancel(h));
  EXPECT_FALSE(sched.pending(h));
  sched.run_until(SimTime::hours(1.0));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sched.cancelled_count(), 1u);
}

TEST(Scheduler, CancelTwiceReturnsFalse) {
  Scheduler sched;
  EventHandle h = sched.schedule_at(SimTime::minutes(5.0), [] {});
  EXPECT_TRUE(sched.cancel(h));
  EXPECT_FALSE(sched.cancel(h));
}

TEST(Scheduler, CancelAfterFireReturnsFalse) {
  Scheduler sched;
  EventHandle h = sched.schedule_at(SimTime::minutes(5.0), [] {});
  sched.run_until(SimTime::minutes(10.0));
  EXPECT_FALSE(sched.pending(h));
  EXPECT_FALSE(sched.cancel(h));
}

TEST(Scheduler, DefaultHandleIsInvalid) {
  Scheduler sched;
  EventHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(sched.pending(h));
  EXPECT_FALSE(sched.cancel(h));
}

TEST(Scheduler, StaleHandleAfterSlotReuseIsInert) {
  Scheduler sched;
  bool second_fired = false;
  EventHandle first = sched.schedule_at(SimTime::minutes(1.0), [] {});
  sched.run_until(SimTime::minutes(2.0));  // first fires; its slot recycles
  EventHandle second = sched.schedule_at(SimTime::minutes(5.0), [&] { second_fired = true; });
  // Cancelling the stale first handle must not hit the recycled slot.
  EXPECT_FALSE(sched.cancel(first));
  EXPECT_TRUE(sched.pending(second));
  sched.run_until(SimTime::minutes(10.0));
  EXPECT_TRUE(second_fired);
}

TEST(Scheduler, CancelDuringCallbackOfSameTime) {
  Scheduler sched;
  bool late_fired = false;
  EventHandle victim;
  sched.schedule_at(SimTime::minutes(5.0), [&] { sched.cancel(victim); });
  victim = sched.schedule_at(SimTime::minutes(5.0), [&] { late_fired = true; });
  sched.run_until(SimTime::minutes(6.0));
  EXPECT_FALSE(late_fired) << "same-instant FIFO: earlier event cancels the later one";
}

TEST(Scheduler, EventsCanScheduleAtSameInstant) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(SimTime::minutes(5.0), [&] {
    ++fired;
    sched.schedule_at(sched.now(), [&] { ++fired; });
  });
  sched.run_until(SimTime::minutes(5.0));
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, RunToQuiescenceDrainsChains) {
  Scheduler sched;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 100) sched.schedule_after(SimTime::minutes(1.0), chain);
  };
  sched.schedule_after(SimTime::zero(), chain);
  sched.run_to_quiescence();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(sched.pending_count(), 0u);
  EXPECT_EQ(sched.executed_count(), 100u);
}

TEST(Scheduler, PendingCountExcludesCancelled) {
  Scheduler sched;
  EventHandle h1 = sched.schedule_at(SimTime::minutes(1.0), [] {});
  sched.schedule_at(SimTime::minutes(2.0), [] {});
  EXPECT_EQ(sched.pending_count(), 2u);
  sched.cancel(h1);
  EXPECT_EQ(sched.pending_count(), 1u);
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler sched;
  SimTime last = SimTime::zero();
  bool monotone = true;
  // Deterministic pseudo-random times via a little LCG.
  std::uint64_t state = 12345;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    double t = static_cast<double>(state >> 40);
    sched.schedule_at(SimTime::minutes(t), [&, t] {
      if (sched.now() < last) monotone = false;
      last = sched.now();
      (void)t;
    });
  }
  sched.run_to_quiescence();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sched.executed_count(), 5000u);
}

// ---------------------------------------------------------------------------
// Calendar-queue-specific stress: both implementations must agree with the
// documented contract (time order, FIFO tie-break, generation-checked
// cancellation) under workloads that exercise the wheel's slice serving,
// overflow list, width re-fit, and rotation logic.

/// A huge same-time cohort, scheduled in order 0..n-1; returns the
/// order it fired in.
template <typename Queue>
std::vector<int> fifo_storm(Queue& queue, int n) {
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    queue.schedule_at(SimTime::minutes(30.0), [&order, i] { order.push_back(i); });
  }
  queue.run_to_quiescence();
  return order;
}

TEST(Scheduler, SameInstantFifoStormBothImpls) {
  // The cohort lands in one wheel bucket and must come back in exact
  // schedule order despite LIFO bucket chaining — as the oracle does.
  Scheduler wheel;
  HeapOracle oracle;
  std::vector<int> expected(5000);
  for (int i = 0; i < 5000; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(fifo_storm(wheel, 5000), expected);
  EXPECT_EQ(fifo_storm(oracle, 5000), expected);
}

TEST(Scheduler, FarHorizonEventsSpanManyRotations) {
  // Dense near-term traffic sets a small bucket width; the far events
  // then live many full wheel rotations (or the overflow list) away.
  Scheduler sched;
  std::vector<double> fired;
  for (int i = 0; i < 256; ++i) {
    double t = 1.0 + 0.001 * i;
    sched.schedule_at(SimTime::minutes(t), [&fired, t] { fired.push_back(t); });
  }
  const double far_minutes[] = {60.0, 24.0 * 60.0, 7.0 * 24.0 * 60.0, 365.0 * 24.0 * 60.0};
  for (double t : far_minutes) {
    sched.schedule_at(SimTime::minutes(t), [&fired, t] { fired.push_back(t); });
  }
  sched.run_to_quiescence();
  ASSERT_EQ(fired.size(), 260u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(fired.back(), 365.0 * 24.0 * 60.0);
}

TEST(Scheduler, CancelThenRescheduleReusesSlotSafely) {
  Scheduler sched;
  int fired = 0;
  EventHandle h = sched.schedule_at(SimTime::minutes(5.0), [&] { ++fired; });
  ASSERT_TRUE(sched.cancel(h));
  // The recycled slot gets a new generation; the old handle stays dead.
  EventHandle h2 = sched.schedule_at(SimTime::minutes(5.0), [&] { fired += 10; });
  EXPECT_FALSE(sched.cancel(h)) << "stale handle must not cancel the replacement";
  EXPECT_FALSE(sched.pending(h));
  EXPECT_TRUE(sched.pending(h2));
  sched.run_until(SimTime::minutes(6.0));
  EXPECT_EQ(fired, 10);
  // And again, from inside a callback at the same instant.
  EventHandle h3 = sched.schedule_at(SimTime::minutes(10.0), [&] { fired += 100; });
  sched.schedule_at(SimTime::minutes(10.0), [&] {
    // Runs first (FIFO would put h3 first, but h3 was scheduled first) —
    // so cancel-then-reschedule must target a *later* same-time event.
  });
  ASSERT_TRUE(sched.cancel(h3));
  EventHandle h4 = sched.schedule_at(SimTime::minutes(10.0), [&] { fired += 1000; });
  sched.run_until(SimTime::minutes(11.0));
  EXPECT_EQ(fired, 1010);
  EXPECT_FALSE(sched.cancel(h4));
}

TEST(Scheduler, RandomizedDifferentialWheelVsHeap) {
  // Drive the calendar queue and the heap oracle through an identical
  // random mix of schedules and cancellations; the observable fire
  // sequence (time, tag) must match element-for-element. This is the
  // strongest equivalence check we have short of the golden-curve test.
  Scheduler wheel;
  HeapOracle heap;
  std::vector<std::pair<double, int>> wheel_fired;
  std::vector<std::pair<double, int>> heap_fired;
  std::vector<EventHandle> wheel_handles;
  std::vector<HeapOracle::Handle> heap_handles;

  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next_rand = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };

  for (int i = 0; i < 20000; ++i) {
    std::uint64_t r = next_rand();
    if (r % 8 == 0 && !wheel_handles.empty()) {
      // Cancel the same (possibly stale) handle on both sides.
      std::size_t victim = r % wheel_handles.size();
      bool a = wheel.cancel(wheel_handles[victim]);
      bool b = heap.cancel(heap_handles[victim]);
      ASSERT_EQ(a, b) << "cancel outcome diverged at op " << i;
    } else {
      // Cluster delays to force same-instant ties (integer minutes) and
      // occasionally fling one far out to rotate the wheel. Relative
      // scheduling keeps times valid as the interleaved draining below
      // advances both clocks in lockstep.
      double t = static_cast<double>(r % 512);
      if (r % 97 == 0) t += 1.0e6;
      int tag = i;
      wheel_handles.push_back(wheel.schedule_after(
          SimTime::minutes(t), [&wheel_fired, t, tag] { wheel_fired.emplace_back(t, tag); }));
      heap_handles.push_back(heap.schedule_after(
          SimTime::minutes(t), [&heap_fired, t, tag] { heap_fired.emplace_back(t, tag); }));
    }
    // Interleave partial draining so cancellation hits both pending and
    // already-fired events, and the wheel serves from a live slice.
    if (r % 139 == 0) {
      SimTime upto = wheel.now() + SimTime::minutes(static_cast<double>(r % 256));
      wheel.run_until(upto);
      heap.run_until(upto);
    }
  }
  wheel.run_to_quiescence();
  heap.run_to_quiescence();
  ASSERT_EQ(wheel_fired.size(), heap_fired.size());
  for (std::size_t i = 0; i < wheel_fired.size(); ++i) {
    ASSERT_EQ(wheel_fired[i], heap_fired[i]) << "fire order diverged at index " << i;
  }
  EXPECT_EQ(wheel.executed_count(), heap.executed_count());
  EXPECT_EQ(wheel.cancelled_count(), heap.cancelled_count());
}

TEST(Scheduler, CancelReclaimsRecordsEagerly) {
  // cancel() unlinks the queue entry and recycles the pooled record at
  // once, so the next schedules reuse the freed slots.
  Scheduler sched;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(sched.schedule_at(SimTime::minutes(static_cast<double>(i + 1)), [] {}));
  }
  for (std::size_t i = 0; i < handles.size(); i += 2) sched.cancel(handles[i]);
  EXPECT_EQ(sched.cancelled_count(), 50u);
  EXPECT_EQ(sched.pending_count(), 50u);
  const std::uint64_t recycled_before = sched.arena_recycled_count();
  for (int i = 0; i < 50; ++i) {
    sched.schedule_at(SimTime::minutes(200.0 + static_cast<double>(i)), [] {});
  }
  EXPECT_EQ(sched.arena_recycled_count() - recycled_before, 50u)
      << "cancelled records are recycled at cancel()";
  sched.run_to_quiescence();
  EXPECT_EQ(sched.executed_count(), 100u);
}

TEST(Scheduler, SteadyStateSchedulesWithoutAllocating) {
  // After warmup the schedule→fire→recycle cycle must be allocation-free:
  // the arena never grows a new chunk and every callback fits inline.
  Scheduler sched;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 64; ++i) {
      sched.schedule_after(SimTime::minutes(1.0 + i), [] {});
    }
    sched.run_to_quiescence();
  }
  const std::size_t warm_chunks = sched.arena_chunk_count();
  const std::uint64_t recycled_before = sched.arena_recycled_count();
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 64; ++i) {
      sched.schedule_after(SimTime::minutes(1.0 + i), [] {});
    }
    sched.run_to_quiescence();
  }
  EXPECT_EQ(sched.arena_chunk_count(), warm_chunks) << "arena grew in steady state";
  EXPECT_GT(sched.arena_recycled_count(), recycled_before) << "slots must be recycled";
  EXPECT_EQ(sched.callback_heap_fallback_count(), 0u)
      << "every hot-path callback must fit the inline buffer";
}

// ---------------------------------------------------------------------------
// Dense slices. The calendar width is fitted to the whole pending span,
// so a served slice holds tens to hundreds of entries; the queue puts
// them in (at, seq) order with a counting pass and one insertion pass.
// These tests drive that path at the densities the workloads see.

/// Hold-model workload for DenseSlicesMatchHeapOracle, run identically
/// on either queue. 1000 "hold" events each reschedule one successor at
/// an exponential delay (mean 10 min), so about 100 entries share every
/// 1-minute slice. Leaves ride along: integer-minute ties, far 24-h
/// events (they stretch the span the width is fitted to, keeping slices
/// dense after a rebuild), and near "victims" that a later callback
/// cancels while their slice is being served. For a stretch of fires
/// holds branch, pushing the pending count past 2048, so grow()
/// rebuilds from inside a callback, mid-serve. The log records each
/// fire as (time, tag) and each cancel as (-1 or -2 for its outcome,
/// tag).
template <typename Queue, typename Handle>
class DenseSliceRun {
 public:
  using Log = std::vector<std::pair<double, int>>;

  Log run() {
    for (int i = 0; i < 1000; ++i) add(SimTime::minutes(exp_delay()), kHold);
    for (int step = 0; fires_ < kFires; ++step) {
      // Partial drains that stop inside a slice, then inserts from
      // outside any callback: they land in (or before) the slice the
      // stopped run_until left extracted.
      const double stride = 0.37 + 0.01 * static_cast<double>(step % 13);
      queue_.run_until(queue_.now() + SimTime::minutes(stride));
      add(queue_.now() + SimTime::minutes(0.0005 * static_cast<double>(step % 5)), kLeaf);
      if (step % 3 == 0) cancel(static_cast<std::size_t>(next() % handles_.size()));
    }
    queue_.run_to_quiescence();
    return log_;
  }

  [[nodiscard]] const Queue& queue() const { return queue_; }

 private:
  enum Kind : std::uint8_t { kHold, kLeaf };
  static constexpr int kFires = 40000;

  std::uint64_t next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  double exp_delay() {
    const double u = (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
    return -10.0 * std::log(u);
  }
  void add(SimTime at, Kind kind) {
    const int tag = static_cast<int>(handles_.size());
    kinds_.push_back(kind);
    handles_.push_back(queue_.schedule_at(at, [this, tag] { fire(tag); }));
  }
  void cancel(std::size_t index) {
    const bool cancelled = queue_.cancel(handles_[index]);
    log_.emplace_back(cancelled ? -2.0 : -1.0, static_cast<int>(index));
  }
  void fire(int tag) {
    const SimTime now = queue_.now();
    log_.emplace_back(now.to_minutes(), tag);
    ++fires_;
    // Holds stop rescheduling once the quota is met, so the final
    // run_to_quiescence() drains.
    if (kinds_[static_cast<std::size_t>(tag)] != kHold || fires_ >= kFires) return;
    add(now + SimTime::minutes(exp_delay()), kHold);
    if (fires_ > 5000 && fires_ <= 9000 && fires_ % 2 == 0) {
      add(now + SimTime::minutes(exp_delay()), kHold);  // branch: grow mid-serve
    }
    switch (next() % 32) {
      case 1:
        add(SimTime::minutes(std::floor(now.to_minutes()) + 1.0 +
                             static_cast<double>(next() % 3)),
            kLeaf);
        break;
      case 2:
        victims_.push_back(handles_.size());
        add(now + SimTime::minutes(0.05 * static_cast<double>(next() % 7)), kLeaf);
        break;
      case 3:
        if (!victims_.empty()) {
          cancel(victims_.back());
          victims_.pop_back();
        }
        break;
      case 4:
        add(now + SimTime::minutes(24.0 * 60.0), kLeaf);
        break;
      default:
        break;
    }
  }

  Queue queue_;
  std::uint64_t state_ = 0x2545F4914F6CDD1DULL;
  int fires_ = 0;
  std::vector<Handle> handles_;
  std::vector<Kind> kinds_;
  std::vector<std::size_t> victims_;
  Log log_;
};

TEST(Scheduler, DenseSlicesMatchHeapOracle) {
  DenseSliceRun<Scheduler, EventHandle> wheel;
  DenseSliceRun<HeapOracle, HeapOracle::Handle> heap;
  const auto wheel_log = wheel.run();
  const auto heap_log = heap.run();
  ASSERT_EQ(wheel_log.size(), heap_log.size());
  for (std::size_t i = 0; i < wheel_log.size(); ++i) {
    ASSERT_EQ(wheel_log[i], heap_log[i]) << "diverged at log entry " << i;
  }
  EXPECT_EQ(wheel.queue().executed_count(), heap.queue().executed_count());
  EXPECT_EQ(wheel.queue().cancelled_count(), heap.queue().cancelled_count());
  EXPECT_GT(wheel.queue().peak_pending_count(), 2048u) << "the branching stretch must grow()";

  // The slices really were dense (before the rebuild the width is one
  // minute, so minute 30 is one slice), and the interesting paths were
  // taken: same-instant ties and cancels that found their entry.
  std::size_t in_minute_30 = 0;
  std::size_t ties = 0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < wheel_log.size(); ++i) {
    const double at = wheel_log[i].first;
    if (at >= 30.0 && at < 31.0) ++in_minute_30;
    if (i > 0 && at >= 0.0 && at == wheel_log[i - 1].first) ++ties;
    if (at == -2.0) ++hits;
  }
  EXPECT_GE(in_minute_30, 64u);
  EXPECT_GT(ties, 100u);
  EXPECT_GT(hits, 100u);
}

TEST(CalendarQueue, CountingPassClampsAnOffsetThatRoundsToTheSliceEnd) {
  // The counting pass keys an entry of slice s by at * (inv * n) - s * n
  // (clamped to [0, n - 1]), where n is the slice size. Find an `at`
  // inside slice s whose key rounds to n itself, put it in a slice of n
  // entries, and require exact (at, seq) order back. Without the clamp
  // the key indexes one past the sub-slice table, which a bounds-checked
  // build (-D_GLIBCXX_ASSERTIONS) stops here.
  CalendarQueue queue;
  std::uint64_t seq = 0;
  std::uint32_t id = 0;
  for (int i = 0; i <= 2048; ++i) queue.insert(0.37 * i, seq++, id++);  // fits a width
  ASSERT_EQ(queue.rebuild_count(), 1u);
  while (!queue.empty()) queue.pop_front();
  const double width = queue.bucket_width();
  ASSERT_NE(width, 1.0);
  const double inv = 1.0 / width;

  constexpr std::size_t kSliceSize = 40;  // above the insertion-sort cutoff
  const double n = static_cast<double>(kSliceSize);
  double edge = 0.0;
  double slice = 0.0;
  for (double s = 2000.0; s < 200000.0 && edge == 0.0; s += 1.0) {
    // The last `at` whose slice index is still s.
    double at = (s + 1.0) * width;
    while (std::floor(at * inv) > s) at = std::nextafter(at, 0.0);
    if (std::floor(at * inv) == s && at * (inv * n) - s * n >= n) {
      edge = at;
      slice = s;
    }
  }
  ASSERT_NE(edge, 0.0) << "no slice end rounds up at this width";

  std::vector<CalendarQueue::Entry> expected;
  for (std::size_t k = 0; k + 1 < kSliceSize; ++k) {
    const double at = (slice + (static_cast<double>(k) + 0.5) / n) * width;
    ASSERT_EQ(std::floor(at * inv), slice);
    expected.push_back({at, seq, id});
    queue.insert(at, seq++, id++);
    if (k == kSliceSize / 2) {  // the edge entry arrives mid-slice
      expected.push_back({edge, seq, id});
      queue.insert(edge, seq++, id++);
    }
  }
  std::sort(expected.begin(), expected.end(), [](const auto& a, const auto& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  });
  ASSERT_EQ(queue.size(), kSliceSize);
  for (const CalendarQueue::Entry& want : expected) {
    const CalendarQueue::Entry* got = queue.peek();
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->at, want.at);
    EXPECT_EQ(got->seq, want.seq);
    EXPECT_EQ(got->id, want.id);
    queue.pop_front();
  }
  EXPECT_TRUE(queue.empty());
}

/// A self-rescheduling hold event: trivially copyable, so it lives in
/// EventFn's inline buffer and rescheduling it allocates nothing.
struct HoldEvent {
  Scheduler* sched;
  std::uint64_t* rng;
  void operator()() const {
    std::uint64_t& x = *rng;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double u = (static_cast<double>(x >> 11) + 0.5) * 0x1.0p-53;
    sched->schedule_after(SimTime::minutes(-10.0 * std::log(u)), *this);
  }
};

TEST(Scheduler, DenseSlicesServeWithoutHeapAllocations) {
  // 800 pending holds at a mean delay of 10 min: ~80 entries per
  // 1-minute slice, below the 2048-entry grow trigger so the width stays
  // one minute. The warm-up sizes every pool and scratch buffer: they
  // settle once they hold the densest slice seen, and at 80 +- 9 entries
  // a slice that outgrows them again is a five-sigma event. After it,
  // 10^5 further events must not allocate even once.
  Scheduler sched;
  std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 800; ++i) HoldEvent{&sched, &rng}();
  sched.run_until(SimTime::minutes(400.0));  // warm-up: ~32,000 events

  const std::uint64_t executed_before = sched.executed_count();
  const std::uint64_t allocations_before = g_heap_allocations.load();
  sched.run_until(SimTime::minutes(1700.0));
  const std::uint64_t allocations = g_heap_allocations.load() - allocations_before;
  const std::uint64_t executed = sched.executed_count() - executed_before;

  EXPECT_GE(executed, 100000u);
  EXPECT_GE(executed / 1300, 64u) << "events per 1-minute slice";
  EXPECT_EQ(allocations, 0u) << "the steady state must not touch the heap";
  EXPECT_EQ(sched.pending_count(), 800u);
}

}  // namespace
}  // namespace mvsim::des
