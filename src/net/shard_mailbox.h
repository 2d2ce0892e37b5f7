// Per-shard-pair mailboxes for cross-shard MMS deliveries.
//
// Under the sharded engine (core/sharded_simulation.h) a gateway that routes
// a recipient owned by another shard does not touch the remote
// scheduler directly — schedulers are single-threaded. It pushes a
// CrossShardDelivery into the (source, destination) mailbox instead;
// the coordinator drains every mailbox at the next window barrier and
// schedules the deliveries into the destination shards' queues. The
// conservative-lookahead protocol guarantees each entry's timestamp is
// at or past the barrier it is drained at, so no shard ever receives
// an event in its past.
//
// Determinism: each (src, dst) box is appended by exactly one shard in
// that shard's execution order, and drain() visits boxes in ascending
// source order — so the delivery sequence a destination sees is a pure
// function of the per-shard event sequences, independent of worker
// thread interleaving.
#pragma once

#include <cstdint>
#include <vector>

#include "net/message.h"
#include "util/sim_time.h"

namespace mvsim::net {

/// One MMS copy bound for a phone on another shard. The full
/// MmsMessage is not shipped: the destination only needs the fields
/// that drive reception, dispatch and tracing provenance.
struct CrossShardDelivery {
  SimTime at;            ///< delivery timestamp (>= the next barrier)
  PhoneId recipient = kInvalidPhoneId;
  PhoneId sender = kInvalidPhoneId;
  std::uint64_t sequence = kInvalidMessageId;
  bool infected = false;
};

class ShardMailboxGrid {
 public:
  explicit ShardMailboxGrid(std::uint32_t shards);

  [[nodiscard]] std::uint32_t shard_count() const { return shards_; }

  /// Called by shard `src` (from its worker thread) while it executes a
  /// window. No synchronization: box (src, dst) is written only by src
  /// and read only at barriers.
  void push(std::uint32_t src, std::uint32_t dst, CrossShardDelivery delivery);

  /// Drains every box addressed to `dst` in ascending source order,
  /// invoking `fn(delivery)` per entry in push (FIFO) order, then
  /// clears the boxes (capacity retained). Barrier-context only.
  template <typename Fn>
  void drain_to(std::uint32_t dst, Fn&& fn) {
    for (std::uint32_t src = 0; src < shards_; ++src) {
      std::vector<CrossShardDelivery>& box = boxes_[index(src, dst)];
      for (const CrossShardDelivery& d : box) fn(d);
      drained_ += box.size();
      box.clear();
    }
  }

  /// Entries currently sitting in some box (cheap scan; barrier-context).
  [[nodiscard]] bool empty() const;

  /// Lifetime totals, for the shard.mailbox.* metrics. pushed_total()
  /// is barrier-context only: the per-source counters it sums are
  /// written by the worker threads between barriers.
  [[nodiscard]] std::uint64_t pushed_total() const;
  [[nodiscard]] std::uint64_t drained_total() const { return drained_; }

 private:
  [[nodiscard]] std::size_t index(std::uint32_t src, std::uint32_t dst) const {
    return static_cast<std::size_t>(src) * shards_ + dst;
  }

  std::uint32_t shards_;
  std::vector<std::vector<CrossShardDelivery>> boxes_;  // [src * K + dst]
  // Push counts are kept per source shard — each slot is written by
  // exactly one worker thread, so no atomics are needed.
  std::vector<std::uint64_t> pushed_by_src_;
  std::uint64_t drained_ = 0;
};

}  // namespace mvsim::net
