// Struct-of-arrays population state (paper §4.1 at production scale).
//
// The seed-era layout was one 64-byte phone::Phone object per phone in
// a vector of objects, each holding an environment pointer, provenance
// copy and callback plumbing. At 10^6 phones that's cache-hostile and
// memory-bound before the scheduler matters. PhoneTable keeps the same
// receive/decide state machine but stores per-phone scalars in
// parallel compact vectors indexed by PhoneId:
//
//   flags     1 byte  — health state (2 bits) | susceptible | patched
//   received  4 bytes — infected messages received (consent curve "n")
//   pending   4 bytes — decisions currently scheduled
//
// 9 dense bytes per phone; infection time and provenance are delivered
// through the InfectionListener at the moment of infection instead of
// being stored per phone. The state machine operates on indices — a
// pending decision event carries (table, id, message_index, source),
// never a `this` pointer into a per-phone object.
//
// The table must not be relocated while decision events are in flight
// (events capture the table pointer), same stability contract the old
// never-reallocated phone vector had.
#pragma once

#include <cstdint>
#include <vector>

#include "phone/phone.h"

namespace mvsim::phone {

class PhoneTable {
 public:
  /// All phones start healthy, unpatched and non-susceptible; mark the
  /// vulnerable platform with set_susceptible before events run.
  /// Throws std::invalid_argument unless `env` (which must outlive the
  /// table) carries a scheduler, user stream and consent model.
  PhoneTable(PhoneId population, const PhoneEnvironment* env);

  /// Sharded construction: phone ids in [bounds[s], bounds[s+1]) use
  /// envs[s] — each shard's environment carries that shard's scheduler,
  /// user stream and listener, so a phone's decision events always run
  /// on its owner shard (core/sharded_simulation.h). `bounds` must cover
  /// [0, population) contiguously (size == envs.size() + 1, front 0,
  /// back == population); every env is validated like the single-env
  /// constructor. The table itself stays one global struct-of-arrays:
  /// ownership partitions *access* (only the owner shard touches an
  /// id's state), not storage.
  PhoneTable(PhoneId population, std::vector<const PhoneEnvironment*> envs,
             std::vector<PhoneId> bounds);

  [[nodiscard]] PhoneId size() const { return static_cast<PhoneId>(flags_.size()); }

  void set_susceptible(PhoneId id, bool susceptible);

  [[nodiscard]] HealthState state(PhoneId id) const {
    return static_cast<HealthState>(flags_[id] & kStateMask);
  }
  [[nodiscard]] bool susceptible(PhoneId id) const { return (flags_[id] & kSusceptibleBit) != 0; }
  [[nodiscard]] bool infected(PhoneId id) const { return state(id) == HealthState::kInfected; }
  [[nodiscard]] bool patched(PhoneId id) const { return (flags_[id] & kPatchedBit) != 0; }
  /// True once a patch has landed on an infected phone (the sending
  /// process checks this before every send).
  [[nodiscard]] bool propagation_stopped(PhoneId id) const { return patched(id); }

  /// Number of infected messages phone `id` has received so far (the
  /// "n" of the consent curve).
  [[nodiscard]] int infected_messages_received(PhoneId id) const {
    return static_cast<int>(received_[id]);
  }
  /// Infected messages sitting in the inbox awaiting a user decision.
  [[nodiscard]] int pending_decisions(PhoneId id) const { return static_cast<int>(pending_[id]); }

  /// An infected MMS reached this phone's inbox: schedules the user's
  /// accept/reject decision. `source` is carried along purely for
  /// provenance (who would have infected us, via what) and never
  /// influences the decision.
  void receive_infected_message(PhoneId id, InfectionSource source = {});

  /// Immunization patch arrives (paper §3.2). Healthy -> kImmunized;
  /// infected phones stay infected but `propagation_stopped()` flips,
  /// which the sending process observes. Idempotent.
  void apply_patch(PhoneId id);

  /// Directly infect (used to seed patient zero, and by tests).
  /// Returns true if the phone transitioned to kInfected.
  bool force_infect(PhoneId id);

  /// Heap footprint of the parallel arrays, for the bytes-per-phone
  /// budget the scale tests assert.
  [[nodiscard]] std::size_t memory_bytes() const {
    return flags_.capacity() * sizeof(std::uint8_t) +
           received_.capacity() * sizeof(std::uint32_t) +
           pending_.capacity() * sizeof(std::uint32_t);
  }
  /// Dense bytes the table stores per phone (the old array-of-objects
  /// layout held sizeof(Phone) == 64 bytes per phone).
  static constexpr std::size_t kBytesPerPhone =
      sizeof(std::uint8_t) + 2 * sizeof(std::uint32_t);

 private:
  bool try_infect(PhoneId id, const InfectionSource& source);
  /// Owner environment of `id`: the single env in serial runs (the
  /// overwhelmingly common case, kept branch-cheap), a range lookup
  /// over the shard bounds otherwise.
  [[nodiscard]] const PhoneEnvironment* env_for(PhoneId id) const {
    if (env_ != nullptr) return env_;
    std::size_t lo = 0, hi = envs_.size() - 1;
    while (lo < hi) {
      std::size_t mid = (lo + hi + 1) / 2;
      if (env_bounds_[mid] <= id) lo = mid; else hi = mid - 1;
    }
    return envs_[lo];
  }

  static constexpr std::uint8_t kStateMask = 0b0000'0011;
  static constexpr std::uint8_t kSusceptibleBit = 0b0000'0100;
  static constexpr std::uint8_t kPatchedBit = 0b0000'1000;

  const PhoneEnvironment* env_;  ///< non-null iff single-environment
  std::vector<const PhoneEnvironment*> envs_;  ///< sharded mode only
  std::vector<PhoneId> env_bounds_;            ///< sharded mode only
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint32_t> received_;
  std::vector<std::uint32_t> pending_;
};

}  // namespace mvsim::phone
