// Target selection strategies (paper §4.1: "the propagation process can
// identify new target phones either by using the contact lists of
// infected phones or by randomly selecting mobile phone numbers").
#pragma once

#include <span>
#include <vector>

#include "net/message.h"
#include "rng/stream.h"

namespace mvsim::virus {

using net::DialedRecipient;
using net::PhoneId;

/// Common interface: produce the recipient list of the next message.
class Targeter {
 public:
  virtual ~Targeter() = default;
  /// Appends up to `count` recipients to `out` (fewer only if the
  /// source has none at all). The caller owns `out`, so a recycled
  /// buffer (net::Gateway::recipient_buffer) costs no allocation.
  virtual void next_targets(std::uint32_t count, std::vector<DialedRecipient>& out) = 0;
  /// Number of distinct destinations the targeter can produce before it
  /// must repeat one (SIZE_MAX when effectively unbounded, e.g. random
  /// dialing). Used by one-pass-per-window viruses.
  [[nodiscard]] virtual std::size_t universe_size() const = 0;
};

/// Round-robin over a shuffled copy of the infected phone's contact
/// list, reshuffling after each full pass. The cycle repeats forever:
/// real MMS worms (CommWarrior) keep re-spamming the same contacts, and
/// the paper's plateau math (eventual acceptance 0.40) depends on every
/// contact receiving "enough" messages.
class ContactListTargeter final : public Targeter {
 public:
  ContactListTargeter(std::span<const PhoneId> contacts, rng::Stream& stream);

  void next_targets(std::uint32_t count, std::vector<DialedRecipient>& out) override;
  [[nodiscard]] std::size_t universe_size() const override { return contacts_.size(); }

  [[nodiscard]] std::size_t contact_count() const { return contacts_.size(); }

 private:
  std::vector<PhoneId> contacts_;
  std::size_t cursor_ = 0;
  rng::Stream* stream_;
};

/// Dials uniformly random numbers in the mobile prefix; a dialed number
/// is a live subscriber with probability `valid_fraction`, in which
/// case it maps to a uniformly random phone other than the sender.
class RandomDialTargeter final : public Targeter {
 public:
  RandomDialTargeter(PhoneId self, PhoneId population, double valid_fraction,
                     rng::Stream& stream);

  void next_targets(std::uint32_t count, std::vector<DialedRecipient>& out) override;
  [[nodiscard]] std::size_t universe_size() const override { return SIZE_MAX; }

 private:
  PhoneId self_;
  PhoneId population_;
  double valid_fraction_;
  rng::Stream* stream_;
};

}  // namespace mvsim::virus
