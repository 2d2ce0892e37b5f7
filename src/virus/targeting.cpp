#include "virus/targeting.h"

#include <stdexcept>

namespace mvsim::virus {

ContactListTargeter::ContactListTargeter(std::span<const PhoneId> contacts, rng::Stream& stream)
    : contacts_(contacts.begin(), contacts.end()), stream_(&stream) {
  stream_->shuffle(std::span<PhoneId>(contacts_));
}

void ContactListTargeter::next_targets(std::uint32_t count, std::vector<DialedRecipient>& out) {
  if (contacts_.empty()) return;
  // One message never addresses the same contact twice, so a single
  // message covers at most the whole contact list.
  std::uint32_t take = count;
  if (take > contacts_.size()) take = static_cast<std::uint32_t>(contacts_.size());
  out.reserve(out.size() + take);
  for (std::uint32_t i = 0; i < take; ++i) {
    if (cursor_ == contacts_.size()) {
      stream_->shuffle(std::span<PhoneId>(contacts_));
      cursor_ = 0;
    }
    out.push_back(DialedRecipient{contacts_[cursor_++], true});
  }
}

RandomDialTargeter::RandomDialTargeter(PhoneId self, PhoneId population, double valid_fraction,
                                       rng::Stream& stream)
    : self_(self), population_(population), valid_fraction_(valid_fraction), stream_(&stream) {
  if (population < 2) throw std::invalid_argument("RandomDialTargeter: population must be >= 2");
  if (!(valid_fraction > 0.0) || valid_fraction > 1.0) {
    throw std::invalid_argument("RandomDialTargeter: valid_fraction must be in (0, 1]");
  }
}

void RandomDialTargeter::next_targets(std::uint32_t count, std::vector<DialedRecipient>& out) {
  out.reserve(out.size() + count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!stream_->bernoulli(valid_fraction_)) {
      out.push_back(DialedRecipient{0, false});
      continue;
    }
    // Uniform over live subscribers other than the dialer itself.
    auto pick = static_cast<PhoneId>(stream_->uniform_index(population_ - 1));
    if (pick >= self_) ++pick;
    out.push_back(DialedRecipient{pick, true});
  }
}

}  // namespace mvsim::virus
