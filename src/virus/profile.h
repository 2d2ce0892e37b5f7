// Parameterized virus behavior (paper §4.1-§4.2).
//
// VirusProfile captures every knob the paper's "highly parameterized"
// Möbius model exposes for the attacker: how targets are picked, how
// often messages go out, how many recipients per message, what sending
// budget the virus imposes on itself, dormancy, and whether sending is
// active or piggybacks on legitimate traffic. The four illustrative
// viruses of §4.2 are provided as presets.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "util/sim_time.h"
#include "util/validation.h"

namespace mvsim::virus {

/// How the virus picks its next victims (§4.1: contact lists of
/// infected phones, or randomly selected mobile phone numbers).
enum class TargetingMode : std::uint8_t {
  kContactList,
  kRandomDialing,
  /// No MMS arm at all: the virus spreads only over the scenario's
  /// proximity (Bluetooth) channel, like a Cabir-style worm (§6).
  kNone,
};

/// Self-imposed throttle on outgoing infected messages.
enum class BudgetKind : std::uint8_t {
  kUnlimited,       ///< Virus 3: no daily limit
  kPerReboot,       ///< Virus 1: N messages between phone reboots
  kPerDayAligned,   ///< Virus 2: N messages per 24-hour period (period
                    ///< boundaries shared by all phones, which produces
                    ///< the paper's step-like Virus 2 curve)
};

/// When the virus actually transmits.
enum class SendTrigger : std::uint8_t {
  kActive,     ///< sends on its own timer as soon as allowed
  kPiggyback,  ///< Virus 4: rides the phone's legitimate MMS activity
};

struct VirusProfile {
  std::string name = "custom";

  TargetingMode targeting = TargetingMode::kContactList;
  /// Fraction of randomly dialed numbers that are live subscribers
  /// (paper: one third for the French numbering plan). Only used when
  /// targeting == kRandomDialing.
  double valid_number_fraction = 1.0 / 3.0;

  /// Minimum wait the virus observes between consecutive messages.
  SimTime min_message_gap = SimTime::minutes(30.0);
  /// Mean of the random extra wait added on top of the minimum gap
  /// ("at least 30 minutes" is a floor, not a cadence). Exponential.
  SimTime extra_gap_mean = SimTime::minutes(5.0);

  /// Maximum recipients addressed by one MMS (Virus 2: up to 100).
  std::uint32_t recipients_per_message = 1;

  BudgetKind budget = BudgetKind::kUnlimited;
  /// Message allowance per budget window (ignored for kUnlimited).
  std::uint32_t budget_limit = 30;
  /// Window length for kPerDayAligned; also the mean time between
  /// reboots for kPerReboot (paper: ~24 hours, exponential).
  SimTime budget_window = SimTime::hours(24.0);
  /// kPerDayAligned only: a newly infected phone holds its first burst
  /// until the start of the next aligned period. This reproduces the
  /// paper's Virus 2 dynamics — "those 30 messages are all sent very
  /// near the start of each 24-hour period", which makes each period
  /// one infection generation and yields the step-like curve of Fig. 1.
  bool align_first_burst = false;
  /// kPerDayAligned + kContactList only: within one period the virus
  /// addresses each contact at most once, pausing until the next
  /// period once the whole list is covered. Without this, a
  /// multi-recipient burst re-spams every contact ~30x per day and the
  /// consent curve saturates within two days — incompatible with the
  /// paper's 10-day Virus 2 time scale and with Figure 3, where a
  /// 95%-accurate filter visibly starves the spread (only possible if
  /// per-contact message volume is ~1/day).
  bool one_pass_per_window = false;

  /// Time between infection and the first propagation attempt
  /// (Virus 4: one hour; zero for the others, which begin
  /// "immediately").
  SimTime dormancy = SimTime::zero();

  SendTrigger trigger = SendTrigger::kActive;
  /// Mean gap between legitimate MMS events the piggybacking virus
  /// rides (paper gives no number; see DESIGN.md substitutions).
  SimTime legit_traffic_gap_mean = SimTime::hours(2.0);

  [[nodiscard]] ValidationErrors validate() const;
};

/// Virus 1 (§4.2): contact list, >=30 min gap, single recipient,
/// 30 messages per reboot, immediate start. CommWarrior-like.
[[nodiscard]] VirusProfile virus1();

/// Virus 2: contact list, >=1 min gap, up to 100 recipients/message,
/// 30 messages per aligned 24-hour period — aggressive and bursty.
[[nodiscard]] VirusProfile virus2();

/// Virus 3: random dialing (1/3 valid), >=1 min gap, single recipient,
/// no budget — the rapid spreader.
[[nodiscard]] VirusProfile virus3();

/// Virus 4: stealthy — 1 h dormancy, piggybacks on legitimate traffic,
/// >=30 min gap, contact list, single recipient.
[[nodiscard]] VirusProfile virus4();

/// The standard suite in paper order {virus1..virus4}.
[[nodiscard]] std::array<VirusProfile, 4> paper_virus_suite();

}  // namespace mvsim::virus
