// Scenario configuration: everything that defines one experiment.
//
// A ScenarioConfig fully determines the stochastic process; together
// with a replication seed it fully determines a run. Defaults are the
// paper's setup (§4.1): 1000 phones, 80% susceptible, power-law contact
// lists with mean size 80, one initially infected phone, eventual
// acceptance probability 0.40.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "graph/contact_graph.h"
#include "response/suite.h"
#include "util/sim_time.h"
#include "util/validation.h"
#include "virus/profile.h"

namespace mvsim::core {

struct TopologyConfig {
  enum class Kind : std::uint8_t {
    kPowerLaw,       ///< the paper's NGCE-style power-law contact lists
    kErdosRenyi,     ///< ablation: homogeneous random topology
    kRegularRing,    ///< ablation: maximally clustered local topology
    kBarabasiAlbert, ///< ablation: preferential-attachment scale-free
  };
  Kind kind = Kind::kPowerLaw;
  /// Target mean contact-list size (paper: 80).
  double mean_degree = 80.0;
  /// Power-law exponent (kPowerLaw only).
  double alpha = 2.0;
  /// Social-clustering knob (kPowerLaw only); see
  /// graph::PowerLawConfig::locality_jitter. At the paper's density
  /// (mean degree 80 over 1000 phones) the hub-heavy degree sequence
  /// already yields clustering ~0.26 and the epidemic results are
  /// insensitive to this knob (asserted by anchors.Abl1), so the
  /// default stays at the pure configuration model.
  double locality_jitter = 0.0;
  /// When set, every replication builds its contact graph from this
  /// seed instead of the per-replication topology seed — all
  /// replications then share one (cacheable, immutable) graph and
  /// vary only in susceptibility, patient zero and process noise.
  /// Unset (the default, and what every golden preset uses) keeps the
  /// historical behavior: a fresh graph per replication.
  std::optional<std::uint64_t> shared_seed;

  [[nodiscard]] ValidationErrors validate() const;
};

[[nodiscard]] const char* to_string(TopologyConfig::Kind kind);

/// Optional second propagation vector: the virus also pushes itself
/// over Bluetooth to phones in radio range (the real CommWarrior
/// spread over both MMS and Bluetooth). Proximity traffic never
/// transits the MMS gateway, so reception- and dissemination-point
/// mechanisms cannot see or stop it — quantifying that blind spot is
/// the point of anchors.ExtDual. With virus targeting kNone it is the
/// only vector (a Bluetooth-only worm, anchors.ExtBt).
struct ProximityChannelConfig {
  std::uint32_t grid_width = 16;
  std::uint32_t grid_height = 16;
  /// Mean dwell time before a phone moves to an adjacent cell.
  SimTime dwell_mean = SimTime::minutes(30.0);
  /// Mean time between an infected phone's Bluetooth victim scans.
  SimTime scan_interval_mean = SimTime::minutes(60.0);

  [[nodiscard]] ValidationErrors validate() const;
};

/// The most fixed-period steps one replication may take over its
/// horizon: curve points (`sample_step`), stats-stream samples
/// (`stats_period`) and sharded-engine windows (`delivery_delay_mean`)
/// each. A finer period would make a run allocate or loop without
/// bound — below half an ulp of the current time a period cannot
/// advance the clock at all.
inline constexpr std::uint64_t kMaxStepsPerReplication = 1'000'000;

/// True when `step` (positive) cuts `horizon` into at most
/// kMaxStepsPerReplication steps.
[[nodiscard]] inline bool within_step_limit(SimTime horizon, SimTime step) {
  return horizon / step <= static_cast<double>(kMaxStepsPerReplication);
}

/// "<period> must be >= horizon / 1000000 (at most 1000000 <steps> per
/// replication)": the one wording of a within_step_limit failure.
[[nodiscard]] std::string step_limit_message(const char* period, const char* steps);

struct ScenarioConfig {
  std::string name = "scenario";

  // -- Population (paper §4.1) --
  graph::PhoneId population = 1000;
  /// Fraction of phones running the vulnerable platform (paper: 0.8).
  double susceptible_fraction = 0.8;
  std::uint32_t initial_infected = 1;
  TopologyConfig topology;

  // -- User behavior (paper §4.4) --
  /// Eventual acceptance probability of the consent curve (paper
  /// baseline: 0.40, realized by Acceptance Factor 0.468). A
  /// user-education response overrides this.
  double eventual_acceptance = 0.40;
  /// Mean of the exponential inbox-to-decision delay.
  SimTime read_delay_mean = SimTime::minutes(60.0);
  /// Stop simulating decisions past this many received messages (the
  /// per-message acceptance probability is ~2^-n by then).
  int decision_cutoff = 40;

  // -- Network --
  /// Mean transit delay through the MMS gateway.
  SimTime delivery_delay_mean = SimTime::minutes(1.0);

  // -- Attack & defense --
  virus::VirusProfile virus = virus::virus1();
  /// When set, infected phones additionally spread over Bluetooth.
  std::optional<ProximityChannelConfig> proximity;
  response::ResponseSuiteConfig responses;

  // -- Observation --
  SimTime horizon = SimTime::hours(432.0);  // 18 days, Virus 1's scale
  SimTime sample_step = SimTime::hours(1.0);

  [[nodiscard]] ValidationErrors validate() const;

  /// How many phones run the vulnerable platform:
  /// round(susceptible_fraction x population). Validation and the
  /// population build both use it, so they agree on the count.
  [[nodiscard]] std::uint64_t susceptible_count() const;

  /// Expected plateau of an unconstrained epidemic:
  /// population x susceptible_fraction x eventual_acceptance
  /// (the paper's 1000 x 0.8 x 0.40 = 320).
  [[nodiscard]] double expected_unrestrained_plateau() const;
};

}  // namespace mvsim::core
