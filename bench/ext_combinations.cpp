// EXT-COMBO: combinations of response mechanisms (paper §6 future work).
//
// "This work can be extended with an evaluation of combinations of
// reaction mechanisms, particularly when a response mechanism that
// only slows virus propagation requires a secondary mechanism to
// completely halt virus spread." This bench performs that evaluation
// against Virus 3 — the virus that defeats every single slow-to-
// activate mechanism on its own — over all strategies of up to two
// mechanisms drawn from the full six-mechanism kit, then prints the
// Pareto front over (mechanism count, final infections).
#include "bench_common.h"

#include "analysis/strategy.h"

using namespace mvsim;
using namespace mvsim::bench;

int main() {
  std::cout << "mvsim EXT-COMBO: combination strategies vs Virus 3 (paper section 6)\n";

  core::ScenarioConfig base = core::baseline_scenario(virus::virus3());

  // The kit: each mechanism at its paper-default configuration.
  response::ResponseSuiteConfig kit;
  kit.gateway_scan = response::GatewayScanConfig{};            // 6 h signature
  kit.gateway_detection = response::GatewayDetectionConfig{};  // 0.95, 6 h analysis
  kit.user_education = response::UserEducationConfig{};        // acceptance 0.20
  kit.immunization = response::ImmunizationConfig{};           // 24 h dev + 6 h rollout
  kit.monitoring = response::MonitoringConfig{};               // 30 min forced wait
  kit.blacklist = response::BlacklistConfig{};                 // 10 messages

  const analysis::StrategyStudy study =
      analysis::evaluate_strategies(base, kit, 2, default_options());

  std::cout << "strategy,mechanisms,final_infected,containment\n";
  for (const analysis::StrategyOutcome& outcome : study.outcomes) {
    std::cout << outcome.name << ',' << outcome.mechanisms << ','
              << fmt(outcome.final_infections) << ',' << fmt(100.0 * outcome.containment)
              << "%\n";
  }

  std::cout << "-- Pareto front (cheapest nondominated strategies) --\n";
  for (std::size_t index : study.pareto) {
    const analysis::StrategyOutcome& outcome = study.outcomes[index];
    std::cout << "  " << outcome.mechanisms << " mechanism(s): " << outcome.name << " -> "
              << fmt(outcome.final_infections) << " infected ("
              << fmt(100.0 * outcome.containment) << "% contained)\n";
  }
  return 0;
}
