// Conservation audit for one replication: the counters a run reports
// must balance against each other and against the scenario, whatever
// the seed. Test-only; golden_test and distribution_test call it on
// every replication they run.
//
// It reads counters by name from ReplicationResult::metrics and checks:
//  - core.infections == total_infected == the infection series' last value;
//  - total_infected <= the scenario's susceptible count;
//  - net.messages_blocked and net.infected_messages_submitted are each
//    <= net.messages_submitted;
//  - net.messages_blocked == the sum of the response.*.messages_blocked
//    counters (every gateway block is some filter's);
//  - core.phones_patched_infected + core.phones_immunized_healthy <=
//    the population.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string_view>

#include "core/engine_slice.h"
#include "core/scenario.h"

namespace mvsim::test_audit {

/// Success, or a failure naming every identity the replication breaks.
inline ::testing::AssertionResult conserves(const core::ScenarioConfig& config,
                                            const core::ReplicationResult& result) {
  const metrics::Snapshot& m = result.metrics;
  std::ostringstream broken;
  auto require = [&broken](bool holds, const char* identity, std::uint64_t lhs,
                           std::uint64_t rhs) {
    if (!holds) broken << "\n  " << identity << ": " << lhs << " vs " << rhs;
  };

  const std::uint64_t infections = m.counter_value("core.infections");
  const auto series_final = static_cast<std::uint64_t>(result.infections.final_value());
  require(infections == result.total_infected, "core.infections == total_infected", infections,
          result.total_infected);
  require(series_final == result.total_infected, "infection series final == total_infected",
          series_final, result.total_infected);
  require(result.total_infected <= config.susceptible_count(),
          "total_infected <= susceptible count", result.total_infected,
          config.susceptible_count());

  const std::uint64_t submitted = m.counter_value("net.messages_submitted");
  const std::uint64_t blocked = m.counter_value("net.messages_blocked");
  const std::uint64_t infected_submitted = m.counter_value("net.infected_messages_submitted");
  require(blocked <= submitted, "net.messages_blocked <= net.messages_submitted", blocked,
          submitted);
  require(infected_submitted <= submitted,
          "net.infected_messages_submitted <= net.messages_submitted", infected_submitted,
          submitted);

  std::uint64_t blocked_by_mechanisms = 0;
  for (const metrics::CounterSample& counter : m.counters) {
    const std::string_view name = counter.name;
    constexpr std::string_view kPrefix = "response.";
    constexpr std::string_view kSuffix = ".messages_blocked";
    if (name.size() > kPrefix.size() + kSuffix.size() && name.starts_with(kPrefix) &&
        name.ends_with(kSuffix)) {
      blocked_by_mechanisms += counter.value;
    }
  }
  require(blocked == blocked_by_mechanisms,
          "net.messages_blocked == sum of response.*.messages_blocked", blocked,
          blocked_by_mechanisms);

  const std::uint64_t patched = m.counter_value("core.phones_patched_infected") +
                                m.counter_value("core.phones_immunized_healthy");
  require(patched <= config.population, "patched + immunized <= population", patched,
          config.population);

  const std::string failures = broken.str();
  if (failures.empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << config.name << " breaks" << failures;
}

}  // namespace mvsim::test_audit
