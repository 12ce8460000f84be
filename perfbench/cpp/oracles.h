// The two outcome oracles of one program on one architecture, called
// directly through the sim entry points, with optional per-call timing.
// Shared by litmus-family and fuzz-diff.
#pragma once

#include <array>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "sim/axiomatic.h"
#include "sim/axiomatic_power.h"
#include "sim/memory_model.h"

namespace perfbench {

inline constexpr std::array<wmm::sim::Arch, 4> kOracleArches = {
    wmm::sim::Arch::SC, wmm::sim::Arch::X86_TSO, wmm::sim::Arch::ARMV8,
    wmm::sim::Arch::POWER7};
inline constexpr std::array<const char*, 4> kOracleArchKeys = {"sc", "tso",
                                                               "arm", "power"};
inline constexpr std::size_t kPower = 3;

// Host seconds spent in each oracle, per architecture, over a traced phase.
struct OracleTimes {
  std::array<double, 4> enumerate_s{};
  std::array<double, 4> axiomatic_s{};
  std::vector<double> power_enumerate_s;  // one entry per POWER call

  // Total over every layer timed here.
  double total_s() const {
    double t = 0.0;
    for (std::size_t a = 0; a < 4; ++a) t += enumerate_s[a] + axiomatic_s[a];
    return t;
  }

  // sim.enumerate.* / sim.axiomatic* metrics, per rep.
  void report(double reps, Result& result) const {
    for (std::size_t a = 0; a < 4; ++a) {
      result.metrics[std::string("sim.enumerate.") + kOracleArchKeys[a] + "_s"] =
          enumerate_s[a] / reps;
      const std::string ax = a == kPower
                                 ? std::string("sim.axiomatic_power_s")
                                 : std::string("sim.axiomatic.") +
                                       kOracleArchKeys[a] + "_s";
      result.metrics[ax] = axiomatic_s[a] / reps;
    }
    result.metrics["sim.enumerate.power_p50_ms"] =
        median(power_enumerate_s) * 1e3;
    result.metrics["sim.enumerate.power_p95_ms"] =
        quantile(power_enumerate_s, 0.95) * 1e3;
  }
};

struct OracleVerdict {
  std::size_t outcomes = 0;  // operational outcome-set size
  bool agree = false;        // operational == axiomatic
};

// enumerate_outcomes against the architecture's exact axiomatic model (the
// Herding-Cats POWER model on POWER7).  `times`, when given, is charged.
inline OracleVerdict check_oracles(const wmm::sim::LitmusTest& test,
                                   std::size_t arch, OracleTimes* times) {
  using namespace wmm::sim;
  // Untraced calls read no clock.
  const Clock::time_point t0 = times ? Clock::now() : Clock::time_point{};
  const std::set<Outcome> operational =
      enumerate_outcomes(test, kOracleArches[arch]);
  const Clock::time_point t1 = times ? Clock::now() : Clock::time_point{};
  const std::set<Outcome> axiomatic =
      arch == kPower ? power_axiomatic_outcomes(test)
                     : axiomatic_outcomes(test, kOracleArches[arch]);
  if (times) {
    const double e = std::chrono::duration<double>(t1 - t0).count();
    times->enumerate_s[arch] += e;
    times->axiomatic_s[arch] += seconds_since(t1);
    if (arch == kPower) times->power_enumerate_s.push_back(e);
  }
  return {operational.size(), operational == axiomatic};
}

}  // namespace perfbench
