// fuzz-diff: sim::run_conformance_corpus on SC/TSO/ARMv8/POWER7 from the
// seed argument, kCount generated programs per architecture, canonical-
// program memo on, no persistent store, one worker.
//
// Output check: every divergence the corpus reports is a failed item, out of
// all programs checked.  Every rep must repeat the first rep's report
// (outcomes checked, memo hits), and no `sim.*` counter may move
// (ref/identity.txt).
//
// Trace: the corpus driver is one call, so the traced phase replays it from
// outside on the same seeds (sim::hash_combine(seed, i)): generate_litmus,
// canonical_program_key for the memo, then both oracles on every memo miss.
// The replay must reproduce the report's memo hits and outcome count.
#include <cstdio>
#include <unordered_map>

#include "bench.h"
#include "oracles.h"
#include "sim/fuzz.h"
#include "sim/rng.h"

namespace perfbench {
namespace {

using namespace wmm;

constexpr int kCount = 3000;

struct Inputs {
  std::array<sim::FuzzConfig, 4> configs;
  sim::FuzzRunOptions run;
};

Inputs set_up() {
  Inputs in;
  for (std::size_t a = 0; a < kOracleArches.size(); ++a) {
    in.configs[a] = sim::FuzzConfig::for_arch(kOracleArches[a]);
  }
  in.run.threads = 1;
  in.run.memoize = true;
  in.run.max_divergences = 64;  // bounds shrinking time if an oracle breaks
  return in;
}

struct ArchTotals {
  long long outcomes = 0;
  long long memo_hits = 0;
  long long programs = 0;
  friend bool operator==(const ArchTotals&, const ArchTotals&) = default;
};
using Totals = std::array<ArchTotals, 4>;

// Rep `rep`; each architecture's corpus call is one part.
Totals corpus_rep(const Inputs& in, std::uint64_t seed, int rep,
                  std::vector<double>& part_s, Result& result) {
  Totals totals;
  for (std::size_t a = 0; a < kOracleArches.size(); ++a) {
    const ScopedCpus pin(static_cast<std::size_t>(rep) + a, 1);
    const Clock::time_point start = Clock::now();
    const sim::FuzzReport report = sim::run_conformance_corpus(
        kOracleArches[a], seed, kCount, in.configs[a], {}, in.run);
    part_s.push_back(seconds_since(start));
    totals[a] = {report.outcomes_checked, report.memo_hits, report.programs};
    result.attempted += report.programs;
    result.failed += static_cast<long long>(report.divergences.size());
    for (const sim::Divergence& d : report.divergences) {
      std::fprintf(stderr, "perfbench: divergence\n%s\n", d.report().c_str());
    }
  }
  return totals;
}

struct ReplayTimes {
  OracleTimes oracles;
  double generate_s = 0.0;
  double canonical_key_s = 0.0;
};

// The corpus of corpus_rep, replayed from outside with every layer timed;
// each architecture is one part.
Totals replay_rep(const Inputs& in, std::uint64_t seed, int rep,
                  ReplayTimes& times, std::vector<double>& part_s) {
  Totals totals;
  for (std::size_t a = 0; a < kOracleArches.size(); ++a) {
    const ScopedCpus pin(static_cast<std::size_t>(rep) + a, 1);
    const Clock::time_point start = Clock::now();
    std::unordered_map<std::string, std::size_t> memo;  // key -> outcomes
    for (int i = 0; i < kCount; ++i) {
      const Clock::time_point t0 = Clock::now();
      const sim::LitmusTest test = sim::generate_litmus(
          sim::hash_combine(seed, static_cast<std::uint64_t>(i)), in.configs[a]);
      const Clock::time_point t1 = Clock::now();
      std::string key = sim::canonical_program_key(test);
      const auto hit = memo.find(key);
      times.generate_s += std::chrono::duration<double>(t1 - t0).count();
      times.canonical_key_s += seconds_since(t1);
      totals[a].programs += 1;
      if (hit != memo.end()) {
        totals[a].memo_hits += 1;
        totals[a].outcomes += static_cast<long long>(hit->second);
        continue;
      }
      const OracleVerdict v = check_oracles(test, a, &times.oracles);
      totals[a].outcomes += static_cast<long long>(v.outcomes);
      if (v.agree) memo.emplace(std::move(key), v.outcomes);
    }
    part_s.push_back(seconds_since(start));
  }
  return totals;
}

}  // namespace

Result run_fuzz_diff(const Options& options) {
  Result result;
  const double setup_s = measure_setup([] { set_up(); }, 15, 0.5);
  const Inputs in = set_up();

  Totals first{};
  const RepTimes walls = timed_reps(options.seconds, [&](int i, auto& parts) {
    Totals totals;
    const CounterTotals counters = sim_counters_during(
        [&] { totals = corpus_rep(in, options.seed, i, parts, result); });
    if (i == 0) first = totals;
    result.check(totals == first && identity_matches(options, counters));
  });
  const double wall_s = walls.wall_s();
  char note[256];
  std::snprintf(note, sizeof note,
                "fuzz-diff: %zu reps of %d programs x 4 arches from seed %llu, "
                "memo on, 1 worker",
                walls.count(), kCount,
                static_cast<unsigned long long>(options.seed));
  result.notes.push_back(note);
  result.notes.push_back(walls.summary());

  if (!options.trace) {
    result.metrics["wall_s"] = wall_s;
    result.metrics["setup_s"] = setup_s;
    result.metrics["peak_rss_mb"] = peak_rss_mb();
    return result;
  }

  ReplayTimes times;
  const RepTimes traced = timed_reps(options.seconds, [&](int i, auto& parts) {
    result.check(replay_rep(in, options.seed, i, times, parts) == first);
  });
  const double reps = static_cast<double>(traced.count());
  const double traced_wall = mean(traced.totals());
  times.oracles.report(reps, result);
  long long outcomes = 0, hits = 0, programs = 0;
  for (const ArchTotals& t : first) {
    outcomes += t.outcomes;
    hits += t.memo_hits;
    programs += t.programs;
  }
  auto& m = result.metrics;
  m["trace.wall_s"] = traced_wall;
  m["trace.workers"] = 1;
  m["trace.remainder_s"] =
      traced_wall -
      (times.oracles.total_s() + times.generate_s + times.canonical_key_s) / reps;
  m["obs.trace_overhead"] = traced.wall_s() / wall_s - 1.0;
  m["sim.generate_litmus_s"] = times.generate_s / reps;
  m["sim.fuzz.canonical_key_s"] = times.canonical_key_s / reps;
  m["sim.fuzz.memo_hit_ratio"] =
      static_cast<double>(hits) / static_cast<double>(programs);
  m["sim.outcomes"] = static_cast<double>(outcomes);
  return result;
}

}  // namespace perfbench
