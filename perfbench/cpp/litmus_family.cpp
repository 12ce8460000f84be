// litmus-family: a seeded sample of the diy7-style family corpus
// (sim::generate_families, default bound of 4 comm edges), restricted to
// programs of at most 3 threads, each checked on SC/TSO/ARMv8/POWER7 by
// enumerate_outcomes and by the exact axiomatic oracle.  One worker.
//
// The sample is stratified by cost: the corpus, ordered by the cost rank in
// ref/family_cost_rank.txt, is cut into kSample equal blocks and the seed
// picks one program in each block (antithetic pairs, below).  Costs are heavy-tailed (most programs
// take milliseconds, the CY-CCC cycles over a second), so an unstratified
// draw would make wall_s depend on the seed more than on the program.
// Programs missing from the rank file sort last, by name.
//
// Output check: a program fails if the two oracles disagree on any
// architecture.  Every pass must also reproduce the first pass's outcome
// counts, and no `sim.*` counter may move (ref/identity.txt).
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "bench.h"
#include "oracles.h"
#include "sim/litmus_family.h"
#include "sim/rng.h"

namespace perfbench {
namespace {

using namespace wmm;

constexpr std::size_t kSample = 120;
constexpr std::size_t kMaxThreads = 3;
constexpr std::size_t kParts = 12;  // timed parts per pass

struct Inputs {
  std::vector<sim::LitmusTest> programs;
  std::size_t corpus = 0;  // programs with at most kMaxThreads threads
};

Inputs set_up(const Options& options, double* generate_s) {
  const Clock::time_point start = Clock::now();
  const std::vector<sim::FamilyProgram> family = sim::generate_families();
  if (generate_s) *generate_s = seconds_since(start);

  const std::string path = options.ref_dir + "/family_cost_rank.txt";
  std::ifstream in_rank(path);
  if (!in_rank) throw std::runtime_error("cannot read " + path);
  std::unordered_map<std::string, std::size_t> rank;
  for (std::string line; std::getline(in_rank, line);) {
    if (!line.empty() && line[0] != '#') rank.emplace(line, rank.size());
  }
  auto rank_of = [&](const sim::FamilyProgram* p) {
    const auto it = rank.find(p->name);
    return it == rank.end() ? rank.size() : it->second;
  };
  std::vector<const sim::FamilyProgram*> small;
  for (const sim::FamilyProgram& p : family) {
    if (p.test.threads.size() <= kMaxThreads) small.push_back(&p);
  }
  std::sort(small.begin(), small.end(),
            [&](const sim::FamilyProgram* a, const sim::FamilyProgram* b) {
              const std::size_t ra = rank_of(a), rb = rank_of(b);
              return ra != rb ? ra < rb : a->name < b->name;
            });
  Inputs in;
  in.corpus = small.size();
  // Blocks are drawn in pairs from one uniform u: the first block of a pair
  // takes the program at u through it, the second the one at 1 - u.  Costs
  // rise through each block, so a pair's cost varies little with the seed.
  const std::size_t n = std::min(kSample, small.size());
  double u = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t begin = j * small.size() / n;
    const std::size_t size = (j + 1) * small.size() / n - begin;
    if (j % 2 == 0) {
      u = static_cast<double>(sim::hash_combine(options.seed, j / 2) >> 11) *
          0x1p-53;
    }
    const double at = j % 2 == 0 ? u : 1.0 - u;
    const std::size_t pick = std::min(
        size - 1, static_cast<std::size_t>(at * static_cast<double>(size)));
    in.programs.push_back(small[begin + pick]->test);
  }
  return in;
}

// Pass `rep` over the sample; returns the outcome count of each
// architecture.  Part k holds programs k, k + kParts, ...: the sample is in
// cost order, so every part gets the same mix of cheap and expensive
// programs.
std::array<std::size_t, 4> pass(const Inputs& in, int rep, OracleTimes* times,
                                std::vector<double>& part_s, Result& result) {
  std::array<std::size_t, 4> outcomes{};
  for (std::size_t k = 0; k < kParts; ++k) {
    const ScopedCpus pin(static_cast<std::size_t>(rep) + k, 1);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = k; i < in.programs.size(); i += kParts) {
      const sim::LitmusTest& test = in.programs[i];
      bool agree = true;
      for (std::size_t a = 0; a < kOracleArches.size(); ++a) {
        const OracleVerdict v = check_oracles(test, a, times);
        outcomes[a] += v.outcomes;
        agree = agree && v.agree;
      }
      if (!agree) {
        std::fprintf(stderr, "perfbench: oracles disagree on %s\n",
                     test.name.c_str());
      }
      result.check(agree);
    }
    part_s.push_back(seconds_since(start));
  }
  return outcomes;
}

}  // namespace

Result run_litmus_family(const Options& options) {
  Result result;
  std::vector<double> generate_s;
  const double setup_s = measure_setup(
      [&] {
        double g = 0.0;
        set_up(options, &g);
        generate_s.push_back(g);
      },
      3, 2.0);
  const Inputs in = set_up(options, nullptr);

  // Each pass must repeat the first one's outcome counts exactly.
  std::optional<std::array<std::size_t, 4>> first;
  auto checked_pass = [&](int i, OracleTimes* times,
                          std::vector<double>& parts) {
    std::array<std::size_t, 4> outcomes{};
    const CounterTotals counters = sim_counters_during(
        [&] { outcomes = pass(in, i, times, parts, result); });
    if (!first) first = outcomes;
    result.check(outcomes == *first && identity_matches(options, counters));
  };
  const RepTimes walls = timed_reps(
      options.seconds, [&](int i, auto& parts) { checked_pass(i, nullptr, parts); });
  const double wall_s = walls.wall_s();
  char note[256];
  std::snprintf(note, sizeof note,
                "litmus-family: %zu passes of %zu programs (of %zu with <=%zu "
                "threads) x 4 arches, 1 worker",
                walls.count(), in.programs.size(), in.corpus, kMaxThreads);
  result.notes.push_back(note);
  result.notes.push_back(walls.summary());

  if (!options.trace) {
    result.metrics["wall_s"] = wall_s;
    result.metrics["setup_s"] = setup_s;
    result.metrics["peak_rss_mb"] = peak_rss_mb();
    return result;
  }

  OracleTimes times;
  const RepTimes traced = timed_reps(
      options.seconds, [&](int i, auto& parts) { checked_pass(i, &times, parts); });
  const double reps = static_cast<double>(traced.count());
  const double traced_wall = mean(traced.totals());
  times.report(reps, result);
  auto& m = result.metrics;
  m["trace.wall_s"] = traced_wall;
  m["trace.workers"] = 1;
  m["trace.remainder_s"] = traced_wall - times.total_s() / reps;
  m["obs.trace_overhead"] = traced.wall_s() / wall_s - 1.0;
  m["sim.generate_families_s"] = median(generate_s);
  const std::array<std::size_t, 4>& outcomes = *first;
  m["sim.outcomes"] = static_cast<double>(outcomes[0] + outcomes[1] +
                                          outcomes[2] + outcomes[3]);
  return result;
}

}  // namespace perfbench
