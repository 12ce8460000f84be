// The synthesis search against a brute-force oracle, plus the lattice
// monotonicity property its pruning is built on.
//
// The brute-force oracle is deliberately independent of the engine: it
// *materializes* each candidate assignment into a plain litmus test and asks
// the batch axiomatic entry point (axiomatic_outcomes) — no incremental
// evaluator, no pruning, no memo.  Exact mode must return a correct
// assignment of exactly the brute-force minimum cost; greedy mode must return
// a correct, per-slot minimal fix.  The cache round-trip tests pin the cold/warm byte-identity
// the CI fence-synth job asserts end to end.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "cache/store.h"
#include "sim/axiomatic.h"
#include "sim/litmus.h"
#include "sim/rng.h"
#include "synth/search.h"

namespace {

using namespace wmm;
using sim::Arch;
using sim::FenceKind;

namespace fs = std::filesystem;

class TempRoot {
 public:
  explicit TempRoot(const std::string& tag) {
    root_ = fs::temp_directory_path() /
            ("wmm_synth_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(root_);
  }
  ~TempRoot() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
  std::string str() const { return root_.string(); }

 private:
  fs::path root_;
};

// Materializes `a` into the problem's skeleton: a plain test with the
// assignment's fence kinds written into the placeholder slots.
sim::LitmusTest materialize(const synth::SynthProblem& problem,
                            const synth::Assignment& a) {
  sim::LitmusTest test = problem.skeleton;
  for (std::size_t i = 0; i < problem.slots.size(); ++i) {
    const sim::FenceSlotRef ref = problem.slots[i].ref;
    test.threads[static_cast<std::size_t>(ref.tid)]
        .instrs[static_cast<std::size_t>(ref.idx)]
        .fence = a.kinds[i];
  }
  return test;
}

// Brute-force correctness: no forbidden outcome is admitted.
bool brute_correct(const synth::SynthProblem& problem,
                   const synth::Assignment& a) {
  const std::set<sim::Outcome> outcomes =
      sim::axiomatic_outcomes(materialize(problem, a), problem.arch);
  for (const sim::Outcome& o : problem.forbidden) {
    if (outcomes.count(o)) return false;
  }
  return true;
}

// Every assignment of the problem's menu product, odometer order.
std::vector<synth::Assignment> all_assignments(
    const synth::SynthProblem& problem) {
  std::vector<synth::Assignment> out;
  std::vector<std::size_t> index(problem.slots.size(), 0);
  while (true) {
    synth::Assignment a;
    for (std::size_t s = 0; s < problem.slots.size(); ++s) {
      a.kinds.push_back(problem.slots[s].menu[index[s]]);
    }
    out.push_back(a);
    std::size_t s = 0;
    for (; s < problem.slots.size(); ++s) {
      if (++index[s] < problem.slots[s].menu.size()) break;
      index[s] = 0;
    }
    if (s == problem.slots.size()) break;
    if (problem.slots.empty()) break;
  }
  return out;
}

synth::SynthProblem problem_for(const sim::LitmusCase& c, Arch arch) {
  return synth::make_problem(c.test, arch,
                             synth::sc_forbidden_outcomes(c.test, arch));
}

const std::vector<sim::LitmusCase>& small_cases() {
  static const std::vector<sim::LitmusCase> cases = {
      sim::make_mp(), sim::make_sb(), sim::make_lb(), sim::make_s(),
      sim::make_isa2()};
  return cases;
}

TEST(SynthSearch, ExactModeMatchesBruteForceMinimum) {
  for (Arch arch : {Arch::ARMV8, Arch::POWER7, Arch::X86_TSO}) {
    for (const sim::LitmusCase& c : small_cases()) {
      const synth::SynthProblem problem = problem_for(c, arch);
      // Brute force: min cost over every correct assignment.
      bool feasible = false;
      double min_cost = 0.0;
      synth::SynthOptions options;  // exact, in vitro
      for (const synth::Assignment& a : all_assignments(problem)) {
        if (!brute_correct(problem, a)) continue;
        const double cost =
            synth::assignment_cost_ns(problem, a, options.cost);
        if (!feasible || cost < min_cost) min_cost = cost;
        feasible = true;
      }

      const synth::SynthResult r = synth::synthesize(problem, options);
      EXPECT_EQ(r.feasible, feasible)
          << c.test.name << " on " << sim::arch_name(arch);
      if (!feasible) continue;
      EXPECT_TRUE(brute_correct(problem, r.best))
          << c.test.name << " on " << sim::arch_name(arch) << ": "
          << r.best.name() << " is not a fix";
      EXPECT_DOUBLE_EQ(r.cost_ns, min_cost)
          << c.test.name << " on " << sim::arch_name(arch) << ": "
          << r.best.name() << " is not cost-minimal";
    }
  }
}

TEST(SynthSearch, GreedyModeReturnsPerSlotMinimalFix) {
  synth::SynthOptions options;
  options.mode = synth::SearchMode::Greedy;
  for (Arch arch : {Arch::ARMV8, Arch::POWER7, Arch::X86_TSO}) {
    for (const sim::LitmusCase& c : small_cases()) {
      const synth::SynthProblem problem = problem_for(c, arch);
      const synth::SynthResult r = synth::synthesize(problem, options);
      // Same feasibility verdict as brute force (the all-strongest top).
      bool feasible = false;
      for (const synth::Assignment& a : all_assignments(problem)) {
        if (brute_correct(problem, a)) {
          feasible = true;
          break;
        }
      }
      ASSERT_EQ(r.feasible, feasible)
          << c.test.name << " on " << sim::arch_name(arch);
      if (!feasible) continue;
      EXPECT_TRUE(brute_correct(problem, r.best)) << r.best.name();
      // Per-slot minimality: weakening any single slot to any weaker menu
      // entry breaks correctness.
      for (std::size_t s = 0; s < problem.slots.size(); ++s) {
        for (FenceKind weaker : problem.slots[s].menu) {
          if (weaker == r.best.kinds[s]) break;
          synth::Assignment weakened = r.best;
          weakened.kinds[s] = weaker;
          EXPECT_FALSE(brute_correct(problem, weakened))
              << c.test.name << " on " << sim::arch_name(arch) << ": "
              << weakened.name() << " still correct below greedy's "
              << r.best.name();
        }
      }
    }
  }
}

TEST(SynthSearch, CorrectnessIsMonotoneOnTheLattice) {
  // The pruning invariant: strengthening any slot only shrinks the admitted
  // outcome set, so correctness is upward-closed.  Checked as set inclusion
  // over every comparable assignment pair of the small corpus.
  for (Arch arch : {Arch::ARMV8, Arch::POWER7}) {
    for (const sim::LitmusCase& c :
         {sim::make_mp(), sim::make_lb(), sim::make_sb()}) {
      const synth::SynthProblem problem = problem_for(c, arch);
      const std::vector<synth::Assignment> all = all_assignments(problem);
      std::vector<std::set<sim::Outcome>> outcomes;
      outcomes.reserve(all.size());
      for (const synth::Assignment& a : all) {
        outcomes.push_back(sim::axiomatic_outcomes(materialize(problem, a), arch));
      }
      for (std::size_t i = 0; i < all.size(); ++i) {
        for (std::size_t j = 0; j < all.size(); ++j) {
          if (!all[i].leq(all[j])) continue;
          // outcomes(stronger) subset of outcomes(weaker).
          for (const sim::Outcome& o : outcomes[j]) {
            EXPECT_TRUE(outcomes[i].count(o))
                << c.test.name << " on " << sim::arch_name(arch) << ": "
                << all[j].name() << " admits an outcome "
                << all[i].name() << " does not";
          }
        }
      }
    }
  }
}

// The incremental evaluator's set_assignment path against the batch entry
// point.  One evaluator per (suite case, architecture) walks the case's
// slot-assignment lattice in a seeded order, so threads turn dirty and clean
// again and POWER barrier nodes appear and vanish; after every step its
// verdicts must equal those of the program with the fences written in.
// Lattices of at most kSteps assignments are walked whole, larger ones by a
// seeded sample of kSteps.
TEST(SynthSearch, IncrementalEvaluatorMatchesBatchOnSuiteLattices) {
  constexpr std::size_t kSteps = 200;
  std::size_t steps = 0;
  for (const sim::LitmusCase& c : sim::litmus_suite()) {
    for (Arch arch : {Arch::SC, Arch::X86_TSO, Arch::ARMV8, Arch::POWER7}) {
      const synth::SynthProblem problem = synth::make_problem(c.test, arch, {});
      std::vector<sim::FenceSlotRef> refs;
      std::size_t size = 1;  // lattice size, saturating above kSteps
      for (const synth::Slot& s : problem.slots) {
        refs.push_back(s.ref);
        size = std::min(size * s.menu.size(), kSteps + 1);
      }
      sim::Rng rng(sim::hash_combine(0x1a771ceULL, steps));
      std::vector<synth::Assignment> walk;
      if (size <= kSteps) {
        walk = all_assignments(problem);
        for (std::size_t i = walk.size(); i > 1; --i) {
          std::swap(walk[i - 1], walk[rng.next_below(i)]);
        }
      } else {
        for (std::size_t k = 0; k < kSteps; ++k) {
          synth::Assignment a;
          for (const synth::Slot& s : problem.slots) {
            a.kinds.push_back(s.menu[rng.next_below(s.menu.size())]);
          }
          walk.push_back(std::move(a));
        }
      }

      sim::AxiomaticEvaluator evaluator(problem.skeleton, arch, refs);
      for (const synth::Assignment& a : walk) {
        evaluator.set_assignment(a.kinds);
        const std::set<sim::Outcome> batch =
            sim::axiomatic_outcomes(materialize(problem, a), arch);
        ASSERT_EQ(evaluator.outcomes(), batch)
            << c.test.name << " on " << sim::arch_name(arch) << " at "
            << a.name();
        for (const sim::Outcome& o : batch) {
          ASSERT_TRUE(evaluator.allowed(o)) << c.test.name << " at " << a.name();
        }
        EXPECT_EQ(evaluator.allowed(c.relaxed_outcome),
                  batch.count(c.relaxed_outcome) == 1)
            << c.test.name << " on " << sim::arch_name(arch) << " at "
            << a.name();
        ++steps;
      }
    }
  }
  EXPECT_GT(steps, 1000u);
}

TEST(SynthSearch, SerializeParseRoundTripsExactly) {
  const sim::LitmusCase mp = sim::make_mp();
  const synth::SynthProblem problem = problem_for(mp, Arch::POWER7);
  synth::SynthOptions options;
  options.rank_all = true;
  const synth::SynthResult r = synth::synthesize(problem, options);
  ASSERT_TRUE(r.feasible);
  ASSERT_GT(r.ranked.size(), 1u);

  const std::string text = synth::serialize_result(r);
  const std::optional<synth::SynthResult> parsed = synth::parse_result(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->feasible, r.feasible);
  EXPECT_EQ(parsed->best, r.best);
  EXPECT_EQ(parsed->cost_ns, r.cost_ns);  // bitwise, not approximate
  ASSERT_EQ(parsed->ranked.size(), r.ranked.size());
  for (std::size_t i = 0; i < r.ranked.size(); ++i) {
    EXPECT_EQ(parsed->ranked[i].assignment, r.ranked[i].assignment);
    EXPECT_EQ(parsed->ranked[i].cost_ns, r.ranked[i].cost_ns);
  }
  EXPECT_EQ(parsed->stats.candidates, r.stats.candidates);
  EXPECT_EQ(parsed->stats.oracle_queries, r.stats.oracle_queries);
  // A second serialization of the parsed form is byte-identical — the
  // property the warm-cache record path depends on.
  EXPECT_EQ(synth::serialize_result(*parsed), text);
}

TEST(SynthSearch, WarmCacheAnswersWithoutOracleAndByteIdentically) {
  TempRoot root("warm");
  cache::CacheConfig config;
  config.root = root.str();
  cache::ResultCache store(config);

  const sim::LitmusCase mp = sim::make_mp();
  const synth::SynthProblem problem = problem_for(mp, Arch::POWER7);
  synth::SynthOptions options;
  options.rank_all = true;
  options.cache = &store;

  const synth::SynthResult cold = synth::synthesize(problem, options);
  EXPECT_FALSE(cold.stats.cache_hit);
  const synth::SynthResult warm = synth::synthesize(problem, options);
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_EQ(synth::serialize_result(warm), synth::serialize_result(cold));

  // End to end: the emitted synth record is byte-identical cold vs warm.
  const std::string cold_line = obs::synth_line(synth::synth_record(
      mp.test, Arch::ARMV8, synth::SynthOptions{}, &store));
  const std::string warm_line = obs::synth_line(synth::synth_record(
      mp.test, Arch::ARMV8, synth::SynthOptions{}, &store));
  EXPECT_EQ(cold_line, warm_line);

  // A different cost configuration is a different key, not a stale hit.
  synth::SynthOptions vivo = options;
  vivo.cost.model = synth::CostModel::InVivo;
  vivo.cost.contexts.assign(problem.slots.size(), synth::SlotContext{});
  vivo.cost.contexts.back().stores_before = 16;
  const synth::SynthResult other = synth::synthesize(problem, vivo);
  EXPECT_FALSE(other.stats.cache_hit);
}

TEST(SynthSearch, ExactPruningNeverSkipsTheMinimum) {
  // Rank-all mode classifies every candidate; spot-check that the pruned
  // run (default) and the fully-ranked run agree on the winner, and that
  // pruning actually engaged somewhere in the corpus.
  std::uint64_t pruned = 0;
  for (Arch arch : {Arch::ARMV8, Arch::POWER7}) {
    for (const sim::LitmusCase& c : small_cases()) {
      const synth::SynthProblem problem = problem_for(c, arch);
      synth::SynthOptions fast;
      synth::SynthOptions full;
      full.rank_all = true;
      const synth::SynthResult a = synth::synthesize(problem, fast);
      const synth::SynthResult b = synth::synthesize(problem, full);
      ASSERT_EQ(a.feasible, b.feasible) << c.test.name;
      if (a.feasible) {
        EXPECT_EQ(a.best, b.best) << c.test.name;
        EXPECT_DOUBLE_EQ(a.cost_ns, b.cost_ns) << c.test.name;
      }
      pruned += a.stats.pruned_correct + a.stats.pruned_incorrect;
      // The pruned run never asks the oracle more often than there are
      // candidates.
      EXPECT_LE(a.stats.oracle_queries, a.stats.candidates);
    }
  }
  EXPECT_GT(pruned, 0u);
}

}  // namespace
