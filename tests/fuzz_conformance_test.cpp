// Differential conformance fuzzing: generator properties, axiomatic-oracle
// agreement with the hand-written litmus matrix, a quick fixed-seed corpus,
// teeth self-tests (a deliberately weakened axiom must be caught), and
// shrinker behaviour.  The large CI corpus lives in fuzz_corpus_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sim/fuzz.h"
#include "sim/litmus.h"
#include "sim/rng.h"

namespace wmm::sim {
namespace {

constexpr std::uint64_t kCorpusSeed = 0xc0ffee;

const Arch kAllArchs[] = {Arch::SC, Arch::X86_TSO, Arch::ARMV8, Arch::POWER7};
const Arch kExactArchs[] = {Arch::SC, Arch::X86_TSO, Arch::ARMV8};

// --- Generator -------------------------------------------------------------

TEST(FuzzGenerator, DeterministicForSeed) {
  const FuzzConfig config;
  for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    const LitmusTest a = generate_litmus(seed, config);
    const LitmusTest b = generate_litmus(seed, config);
    EXPECT_EQ(format_litmus(a), format_litmus(b));
  }
}

TEST(FuzzGenerator, DistinctSeedsProduceDistinctPrograms) {
  std::set<std::string> shapes;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    LitmusTest t = generate_litmus(hash_combine(kCorpusSeed, seed));
    t.name.clear();  // ignore the seed-derived name
    shapes.insert(format_litmus(t));
  }
  // Not all 64 need be unique, but collapse to a handful would mean the seed
  // is not reaching the generator.
  EXPECT_GT(shapes.size(), 48u);
}

TEST(FuzzGenerator, RespectsShapeBounds) {
  for (Arch arch : kAllArchs) {
    const FuzzConfig config = FuzzConfig::for_arch(arch);
    for (std::uint64_t i = 0; i < 200; ++i) {
      const LitmusTest t =
          generate_litmus(hash_combine(0x5eedULL, i), config);
      EXPECT_GE(static_cast<int>(t.threads.size()), config.min_threads);
      EXPECT_LE(static_cast<int>(t.threads.size()), config.max_threads);
      EXPECT_LE(t.num_vars, config.max_vars);
      int total = 0;
      int writes = 0;
      std::set<int> regs;
      for (const LitmusThread& thread : t.threads) {
        EXPECT_GE(static_cast<int>(thread.instrs.size()),
                  config.min_instrs_per_thread);
        EXPECT_LE(static_cast<int>(thread.instrs.size()),
                  config.max_instrs_per_thread);
        std::set<int> earlier_reads;
        bool any_access = false;
        for (const LitmusInstr& in : thread.instrs) {
          ++total;
          if (in.type == AccessType::Fence) continue;
          any_access = true;
          EXPECT_GE(in.var, 0);
          EXPECT_LT(in.var, t.num_vars);
          if (in.type == AccessType::Write) {
            ++writes;
            EXPECT_GT(in.value, 0);
          } else {
            EXPECT_GE(in.reg, 0);
            EXPECT_LT(in.reg, t.num_regs);
            EXPECT_TRUE(regs.insert(in.reg).second)
                << "register reused across reads";
          }
          // Dependencies must name a register read earlier on this thread.
          for (int dep : {in.addr_dep, in.data_dep, in.ctrl_dep}) {
            if (dep >= 0) {
              EXPECT_TRUE(earlier_reads.count(dep));
            }
          }
          if (in.type == AccessType::Read) earlier_reads.insert(in.reg);
        }
        EXPECT_TRUE(any_access) << "thread with no memory access";
      }
      EXPECT_LE(total, config.max_total_instrs);
      EXPECT_LE(writes, config.max_total_writes);
    }
  }
}

TEST(FuzzGenerator, EventuallyUsesEveryFeature) {
  int fences = 0, deps = 0, acq = 0, rel = 0;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const LitmusTest t = generate_litmus(hash_combine(0xfea7ULL, i));
    for (const LitmusThread& thread : t.threads) {
      for (const LitmusInstr& in : thread.instrs) {
        if (in.type == AccessType::Fence) ++fences;
        if (in.addr_dep >= 0 || in.data_dep >= 0 || in.ctrl_dep >= 0) ++deps;
        if (in.acquire) ++acq;
        if (in.release) ++rel;
      }
    }
  }
  EXPECT_GT(fences, 0);
  EXPECT_GT(deps, 0);
  EXPECT_GT(acq, 0);
  EXPECT_GT(rel, 0);
}

// --- Axiomatic oracle vs the hand-written litmus matrix --------------------

// The axiomatic checker independently reproduces every expected
// allowed/forbidden verdict of the curated litmus suite on the exact
// (multi-copy-atomic) architectures.
TEST(AxiomaticOracle, MatchesCuratedLitmusMatrix) {
  for (const LitmusCase& c : litmus_suite()) {
    for (Arch arch : kExactArchs) {
      const std::optional<bool> expected = expected_allowed(c, arch);
      if (!expected.has_value()) continue;
      EXPECT_EQ(axiomatic_allowed(c.test, c.relaxed_outcome, arch), *expected)
          << c.test.name << " on " << arch_name(arch);
    }
  }
}

// Axiomatic sets are monotone in architecture strength, mirroring the
// operational superset property.
TEST(AxiomaticOracle, WeakerArchAdmitsSuperset) {
  for (const LitmusCase& c : litmus_suite()) {
    const auto sc = axiomatic_outcomes(c.test, Arch::SC);
    const auto tso = axiomatic_outcomes(c.test, Arch::X86_TSO);
    const auto arm = axiomatic_outcomes(c.test, Arch::ARMV8);
    for (const Outcome& o : sc) EXPECT_TRUE(tso.count(o)) << c.test.name;
    for (const Outcome& o : tso) EXPECT_TRUE(arm.count(o)) << c.test.name;
  }
}

TEST(AxiomaticOracle, PpoBasics) {
  // T0: W x; R y  — TSO relaxes the store->load pair, SC does not.
  LitmusThread t;
  t.instrs = {LitmusInstr::write(0, 1), LitmusInstr::read(0, 1)};
  EXPECT_TRUE(axiomatic_ppo(t, 0, 1, Arch::SC));
  EXPECT_FALSE(axiomatic_ppo(t, 0, 1, Arch::X86_TSO));
  EXPECT_FALSE(axiomatic_ppo(t, 0, 1, Arch::ARMV8));

  // An mfence in between restores the order everywhere.
  t.instrs = {LitmusInstr::write(0, 1), LitmusInstr::barrier(FenceKind::Mfence),
              LitmusInstr::read(0, 1)};
  EXPECT_TRUE(axiomatic_ppo(t, 0, 2, Arch::X86_TSO));
  EXPECT_TRUE(axiomatic_ppo(t, 0, 2, Arch::ARMV8));

  // Address dependency orders read -> read on ARM; dropping dependency
  // order removes exactly that edge.
  LitmusInstr dep_read = LitmusInstr::read(1, 0);
  dep_read.addr_dep = 0;
  t.instrs = {LitmusInstr::read(0, 1), dep_read};
  EXPECT_TRUE(axiomatic_ppo(t, 0, 1, Arch::ARMV8));
  AxiomaticOptions weak;
  weak.drop_dependency_order = true;
  EXPECT_FALSE(axiomatic_ppo(t, 0, 1, Arch::ARMV8, weak));

  // Same-location accesses stay ordered on every architecture.
  t.instrs = {LitmusInstr::write(0, 1), LitmusInstr::read(0, 0)};
  EXPECT_TRUE(axiomatic_ppo(t, 0, 1, Arch::ARMV8));
  EXPECT_TRUE(axiomatic_ppo(t, 0, 1, Arch::X86_TSO));
}

TEST(AxiomaticOracle, RejectsOversizedTests) {
  LitmusTest big;
  big.name = "too-big";
  big.num_vars = 1;
  big.num_regs = 0;
  LitmusThread t;
  for (int i = 0; i < 40; ++i) t.instrs.push_back(LitmusInstr::write(0, i + 1));
  big.threads = {t};
  EXPECT_THROW(axiomatic_outcomes(big, Arch::SC), std::invalid_argument);
}

// --- Differential conformance ----------------------------------------------

// Every curated litmus test is conformant on every architecture — exact
// outcome-set equality everywhere (POWER against the Herding-Cats model).
TEST(Conformance, CuratedSuiteConformsOnAllArchs) {
  for (const LitmusCase& c : litmus_suite()) {
    for (Arch arch : kAllArchs) {
      const std::optional<Divergence> d = check_conformance(c.test, arch);
      EXPECT_FALSE(d.has_value())
          << c.test.name << " on " << arch_name(arch) << "\n"
          << (d ? d->report() : "");
    }
  }
}

// A quick fixed-seed corpus on every architecture (the big corpus runs under
// the "fuzz" CTest label in fuzz_corpus_test.cpp).
TEST(Conformance, QuickFixedSeedCorpus) {
  for (Arch arch : kAllArchs) {
    const FuzzReport report = run_conformance_corpus(arch, kCorpusSeed, 300);
    EXPECT_EQ(report.programs, 300);
    EXPECT_TRUE(report.ok())
        << arch_name(arch) << ":\n" << report.divergences.front().report();
  }
}

// --- Teeth: planted axiomatic bugs must be detected ------------------------

struct Weakening {
  const char* name;
  AxiomaticOptions options;
  const char* guaranteed_case;  // litmus-suite test certain to catch it
  Arch arch;
  FuzzConfig corpus_config;  // generator shape for the corpus teeth test
  int corpus_count;          // empirically above first-catch for kCorpusSeed
};

// The default POWER generator rarely emits the specific barrier/dependency
// shapes the POWER weakenings need (SB/R with lwsync on both threads, WRC
// with a pushing middle write), so the corpus teeth bias the generator with
// the shared FuzzConfig::power_teeth_{sb,wrc} shapes (also used by
// fuzz_conformance --weaken=power-*): lwsync/sync-only alphabet, denser
// fences and dependencies.

std::vector<Weakening> weakenings() {
  std::vector<Weakening> out;
  {
    AxiomaticOptions o;
    o.drop_tso_store_load_fence = true;
    out.push_back({"tso-wr", o, "SB+mfence", Arch::X86_TSO,
                   FuzzConfig::for_arch(Arch::X86_TSO), 800});
  }
  {
    AxiomaticOptions o;
    o.drop_dependency_order = true;
    out.push_back({"deps", o, "LB+datas", Arch::ARMV8,
                   FuzzConfig::for_arch(Arch::ARMV8), 800});
  }
  {
    AxiomaticOptions o;
    o.drop_same_location_order = true;
    out.push_back({"poloc", o, "CoRR", Arch::ARMV8,
                   FuzzConfig::for_arch(Arch::ARMV8), 800});
  }
  {
    AxiomaticOptions o;
    o.drop_acquire_release = true;
    out.push_back({"acqrel", o, "MP+rel+acq", Arch::ARMV8,
                   FuzzConfig::for_arch(Arch::ARMV8), 800});
  }
  {
    AxiomaticOptions o;
    o.power.lwsync_is_sync = true;
    out.push_back({"power-lwsync-sync", o, "SB+lwsync", Arch::POWER7,
                   FuzzConfig::power_teeth_sb(), 4000});
  }
  {
    AxiomaticOptions o;
    o.power.drop_b_cumulativity = true;
    out.push_back({"power-bcumul", o, "WRC+sync+addr", Arch::POWER7,
                   FuzzConfig::power_teeth_wrc(), 3000});
  }
  {
    AxiomaticOptions o;
    o.power.drop_observation = true;
    out.push_back({"power-obs", o, "MP+lwsync+addr", Arch::POWER7,
                   FuzzConfig::power_teeth_wrc(), 300});
  }
  return out;
}

// Dropping any single axiom makes the curated suite diverge: the oracle is
// actually constraining the result, not rubber-stamping the executor.
TEST(ConformanceTeeth, SuiteCatchesEachWeakenedAxiom) {
  for (const Weakening& w : weakenings()) {
    bool caught = false;
    for (const LitmusCase& c : litmus_suite()) {
      if (check_conformance(c.test, w.arch, w.options).has_value()) {
        caught = true;
        break;
      }
    }
    EXPECT_TRUE(caught) << "weakening " << w.name
                        << " not caught by the litmus suite";
  }
}

// The named guaranteed case diverges under its weakening — pins the exact
// constraint each mutation removes.
TEST(ConformanceTeeth, KnownCaseCatchesEachWeakenedAxiom) {
  for (const Weakening& w : weakenings()) {
    bool found_case = false;
    for (const LitmusCase& c : litmus_suite()) {
      if (c.test.name != w.guaranteed_case) continue;
      found_case = true;
      const std::optional<Divergence> d =
          check_conformance(c.test, w.arch, w.options);
      EXPECT_TRUE(d.has_value())
          << w.guaranteed_case << " should diverge under " << w.name;
    }
    EXPECT_TRUE(found_case) << "suite no longer contains " << w.guaranteed_case;
  }
}

// The random corpus finds each planted bug too (with a per-weakening count
// empirically above the first-catch index for this fixed seed, and a shape
// config the weakening's witnesses actually occur under).
TEST(ConformanceTeeth, CorpusCatchesEachWeakenedAxiom) {
  for (const Weakening& w : weakenings()) {
    const FuzzReport report = run_conformance_corpus(
        w.arch, kCorpusSeed, w.corpus_count, w.corpus_config, w.options, 1);
    EXPECT_FALSE(report.ok())
        << "weakening " << w.name << " not caught within " << w.corpus_count
        << " programs";
  }
}

// --- Shrinking -------------------------------------------------------------

TEST(Shrinker, ProducesMinimalDeterministicReproducers) {
  AxiomaticOptions weak;
  weak.drop_dependency_order = true;
  // Find the first divergent program under the weakened oracle.
  const FuzzReport report = run_conformance_corpus(
      Arch::ARMV8, kCorpusSeed, 800, FuzzConfig::for_arch(Arch::ARMV8), weak, 1);
  ASSERT_FALSE(report.ok());
  const Divergence& d = report.divergences.front();

  auto count_instrs = [](const LitmusTest& t) {
    std::size_t n = 0;
    for (const LitmusThread& th : t.threads) n += th.instrs.size();
    return n;
  };

  // Shrunk program still diverges, is no larger than the original, and the
  // shrink is deterministic.
  EXPECT_TRUE(check_conformance(d.shrunk, Arch::ARMV8, weak).has_value());
  EXPECT_LE(count_instrs(d.shrunk), count_instrs(d.original));
  const LitmusTest again = shrink_divergent(d.original, Arch::ARMV8, weak);
  EXPECT_EQ(format_litmus(again), format_litmus(d.shrunk));

  // Minimality: removing any further instruction kills the divergence.
  for (std::size_t t = 0; t < d.shrunk.threads.size(); ++t) {
    for (std::size_t i = 0; i < d.shrunk.threads[t].instrs.size(); ++i) {
      LitmusTest candidate = d.shrunk;
      candidate.threads[t].instrs.erase(candidate.threads[t].instrs.begin() +
                                        static_cast<std::ptrdiff_t>(i));
      candidate.threads.erase(
          std::remove_if(candidate.threads.begin(), candidate.threads.end(),
                         [](const LitmusThread& th) { return th.instrs.empty(); }),
          candidate.threads.end());
      if (candidate.threads.empty()) continue;
      EXPECT_FALSE(check_conformance(candidate, Arch::ARMV8, weak).has_value())
          << "shrunk program is not 1-minimal";
    }
  }
}

// --- Canonical program key -------------------------------------------------
//
// The memo cache keys programs by a canonical encoding that is invariant
// under thread reordering and var/register renumbering (isomorphisms that
// permute the outcome sets of both models identically).  The key must
// collide exactly on isomorphic programs: too coarse and the cache returns
// wrong verdicts, too fine and it stops deduplicating.

TEST(CanonicalKey, InvariantUnderThreadPermutation) {
  const FuzzConfig config;
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const LitmusTest test = generate_litmus(seed, config);
    if (test.threads.size() < 2) continue;
    LitmusTest rotated = test;
    std::rotate(rotated.threads.begin(), rotated.threads.begin() + 1,
                rotated.threads.end());
    EXPECT_EQ(canonical_program_key(test), canonical_program_key(rotated))
        << format_litmus(test);
    ++checked;
  }
  EXPECT_GT(checked, 20);
}

TEST(CanonicalKey, InvariantUnderVariableAndRegisterRenaming) {
  const FuzzConfig config;
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const LitmusTest test = generate_litmus(seed, config);
    if (test.num_vars < 2 || test.num_regs < 2) continue;
    // Reverse both numberings; dependencies refer to registers, so they are
    // remapped with the same bijection.
    LitmusTest renamed = test;
    const auto var_of = [&](int v) { return v < 0 ? v : test.num_vars - 1 - v; };
    const auto reg_of = [&](int r) { return r < 0 ? r : test.num_regs - 1 - r; };
    for (LitmusThread& thread : renamed.threads) {
      for (LitmusInstr& instr : thread.instrs) {
        instr.var = var_of(instr.var);
        instr.reg = reg_of(instr.reg);
        instr.addr_dep = reg_of(instr.addr_dep);
        instr.data_dep = reg_of(instr.data_dep);
        instr.ctrl_dep = reg_of(instr.ctrl_dep);
      }
    }
    EXPECT_EQ(canonical_program_key(test), canonical_program_key(renamed))
        << format_litmus(test);
    ++checked;
  }
  EXPECT_GT(checked, 20);
}

TEST(CanonicalKey, DistinguishesMostGeneratedPrograms) {
  const FuzzConfig config;
  std::set<std::string> keys;
  constexpr int kSeeds = 200;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    keys.insert(canonical_program_key(generate_litmus(seed, config)));
  }
  // Random programs are rarely isomorphic; if most keys collide the key is
  // discarding structure it must preserve.
  EXPECT_GT(keys.size(), kSeeds * 3 / 4);
}

TEST(Shrinker, ReportContainsSeedAndReplayLine) {
  AxiomaticOptions weak;
  weak.drop_same_location_order = true;
  const FuzzReport report = run_conformance_corpus(
      Arch::X86_TSO, kCorpusSeed, 200, FuzzConfig::for_arch(Arch::X86_TSO),
      weak, 1);
  ASSERT_FALSE(report.ok());
  const std::string text = report.divergences.front().report();
  EXPECT_NE(text.find("replay: fuzz_conformance"), std::string::npos);
  EXPECT_NE(text.find("--replay=0x"), std::string::npos);
  EXPECT_NE(text.find("shrunk program"), std::string::npos);
}

}  // namespace
}  // namespace wmm::sim
