// Safety net for the simulator hot-loop rewrite (arena + SoA executor,
// docs/simulator.md): the rewritten operational engine must produce exactly
// the outcome sets the independent axiomatic oracles produce, on both the
// hand-verified golden corpus and a fixed-seed fuzz corpus, and the
// per-thread enumeration arena must behave as documented — identical results
// when reused back to back, and no high-water growth once a workload's shape
// has been seen.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "sim/axiomatic.h"
#include "sim/fuzz.h"
#include "sim/litmus_family.h"
#include "sim/litmus_format.h"
#include "sim/memory_model.h"
#include "sim/rng.h"

#ifndef WMM_LITMUS_DIR
#error "WMM_LITMUS_DIR must point at the golden corpus"
#endif

namespace wmm::sim {
namespace {

namespace fs = std::filesystem;

std::set<Outcome> oracle_outcomes(const LitmusTest& test, Arch arch) {
  return axiomatic_outcomes(test, arch);
}

// --- Outcome-set equality vs. the oracles ---------------------------------

// Every golden .litmus program: the rewritten executor's outcome set equals
// the axiomatic oracle's, per architecture, as full sets (the golden test
// itself only checks the wmm-expect verdict bit).
TEST(MachineRewrite, GoldenCorpusOutcomeSetsMatchOracles) {
  int files = 0;
  for (const auto& entry : fs::directory_iterator(WMM_LITMUS_DIR)) {
    if (entry.path().extension() != ".litmus") continue;
    std::ifstream in(entry.path());
    std::stringstream ss;
    ss << in.rdbuf();
    const LitmusFile file = parse_litmus(ss.str());
    ++files;
    for (const Arch arch :
         {Arch::SC, Arch::X86_TSO, Arch::ARMV8, Arch::POWER7}) {
      EXPECT_EQ(enumerate_outcomes(file.test, arch),
                oracle_outcomes(file.test, arch))
          << entry.path() << " on " << arch_name(arch);
    }
  }
  EXPECT_GE(files, 15);
}

// Fixed-seed fuzz corpus: 2000 generated programs spread over the four
// architectures (the differential check the fuzzer runs at scale, pinned
// here as a plain ctest so the rewrite cannot merge without it).
class MachineRewriteFuzz : public ::testing::TestWithParam<Arch> {};

TEST_P(MachineRewriteFuzz, OutcomeSetsMatchOracles) {
  const Arch arch = GetParam();
  const FuzzConfig config = FuzzConfig::for_arch(arch);
  const int count = 500;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed =
        hash_combine(0x5eedf00d, static_cast<std::uint64_t>(i));
    const LitmusTest test = generate_litmus(seed, config);
    ASSERT_EQ(enumerate_outcomes(test, arch), oracle_outcomes(test, arch))
        << test.name << " (seed " << seed << ") on " << arch_name(arch);
  }
}

INSTANTIATE_TEST_SUITE_P(AllArchs, MachineRewriteFuzz,
                         ::testing::Values(Arch::SC, Arch::X86_TSO,
                                          Arch::ARMV8, Arch::POWER7),
                         [](const ::testing::TestParamInfo<Arch>& info) {
                           return std::string(arch_name(info.param));
                         });

// --- Arena lifetime invariants (docs/simulator.md, "Arena lifetime rules") -

TEST(MachineRewrite, BackToBackEnumerationsAreIdentical) {
  for (const Arch arch : {Arch::ARMV8, Arch::POWER7}) {
    const LitmusTest test =
        generate_litmus(0xab5eed, FuzzConfig::for_arch(arch));
    const std::set<Outcome> first = enumerate_outcomes(test, arch);
    const std::set<Outcome> second = enumerate_outcomes(test, arch);
    EXPECT_EQ(first, second) << arch_name(arch);
  }
}

TEST(MachineRewrite, ArenaHighWaterStableAcrossReuse) {
  // Warm up: let the arena see the workload's shape once.
  const LitmusTest test = generate_litmus(0x57ab1e, FuzzConfig::for_arch(Arch::ARMV8));
  (void)enumerate_outcomes(test, Arch::ARMV8);
  const EnumArenaStats warm = enumeration_arena_stats();
  EXPECT_GT(warm.enumerations, 0u);
  EXPECT_GT(warm.high_water_bytes, 0u);
  EXPECT_GT(warm.visited_bytes, 0u);

  // Steady state: re-running the same program must not move the high-water
  // mark or grow the arena's reservation — the whole cycle is served from
  // the chunk the warm-up sized, and the visited-state set keeps the storage
  // the first call grew.
  for (int i = 0; i < 10; ++i) (void)enumerate_outcomes(test, Arch::ARMV8);
  const EnumArenaStats steady = enumeration_arena_stats();
  EXPECT_EQ(steady.high_water_bytes, warm.high_water_bytes);
  EXPECT_EQ(steady.reserved_bytes, warm.reserved_bytes);
  EXPECT_EQ(steady.visited_bytes, warm.visited_bytes);
  EXPECT_EQ(steady.enumerations, warm.enumerations + 10);
}

TEST(MachineRewrite, ArenaStatsAreOutsideTheCounterRegistry) {
  // Arena internals are per-thread introspection only: enumerations must not
  // mint obs counters, or counter records would stop being byte-identical
  // across --threads (each worker thread has its own arena).
  const LitmusTest test = generate_litmus(0x0b5, FuzzConfig::for_arch(Arch::ARMV8));
  const auto before = obs::counters().snapshot(/*include_zero=*/true);
  (void)enumerate_outcomes(test, Arch::ARMV8);
  const auto after = obs::counters().snapshot(/*include_zero=*/true);
  for (const auto& entry : after) {
    EXPECT_EQ(entry.name.find("arena"), std::string::npos) << entry.name;
  }
  // The enumeration itself must not have minted any new counter names.
  EXPECT_EQ(before.size(), after.size());
}

// --- Search size (EnumArenaStats) -------------------------------------------

struct SearchSize {
  std::uint64_t states, memo_hits, leaves;
  friend bool operator==(const SearchSize&, const SearchSize&) = default;
};

std::ostream& operator<<(std::ostream& os, const SearchSize& s) {
  return os << "{" << s.states << ", " << s.memo_hits << ", " << s.leaves
            << "}";
}

SearchSize search_size(const LitmusTest& test, Arch arch) {
  const EnumArenaStats before = enumeration_arena_stats();
  (void)enumerate_outcomes(test, arch);
  const EnumArenaStats after = enumeration_arena_stats();
  return {after.states - before.states, after.memo_hits - before.memo_hits,
          after.leaves - before.leaves};
}

// The search visits a fixed number of states per program, whatever the
// host: a change to the state key or the transition order shows here
// exactly, without timing noise.
TEST(MachineRewrite, SearchSizeIsPinnedForThreeFamilyPrograms) {
  const std::vector<FamilyProgram> family = generate_families();
  const std::pair<const char*, SearchSize> pinned[] = {
      {"MP", {32, 29, 12}},
      {"IRIW+sync+sync", {325, 482, 32}},
      {"CY-CoCoCC+lwsync+dmb.ish", {244, 147, 54}},
  };
  for (const auto& [name, size] : pinned) {
    const auto it =
        std::find_if(family.begin(), family.end(),
                     [&](const FamilyProgram& p) { return p.name == name; });
    ASSERT_NE(it, family.end()) << name;
    EXPECT_EQ(search_size(it->test, Arch::POWER7), size) << name;
    // Deterministic: the same program searches the same states again.
    EXPECT_EQ(search_size(it->test, Arch::POWER7), size) << name;
  }
}

// --- Edge cases --------------------------------------------------------------

LitmusTest two_thread_mp(int data, int flag) {
  LitmusTest t;
  t.name = "MP-values";
  t.num_vars = 2;
  t.num_regs = 2;
  t.threads.resize(2);
  t.threads[0].instrs = {LitmusInstr::write(0, data),
                         LitmusInstr::write(1, flag)};
  t.threads[1].instrs = {LitmusInstr::read(0, 1), LitmusInstr::read(1, 0)};
  return t;
}

TEST(MachineRewrite, LargeAndNegativeValuesRoundTrip) {
  const int big = 2147483647;
  const int neg = -2147483647 - 1;
  const LitmusTest test = two_thread_mp(big, neg);
  for (const Arch arch :
       {Arch::SC, Arch::X86_TSO, Arch::ARMV8, Arch::POWER7}) {
    const std::set<Outcome> got = enumerate_outcomes(test, arch);
    EXPECT_EQ(got, oracle_outcomes(test, arch)) << arch_name(arch);
    // r1 (flag) read the negative flag and r0 the large data; memory ends
    // holding both.
    EXPECT_TRUE(got.count(Outcome{neg, big, big, neg})) << arch_name(arch);
    EXPECT_TRUE(got.count(Outcome{0, 0, big, neg})) << arch_name(arch);
  }
  const LitmusTest minus_one = two_thread_mp(-1, -7);
  EXPECT_EQ(enumerate_outcomes(minus_one, Arch::POWER7),
            oracle_outcomes(minus_one, Arch::POWER7));
}

TEST(MachineRewrite, OneThreadProgramSeesItsOwnWrites) {
  LitmusTest t;
  t.name = "one-thread";
  t.num_vars = 2;
  t.num_regs = 2;
  t.threads.resize(1);
  t.threads[0].instrs = {LitmusInstr::write(0, 1), LitmusInstr::write(1, 2),
                         LitmusInstr::read(0, 0), LitmusInstr::read(1, 1),
                         LitmusInstr::write(0, 3)};
  for (const Arch arch :
       {Arch::SC, Arch::X86_TSO, Arch::ARMV8, Arch::POWER7}) {
    const std::set<Outcome> got = enumerate_outcomes(t, arch);
    EXPECT_EQ(got, (std::set<Outcome>{{1, 2, 3, 2}})) << arch_name(arch);
    EXPECT_EQ(got, oracle_outcomes(t, arch)) << arch_name(arch);
  }
}

TEST(MachineRewrite, ThreadWithoutCommitOrderNodesChangesNothing) {
  const LitmusTest base = two_thread_mp(1, 1);
  LitmusTest empty = base;
  empty.threads.emplace_back();
  LitmusTest weak_fence_only = base;
  // dmb ishst is neither a full barrier nor an lwsync, so it is no
  // commit-order node.
  weak_fence_only.threads.push_back(
      LitmusThread{{LitmusInstr::barrier(FenceKind::DmbIshSt)}});
  for (const Arch arch :
       {Arch::SC, Arch::X86_TSO, Arch::ARMV8, Arch::POWER7}) {
    const std::set<Outcome> want = enumerate_outcomes(base, arch);
    EXPECT_EQ(enumerate_outcomes(empty, arch), want) << arch_name(arch);
    EXPECT_EQ(enumerate_outcomes(weak_fence_only, arch), want)
        << arch_name(arch);
  }
}

TEST(MachineRewrite, OversizedProgramsAreRejected) {
  // POWER: 3 threads x 11 writes need 2 delay bits each, 22 > 20.
  LitmusTest delays;
  delays.name = "too-many-delay-bits";
  delays.num_vars = 1;
  delays.threads.resize(3);
  for (int i = 0; i < 11; ++i) {
    delays.threads[static_cast<std::size_t>(i % 3)].instrs.push_back(
        LitmusInstr::write(0, i + 1));
  }
  try {
    (void)enumerate_outcomes(delays, Arch::POWER7);
    ADD_FAILURE() << "22 delay bits were accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "litmus test too large for delay enumeration");
  }
  // 20 bits are still searched: 21 threads and one write.
  LitmusTest widest;
  widest.name = "twenty-delay-bits";
  widest.num_vars = 1;
  widest.threads.resize(21);
  widest.threads[0].instrs = {LitmusInstr::write(0, 1)};
  EXPECT_EQ(enumerate_outcomes(widest, Arch::POWER7),
            (std::set<Outcome>{{1}}));

  // Any arch: more than 64 commit-order nodes on one thread.
  LitmusTest nodes;
  nodes.name = "too-many-nodes";
  nodes.num_vars = 1;
  nodes.num_regs = 1;
  nodes.threads.resize(1);
  for (int i = 0; i < 65; ++i) {
    nodes.threads[0].instrs.push_back(LitmusInstr::read(0, 0));
  }
  for (const Arch arch : {Arch::SC, Arch::POWER7}) {
    try {
      (void)enumerate_outcomes(nodes, arch);
      ADD_FAILURE() << "65 nodes were accepted on " << arch_name(arch);
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "litmus thread too large for commit-order masks");
    }
  }
  // The arena recovered from the throws: the next enumeration still works.
  EXPECT_EQ(enumerate_outcomes(two_thread_mp(1, 1), Arch::SC).size(), 3u);
}

}  // namespace
}  // namespace wmm::sim
