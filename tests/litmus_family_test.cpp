// diy7-style family generator: realisation unit checks, classic naming,
// corpus size, and cross-oracle agreement through the parallel engine (the
// generated corpus is only useful if the operational executor and the
// axiomatic oracles answer the herd question identically on it), plus the
// litmus_verdict records litmus_run emits for it: the same bytes at any
// worker count, cold or warm from a result store.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>

#include "cache/store.h"
#include "par/deterministic_map.h"
#include "sim/axiomatic.h"
#include "sim/fuzz.h"
#include "sim/litmus_family.h"
#include "sim/litmus_format.h"
#include "sim/litmus_verdict.h"

namespace wmm::sim {
namespace {

FamilySpec mp_spec(FamilyLink l0, FamilyLink l1) {
  return FamilySpec{{CommEdge::Rfe, CommEdge::Fre}, {l0, l1}};
}

TEST(FamilyRealize, MessagePassingShape) {
  const FamilyProgram p =
      realize_family(mp_spec({LinkKind::Po}, {LinkKind::Po}));
  EXPECT_EQ(p.name, "MP");
  ASSERT_EQ(p.test.threads.size(), 2u);
  ASSERT_EQ(p.test.threads[0].instrs.size(), 2u);
  ASSERT_EQ(p.test.threads[1].instrs.size(), 2u);
  EXPECT_EQ(p.test.num_vars, 2);
  // Writer thread: two stores; reader thread: two loads observing the
  // message before the data.
  for (const LitmusInstr& in : p.test.threads[0].instrs) {
    EXPECT_EQ(in.type, AccessType::Write);
  }
  for (const LitmusInstr& in : p.test.threads[1].instrs) {
    EXPECT_EQ(in.type, AccessType::Read);
  }
  ASSERT_EQ(p.witness.size(),
            static_cast<std::size_t>(p.test.num_regs + p.test.num_vars));
  // The witness must be a genuinely relaxed outcome: unreachable under SC,
  // reachable on ARM without barriers.
  EXPECT_FALSE(enumerate_outcomes(p.test, Arch::SC).count(p.witness));
  EXPECT_TRUE(enumerate_outcomes(p.test, Arch::ARMV8).count(p.witness));
}

TEST(FamilyRealize, AnnotationsNameTheLinks) {
  const FamilyProgram p = realize_family(
      mp_spec({LinkKind::Fence, FenceKind::DmbIsh}, {LinkKind::DepAddr}));
  EXPECT_EQ(p.name, "MP+dmb.ish+addr");
  // The fully fenced variant forbids the witness on every architecture.
  EXPECT_FALSE(enumerate_outcomes(p.test, Arch::ARMV8).count(p.witness));
  EXPECT_FALSE(enumerate_outcomes(p.test, Arch::POWER7).count(p.witness));
}

TEST(FamilyRealize, NoneLinkMergesWriterThread) {
  // WRC: a None link collapses thread 1 to the single write both Rfe edges
  // share, giving the classic lone-writer shape.
  const FamilySpec wrc{{CommEdge::Rfe, CommEdge::Fre, CommEdge::Rfe},
                       {{LinkKind::Po}, {LinkKind::Po}, {LinkKind::None}}};
  ASSERT_TRUE(family_spec_valid(wrc));
  const FamilyProgram p = realize_family(wrc);
  EXPECT_EQ(p.name, "WRC");
  ASSERT_EQ(p.test.threads.size(), 3u);
  std::size_t single_event_threads = 0;
  for (const LitmusThread& t : p.test.threads) {
    single_event_threads += t.instrs.size() == 1;
  }
  EXPECT_EQ(single_event_threads, 1u);
}

TEST(FamilyRealize, InvalidSpecsThrow) {
  // links[0] must be real (two real links minimum).
  EXPECT_THROW(realize_family(mp_spec({LinkKind::None}, {LinkKind::Po})),
               std::invalid_argument);
  // A None link between mismatched event types (W merged with R).
  const FamilySpec bad{{CommEdge::Coe, CommEdge::Fre},
                       {{LinkKind::Po}, {LinkKind::None}}};
  EXPECT_FALSE(family_spec_valid(bad));
  EXPECT_THROW(realize_family(bad), std::invalid_argument);
  // Data dependencies need a read feeding a write.
  EXPECT_FALSE(family_spec_valid(
      FamilySpec{{CommEdge::Rfe, CommEdge::Fre},
                 {{LinkKind::DepData}, {LinkKind::Po}}}));
}

TEST(FamilyGenerate, CorpusIsLargeDistinctAndDeterministic) {
  const std::vector<FamilyProgram> programs = generate_families();
  EXPECT_GE(programs.size(), 500u);
  std::set<std::string> keys;
  std::set<std::string> names;
  for (const FamilyProgram& p : programs) {
    keys.insert(canonical_program_key(p.test));
    names.insert(p.name);
  }
  EXPECT_EQ(keys.size(), programs.size()) << "isomorphic duplicates survived";
  EXPECT_EQ(names.size(), programs.size()) << "name collision";
  // Classic bases all appear.
  for (const char* classic : {"MP", "SB", "LB", "S", "R", "2+2W", "ISA2",
                              "WRC", "RWC", "IRIW"}) {
    EXPECT_TRUE(names.count(classic)) << classic << " missing from corpus";
  }
  EXPECT_TRUE(names.count("MP+dmb.ish+addr"));
  EXPECT_TRUE(names.count("SB+mfence+mfence"));
  EXPECT_TRUE(names.count("IRIW+sync+sync"));
  // Deterministic: a second enumeration is identical.
  const std::vector<FamilyProgram> again = generate_families();
  ASSERT_EQ(again.size(), programs.size());
  for (std::size_t i = 0; i < programs.size(); ++i) {
    EXPECT_EQ(again[i].name, programs[i].name);
    EXPECT_EQ(again[i].test, programs[i].test);
    EXPECT_EQ(again[i].witness, programs[i].witness);
  }
}

TEST(FamilyGenerate, EveryProgramPrintsAndRoundTrips) {
  FamilyOptions options;
  options.limit = 600;
  for (const FamilyProgram& p : generate_families(options)) {
    const LitmusFile file = to_litmus_file(p.test, p.witness);
    const std::string text = print_litmus(file);
    const LitmusFile back = parse_litmus(text);
    EXPECT_EQ(back.test, p.test) << p.name;
    EXPECT_EQ(print_litmus(back), text) << p.name;
  }
}

TEST(FamilyGenerate, OraclesAgreeAcrossTheCorpus) {
  // The herd question for every program, both oracles, fanned out through
  // the deterministic parallel engine exactly as litmus_run does it.
  FamilyOptions options;
  options.limit = 600;
  const std::vector<FamilyProgram> programs = generate_families(options);
  const std::vector<std::string> disagreements = par::par_map(
      programs,
      [](const FamilyProgram& p) -> std::string {
        const LitmusFile file = to_litmus_file(p.test, p.witness);
        for (Arch arch :
             {Arch::SC, Arch::X86_TSO, Arch::ARMV8, Arch::POWER7}) {
          const bool op =
              condition_reachable(file, enumerate_outcomes(p.test, arch));
          const bool ax =
              condition_reachable(file, axiomatic_outcomes(p.test, arch));
          if (op != ax) {
            return p.name + " on " + arch_name(arch) + ": op=" +
                   (op ? "allow" : "forbid") + " ax=" +
                   (ax ? "allow" : "forbid");
          }
        }
        return {};
      },
      /*threads=*/0);
  for (const std::string& d : disagreements) {
    EXPECT_TRUE(d.empty()) << d;
  }
}

// The `litmus` record of each of the first 12 family programs with at most
// three communication edges, computed on `threads` workers.
std::vector<std::string> family_verdict_lines(int threads,
                                              cache::ResultCache* store) {
  FamilyOptions options;
  options.max_comm_edges = 3;
  options.limit = 12;
  return par::par_map(
      generate_families(options),
      [store](const FamilyProgram& p) {
        return obs::litmus_line(litmus_verdict(
            to_litmus_file(p.test, p.witness), "family", store));
      },
      threads);
}

TEST(LitmusVerdictTest, RecordsAreIdenticalAcrossThreadCounts) {
  const std::vector<std::string> one = family_verdict_lines(1, nullptr);
  ASSERT_EQ(one.size(), 12u);
  EXPECT_EQ(one, family_verdict_lines(4, nullptr));
}

TEST(LitmusVerdictTest, WarmCacheReproducesRecordsWithoutRecomputing) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() /
                        ("wmm_litmus_verdict_cache_" +
                         std::to_string(::getpid()));
  fs::remove_all(root);
  cache::CacheConfig config;
  config.root = root.string();
  cache::ResultCache store(config);

  const std::vector<std::string> cold = family_verdict_lines(1, &store);
  const cache::CacheStats after_cold = store.stats();
  EXPECT_EQ(after_cold.hits, 0u);
  EXPECT_EQ(after_cold.writes, 12u);

  const std::vector<std::string> warm = family_verdict_lines(1, &store);
  EXPECT_EQ(cold, warm);
  const cache::CacheStats after_warm = store.stats();
  EXPECT_EQ(after_warm.hits, 12u);
  EXPECT_EQ(after_warm.writes, 12u);
  EXPECT_EQ(cold, family_verdict_lines(1, nullptr));

  fs::remove_all(root);
}

}  // namespace
}  // namespace wmm::sim
