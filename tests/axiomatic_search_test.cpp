// The axiomatic engine's pruned candidate search (axiomatic.h): its size is
// pinned per program, and the outcome-pruned queries (axiomatic_allowed,
// power_forbidding_axiom) agree with the full outcome set.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <set>

#include "sim/axiomatic.h"
#include "sim/axiomatic_power.h"
#include "sim/fuzz.h"
#include "sim/litmus.h"

namespace wmm::sim {
namespace {

const Arch kAllArchs[] = {Arch::SC, Arch::X86_TSO, Arch::ARMV8, Arch::POWER7};

// --- Search size (AxiomaticSearchStats) -------------------------------------

struct SearchSize {
  std::uint64_t extensions, pruned, leaves;
  friend bool operator==(const SearchSize&, const SearchSize&) = default;
};

std::ostream& operator<<(std::ostream& os, const SearchSize& s) {
  return os << "{" << s.extensions << ", " << s.pruned << ", " << s.leaves
            << "}";
}

template <typename Query>
SearchSize search_size(const Query& query) {
  const AxiomaticSearchStats before = axiomatic_search_stats();
  query();
  const AxiomaticSearchStats after = axiomatic_search_stats();
  EXPECT_EQ(after.searches - before.searches, 1u);
  return {after.extensions - before.extensions, after.pruned - before.pruned,
          after.leaves - before.leaves};
}

// The search visits a fixed number of choices per program and query,
// whatever the host.  Losing the pruning shows here exactly: every
// candidate would become a leaf and nothing would be pruned.
TEST(AxiomaticSearch, SizeIsPinnedForFourPrograms) {
  const LitmusCase sb = make_sb();
  const LitmusCase iriw = make_iriw_fenced(FenceKind::HwSync);
  // 2+2W with lwsync on both threads, which PROPAGATION forbids: IRIW+syncs
  // is forbidden by OBSERVATION alone, so its search prunes nothing.
  LitmusCase two_plus_two_w = make_2p2w();
  for (LitmusThread& t : two_plus_two_w.test.threads) {
    t.instrs.insert(t.instrs.begin() + 1,
                    LitmusInstr::barrier(FenceKind::LwSync));
  }
  // T0: W x=1   T1: R r0<-x; R r1<-x (ctrl<-r0); W x=2   T2: W x=3
  // T3: R r2<-x; dmb ishld; W x=4 — four writes to one location.
  const LitmusTest fuzz =
      generate_litmus(16, FuzzConfig::for_arch(Arch::ARMV8));
  ASSERT_EQ(fuzz.threads.size(), 4u);

  struct Pin {
    const char* what;
    const LitmusTest& test;
    Arch arch;
    SearchSize outcomes;
  };
  const Pin pins[] = {
      {"SB on SC", sb.test, Arch::SC, {4, 1, 3}},
      {"IRIW+syncs on POWER7", iriw.test, Arch::POWER7, {60, 0, 16}},
      {"2+2W+lwsyncs on POWER7", two_plus_two_w.test, Arch::POWER7, {10, 1, 3}},
      {"four-thread fuzz program on ARMv8", fuzz, Arch::ARMV8, {552, 570, 270}},
  };
  for (const Pin& pin : pins) {
    std::set<Outcome> outcomes;
    EXPECT_EQ(search_size([&] {
                outcomes = axiomatic_outcomes(pin.test, pin.arch);
              }),
              pin.outcomes)
        << pin.what;
    // A leaf is a candidate that passed every acyclicity axiom, so there
    // are at least as many as there are distinct outcomes.
    EXPECT_GE(pin.outcomes.leaves, outcomes.size()) << pin.what;
    // Deterministic: the same query searches the same choices again.
    EXPECT_EQ(
        search_size([&] { (void)axiomatic_outcomes(pin.test, pin.arch); }),
        pin.outcomes)
        << pin.what;
  }

  // The outcome-pruned query drops every choice that contradicts the
  // queried outcome before adding its edges.  Both relaxed outcomes are
  // forbidden: SB's on SC by a cycle, IRIW+syncs' by OBSERVATION at the one
  // leaf that produces it.
  bool allowed = true;
  EXPECT_EQ(search_size([&] {
              allowed = axiomatic_allowed(sb.test, sb.relaxed_outcome,
                                          Arch::SC);
            }),
            (SearchSize{1, 3, 0}));
  EXPECT_FALSE(allowed);
  EXPECT_EQ(search_size([&] {
              allowed = axiomatic_allowed(iriw.test, iriw.relaxed_outcome,
                                          Arch::POWER7);
            }),
            (SearchSize{8, 4, 1}));
  EXPECT_FALSE(allowed);
}

// --- Outcome-pruned queries -------------------------------------------------

// axiomatic_allowed prunes choices that contradict the queried outcome, and
// power_forbidding_axiom re-runs the search with fewer axioms; both must
// agree with the full outcome set on every suite case, for every outcome
// either oracle produces and for the case's relaxed outcome.
TEST(AxiomaticSearch, OutcomePrunedQueriesAgreeWithOutcomeSet) {
  for (const LitmusCase& c : litmus_suite()) {
    for (const Arch arch : kAllArchs) {
      const std::set<Outcome> allowed = axiomatic_outcomes(c.test, arch);
      std::set<Outcome> queries = enumerate_outcomes(c.test, arch);
      queries.insert(allowed.begin(), allowed.end());
      queries.insert(c.relaxed_outcome);
      for (const Outcome& o : queries) {
        const bool in_set = allowed.count(o) != 0;
        EXPECT_EQ(axiomatic_allowed(c.test, o, arch), in_set)
            << c.test.name << " on " << arch_name(arch);
        if (arch != Arch::POWER7) continue;
        EXPECT_EQ(power_forbidding_axiom(c.test, o) == PowerAxiom::None,
                  in_set)
            << c.test.name;
      }
    }
  }
}

// The same agreement on every value vector of a program whose outcome
// layout holds slots no single read decides: r0 is loaded twice (the later
// load, of y, sets it) and r1 is never loaded.  Vectors of the wrong length
// are never allowed.
TEST(AxiomaticSearch, AllowedMatchesOutcomeSetOnEveryValueVector) {
  LitmusTest test;
  test.name = "MP-reused-register";
  test.num_vars = 2;
  test.num_regs = 2;
  test.threads.resize(2);
  test.threads[0].instrs = {LitmusInstr::write(0, 1),
                            LitmusInstr::write(1, 2)};
  test.threads[1].instrs = {LitmusInstr::read(0, 1), LitmusInstr::read(0, 0)};
  for (const Arch arch : kAllArchs) {
    const std::set<Outcome> allowed = axiomatic_outcomes(test, arch);
    for (int code = 0; code < 81; ++code) {
      Outcome o;
      for (int c = code, i = 0; i < 4; ++i, c /= 3) o.push_back(c % 3);
      const bool in_set = allowed.count(o) != 0;
      EXPECT_EQ(axiomatic_allowed(test, o, arch), in_set)
          << arch_name(arch) << " code " << code;
      if (arch != Arch::POWER7) continue;
      EXPECT_EQ(power_forbidding_axiom(test, o) == PowerAxiom::None, in_set)
          << "code " << code;
    }
    EXPECT_FALSE(axiomatic_allowed(test, {2, 0, 2}, arch));
    EXPECT_FALSE(axiomatic_allowed(test, {2, 0, 2, 0, 0}, arch));
  }
}

}  // namespace
}  // namespace wmm::sim
