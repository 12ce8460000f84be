// Validates that the operational weak-memory executor reproduces the classic
// allowed/forbidden litmus outcome matrix on each simulated architecture.
#include <gtest/gtest.h>

#include <ostream>

#include "sim/litmus.h"

namespace wmm::sim {

// Test names print the litmus test's name, not the case's raw bytes (which
// hold heap pointers and so change from run to run).
void PrintTo(const LitmusCase& c, std::ostream* os) { *os << c.test.name; }

namespace {

class LitmusSuite : public ::testing::TestWithParam<LitmusCase> {};

TEST_P(LitmusSuite, MatchesExpectedMatrix) {
  const LitmusCase& c = GetParam();
  for (Arch arch : {Arch::SC, Arch::X86_TSO, Arch::ARMV8, Arch::POWER7}) {
    const std::optional<bool> expected = expected_allowed(c, arch);
    if (!expected.has_value()) continue;
    const bool allowed = outcome_allowed(c.test, c.relaxed_outcome, arch);
    EXPECT_EQ(allowed, *expected)
        << c.test.name << " on " << arch_name(arch) << ": relaxed outcome "
        << (allowed ? "reachable" : "unreachable") << " but expected "
        << (*expected ? "allowed" : "forbidden");
  }
}

std::string case_name(const ::testing::TestParamInfo<LitmusCase>& info) {
  std::string name = info.param.test.name;
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(All, LitmusSuite, ::testing::ValuesIn(litmus_suite()),
                         case_name);

// SC executions must always include the interleaving-consistent outcomes.
TEST(LitmusBasics, ScContainsSequentialOutcome) {
  const LitmusCase sb = make_sb();
  const auto outcomes = enumerate_outcomes(sb.test, Arch::SC);
  // r0=1,r1=1 (fully serialised) is always reachable.
  EXPECT_TRUE(outcomes.count({1, 1, 1, 1}));
  // At least one thread must see the other's write under SC.
  EXPECT_FALSE(outcomes.count({0, 0, 1, 1}));
}

TEST(LitmusBasics, WeakerArchReachesSupersetOfSc) {
  for (const LitmusCase& c : litmus_suite()) {
    const auto sc = enumerate_outcomes(c.test, Arch::SC);
    const auto tso = enumerate_outcomes(c.test, Arch::X86_TSO);
    const auto arm = enumerate_outcomes(c.test, Arch::ARMV8);
    for (const Outcome& o : sc) {
      EXPECT_TRUE(tso.count(o)) << c.test.name << ": TSO lost an SC outcome";
      EXPECT_TRUE(arm.count(o)) << c.test.name << ": ARM lost an SC outcome";
    }
    for (const Outcome& o : tso) {
      EXPECT_TRUE(arm.count(o)) << c.test.name << ": ARM lost a TSO outcome";
    }
  }
}

TEST(LitmusBasics, PowerReachesSupersetOfArm) {
  for (const LitmusCase& c : litmus_suite()) {
    const auto arm = enumerate_outcomes(c.test, Arch::ARMV8);
    const auto power = enumerate_outcomes(c.test, Arch::POWER7);
    for (const Outcome& o : arm) {
      // Tests whose fences only exist on one ISA mix kinds; skip those where
      // the ARM outcome uses an ARM-only fence semantics stronger than the
      // POWER lowering would be.  The suite uses each fence uniformly, so the
      // superset property is still expected to hold.
      EXPECT_TRUE(power.count(o)) << c.test.name << ": POWER lost an ARM outcome";
    }
  }
}

}  // namespace
}  // namespace wmm::sim
