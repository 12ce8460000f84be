// The exact Herding-Cats POWER model of the axiomatic engine (axiomatic.h,
// axiomatic_power.h): relation-level unit tests for POWER's ppo and fence
// classes, per-axiom verdicts on the classic shapes,
// set-level agreement with the operational executor on the curated suite,
// and monotonicity of the deliberate weakenings used by the fuzzer's teeth.
#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/axiomatic.h"
#include "sim/axiomatic_power.h"
#include "sim/litmus.h"

namespace wmm::sim {
namespace {

// --- ppo and fences relations ----------------------------------------------

TEST(PowerPpo, SameLocationAndDependencies) {
  // W x; R y — nothing preserved on POWER.
  LitmusThread t;
  t.instrs = {LitmusInstr::write(0, 1), LitmusInstr::read(0, 1)};
  EXPECT_FALSE(axiomatic_ppo(t, 0, 1, Arch::POWER7));

  // Same location is always preserved (po-loc ⊆ ppo).
  t.instrs = {LitmusInstr::write(0, 1), LitmusInstr::read(0, 0)};
  EXPECT_TRUE(axiomatic_ppo(t, 0, 1, Arch::POWER7));

  // Address dependency read -> read.
  LitmusInstr addr_read = LitmusInstr::read(1, 0);
  addr_read.addr_dep = 0;
  t.instrs = {LitmusInstr::read(0, 1), addr_read};
  EXPECT_TRUE(axiomatic_ppo(t, 0, 1, Arch::POWER7));

  // Data dependency read -> write.
  LitmusInstr data_write = LitmusInstr::write(0, 1);
  data_write.data_dep = 0;
  t.instrs = {LitmusInstr::read(0, 1), data_write};
  EXPECT_TRUE(axiomatic_ppo(t, 0, 1, Arch::POWER7));

  // A bare control dependency orders read -> write but NOT read -> read
  // (reads may still be satisfied speculatively past a branch).
  LitmusInstr ctrl_write = LitmusInstr::write(0, 1);
  ctrl_write.ctrl_dep = 0;
  t.instrs = {LitmusInstr::read(0, 1), ctrl_write};
  EXPECT_TRUE(axiomatic_ppo(t, 0, 1, Arch::POWER7));
  LitmusInstr ctrl_read = LitmusInstr::read(1, 0);
  ctrl_read.ctrl_dep = 0;
  t.instrs = {LitmusInstr::read(0, 1), ctrl_read};
  EXPECT_FALSE(axiomatic_ppo(t, 0, 1, Arch::POWER7));
}

TEST(PowerPpo, AcquireRelease) {
  LitmusInstr acq = LitmusInstr::read(0, 0);
  acq.acquire = true;
  LitmusThread t;
  t.instrs = {acq, LitmusInstr::read(1, 1)};
  EXPECT_TRUE(axiomatic_ppo(t, 0, 1, Arch::POWER7));

  LitmusInstr rel = LitmusInstr::write(1, 1);
  rel.release = true;
  t.instrs = {LitmusInstr::write(0, 1), rel};
  EXPECT_TRUE(axiomatic_ppo(t, 0, 1, Arch::POWER7));
  // A release orders only its program-order *predecessors*.
  t.instrs = {rel, LitmusInstr::write(0, 1)};
  EXPECT_FALSE(axiomatic_ppo(t, 0, 1, Arch::POWER7));
}

TEST(PowerFences, OrderingClasses) {
  // Each pair spans two locations with no dependency, so only the fence
  // between them can order it.
  auto ordered = [](FenceKind kind, LitmusInstr a, LitmusInstr b,
                    const AxiomaticOptions& options = {}) {
    LitmusThread t;
    t.instrs = {a, LitmusInstr::barrier(kind), b};
    return axiomatic_ppo(t, 0, 2, Arch::POWER7, options);
  };
  const LitmusInstr w0 = LitmusInstr::write(0, 1);  // W x
  const LitmusInstr r0 = LitmusInstr::read(0, 0);   // R x
  const LitmusInstr r1 = LitmusInstr::read(0, 1);   // R y
  const LitmusInstr w1 = LitmusInstr::write(1, 1);  // W y

  // lwsync covers everything except store->load.
  EXPECT_TRUE(ordered(FenceKind::LwSync, w0, w1));
  EXPECT_FALSE(ordered(FenceKind::LwSync, w0, r1));
  // sync is a full barrier.
  EXPECT_TRUE(ordered(FenceKind::HwSync, w0, r1));
  // isync alone orders only read -> {read,write}.
  EXPECT_TRUE(ordered(FenceKind::ISync, r0, w1));
  EXPECT_FALSE(ordered(FenceKind::ISync, w0, w1));
  // ctrl+isb (the ctrl+isync idiom) likewise upgrades read -> read.
  EXPECT_TRUE(ordered(FenceKind::CtrlIsb, r0, r1));

  // The lwsync-as-sync weakening closes the store->load hole.
  AxiomaticOptions weak;
  weak.power.lwsync_is_sync = true;
  EXPECT_TRUE(ordered(FenceKind::LwSync, w0, r1, weak));
}

// --- Per-axiom verdicts on the classic shapes -------------------------------

TEST(PowerAxioms, ScPerLocationForbidsCoRR) {
  const LitmusCase c = make_corr();
  EXPECT_EQ(power_forbidding_axiom(c.test, c.relaxed_outcome),
            PowerAxiom::ScPerLocation);
}

TEST(PowerAxioms, NoThinAirForbidsLbDeps) {
  const LitmusCase c = make_lb_deps();
  EXPECT_EQ(power_forbidding_axiom(c.test, c.relaxed_outcome),
            PowerAxiom::NoThinAir);
}

TEST(PowerAxioms, PropagationForbids2p2wLwsyncs) {
  // 2+2W with lwsync on both threads: a cycle of co and write-to-write
  // fence edges that no single commit interleaving can linearise.
  LitmusCase c = make_2p2w();
  for (LitmusThread& t : c.test.threads) {
    t.instrs.insert(t.instrs.begin() + 1,
                    LitmusInstr::barrier(FenceKind::LwSync));
  }
  EXPECT_TRUE(axiomatic_allowed(make_2p2w().test, make_2p2w().relaxed_outcome,
                                Arch::POWER7));
  EXPECT_EQ(power_forbidding_axiom(c.test, c.relaxed_outcome),
            PowerAxiom::Propagation);
}

TEST(PowerAxioms, ObservationForbidsMpLwsyncAddr) {
  const LitmusCase c = make_mp_fenced_dep(FenceKind::LwSync);
  EXPECT_EQ(power_forbidding_axiom(c.test, c.relaxed_outcome),
            PowerAxiom::Observation);
}

TEST(PowerAxioms, ObservationForbidsWrcSync) {
  // B-cumulativity: the middle thread's sync propagates the write it *read*.
  const LitmusCase c = make_wrc_sync();
  EXPECT_EQ(power_forbidding_axiom(c.test, c.relaxed_outcome),
            PowerAxiom::Observation);
}

TEST(PowerAxioms, AxiomNamesAreStable) {
  EXPECT_STREQ(power_axiom_name(PowerAxiom::None), "none");
  EXPECT_STREQ(power_axiom_name(PowerAxiom::ScPerLocation), "SC-PER-LOCATION");
  EXPECT_STREQ(power_axiom_name(PowerAxiom::NoThinAir), "NO-THIN-AIR");
  EXPECT_STREQ(power_axiom_name(PowerAxiom::Propagation), "PROPAGATION");
  EXPECT_STREQ(power_axiom_name(PowerAxiom::Observation), "OBSERVATION");
}

// --- Whole-suite agreement ---------------------------------------------------

// The oracle reproduces every expected POWER verdict of the curated suite
// (the published Herding-Cats PPC verdicts for the classic shapes).
TEST(PowerOracle, MatchesCuratedLitmusMatrix) {
  for (const LitmusCase& c : litmus_suite()) {
    const std::optional<bool> expected = expected_allowed(c, Arch::POWER7);
    if (!expected.has_value()) continue;
    EXPECT_EQ(axiomatic_allowed(c.test, c.relaxed_outcome, Arch::POWER7),
              *expected)
        << c.test.name;
  }
}

// Stronger: full outcome-set equality with the operational executor on every
// suite case, the same check the fuzzer applies to random programs.
TEST(PowerOracle, AgreesWithOperationalExecutorOnSuite) {
  for (const LitmusCase& c : litmus_suite()) {
    EXPECT_EQ(axiomatic_outcomes(c.test, Arch::POWER7),
              enumerate_outcomes(c.test, Arch::POWER7))
        << c.test.name;
  }
}

// POWER admits everything the (multi-copy-atomic) ARMv8 axioms admit: the
// operational machine with all visibility delays off is the ARM machine.
TEST(PowerOracle, AdmitsArmAxiomaticSet) {
  for (const LitmusCase& c : litmus_suite()) {
    const auto power = axiomatic_outcomes(c.test, Arch::POWER7);
    for (const Outcome& o : axiomatic_outcomes(c.test, Arch::ARMV8)) {
      EXPECT_TRUE(power.count(o)) << c.test.name;
    }
  }
}

TEST(PowerOracle, RejectsOversizedTests) {
  LitmusTest big;
  big.name = "too-big";
  big.num_vars = 1;
  big.num_regs = 0;
  LitmusThread t;
  for (int i = 0; i < 40; ++i) t.instrs.push_back(LitmusInstr::write(0, i + 1));
  big.threads = {t};
  EXPECT_THROW(axiomatic_outcomes(big, Arch::POWER7), std::invalid_argument);
}

// --- Weakenings (the fuzzer's teeth) ----------------------------------------

// Dropping a forbidding rule only ever *adds* outcomes; strengthening lwsync
// only ever removes them.  Monotonicity keeps the teeth divergences
// one-sided and easy to interpret.
TEST(PowerWeakenings, AreMonotone) {
  AxiomaticOptions drop_obs, drop_bc, lw;
  drop_obs.power.drop_observation = true;
  drop_bc.power.drop_b_cumulativity = true;
  lw.power.lwsync_is_sync = true;
  for (const LitmusCase& c : litmus_suite()) {
    const auto base = axiomatic_outcomes(c.test, Arch::POWER7);
    const auto obs = axiomatic_outcomes(c.test, Arch::POWER7, drop_obs);
    const auto bc = axiomatic_outcomes(c.test, Arch::POWER7, drop_bc);
    const auto strong = axiomatic_outcomes(c.test, Arch::POWER7, lw);
    for (const Outcome& o : base) {
      EXPECT_TRUE(obs.count(o)) << c.test.name;
      EXPECT_TRUE(bc.count(o)) << c.test.name;
    }
    for (const Outcome& o : strong) EXPECT_TRUE(base.count(o)) << c.test.name;
  }
}

// Each weakening changes the verdict of the shape that pins it.
TEST(PowerWeakenings, FlipKnownVerdicts) {
  AxiomaticOptions drop_obs, drop_bc, lw;
  drop_obs.power.drop_observation = true;
  drop_bc.power.drop_b_cumulativity = true;
  lw.power.lwsync_is_sync = true;

  const LitmusCase mp = make_mp_fenced_dep(FenceKind::LwSync);
  EXPECT_FALSE(axiomatic_allowed(mp.test, mp.relaxed_outcome, Arch::POWER7));
  EXPECT_TRUE(axiomatic_allowed(mp.test, mp.relaxed_outcome, Arch::POWER7,
                                drop_obs));

  const LitmusCase wrc = make_wrc_sync();
  EXPECT_FALSE(axiomatic_allowed(wrc.test, wrc.relaxed_outcome, Arch::POWER7));
  EXPECT_TRUE(axiomatic_allowed(wrc.test, wrc.relaxed_outcome, Arch::POWER7,
                                drop_bc));

  const LitmusCase sb = make_sb_fenced(FenceKind::LwSync);
  EXPECT_TRUE(axiomatic_allowed(sb.test, sb.relaxed_outcome, Arch::POWER7));
  EXPECT_FALSE(axiomatic_allowed(sb.test, sb.relaxed_outcome, Arch::POWER7,
                                lw));
}

}  // namespace
}  // namespace wmm::sim
