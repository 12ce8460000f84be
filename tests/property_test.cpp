// Property-based (parameterised) tests on cross-cutting invariants of the
// simulator and the methodology.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "core/sensitivity.h"
#include "sim/calibrate.h"
#include "sim/litmus.h"
#include "sim/machine.h"

namespace wmm {
namespace {

// --- Fence cost invariants over machine state --------------------------------

// Test names print the case's raw bytes, so the case has no padding: the
// two bytes after `kind` are an explicit zero instead of whatever the stack
// held, and the names are the same on every run.
struct FenceStateCase {
  sim::Arch arch;
  sim::FenceKind kind;
  std::uint16_t zero;
  unsigned dirty_stores;  // store-buffer entries before the fence
};
static_assert(std::has_unique_object_representations_v<FenceStateCase>);

class FenceCostMonotone : public ::testing::TestWithParam<FenceStateCase> {};

TEST_P(FenceCostMonotone, CostNeverDecreasesWithStoreBacklog) {
  const FenceStateCase& c = GetParam();
  const auto cost_with_backlog = [&](unsigned stores) {
    sim::Machine machine(sim::params_for(c.arch));
    sim::Cpu& cpu = machine.cpu(0);
    cpu.private_access(0, stores, 0.0);
    const double t0 = cpu.now();
    cpu.fence(c.kind, 1);
    return cpu.now() - t0;
  };
  const double empty = cost_with_backlog(0);
  const double dirty = cost_with_backlog(c.dirty_stores);
  EXPECT_GE(dirty + 1e-9, empty)
      << sim::fence_name(c.kind) << " on " << sim::arch_name(c.arch);
}

INSTANTIATE_TEST_SUITE_P(
    AllFences, FenceCostMonotone,
    ::testing::Values(
        FenceStateCase{sim::Arch::ARMV8, sim::FenceKind::DmbIsh, 0, 12},
        FenceStateCase{sim::Arch::ARMV8, sim::FenceKind::DmbIshSt, 0, 12},
        FenceStateCase{sim::Arch::ARMV8, sim::FenceKind::DmbIshLd, 0, 12},
        FenceStateCase{sim::Arch::ARMV8, sim::FenceKind::Isb, 0, 12},
        FenceStateCase{sim::Arch::POWER7, sim::FenceKind::LwSync, 0, 16},
        FenceStateCase{sim::Arch::POWER7, sim::FenceKind::HwSync, 0, 16},
        FenceStateCase{sim::Arch::X86_TSO, sim::FenceKind::Mfence, 0, 12}),
    [](const auto& info) {
      std::string n = std::string(sim::arch_name(info.param.arch)) + "_" +
                      sim::fence_name(info.param.kind);
      for (char& ch : n) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return n;
    });

// Full barriers cost at least as much as their one-sided variants in any
// machine state.
class FullBarrierDominance : public ::testing::TestWithParam<unsigned> {};

TEST_P(FullBarrierDominance, DmbIshDominatesVariants) {
  const unsigned stores = GetParam();
  const auto cost = [&](sim::FenceKind k) {
    sim::Machine machine(sim::arm_v8_params());
    sim::Cpu& cpu = machine.cpu(0);
    cpu.private_access(4, stores, 0.0);
    for (unsigned i = 0; i < stores / 4; ++i) {
      cpu.receive_invalidation(cpu.now());
    }
    const double t0 = cpu.now();
    cpu.fence(k, 1);
    return cpu.now() - t0;
  };
  EXPECT_GE(cost(sim::FenceKind::DmbIsh) + 1e-9, cost(sim::FenceKind::DmbIshSt));
  EXPECT_GE(cost(sim::FenceKind::DmbIsh) + 1e-9, cost(sim::FenceKind::DmbIshLd));
}

INSTANTIATE_TEST_SUITE_P(Backlogs, FullBarrierDominance,
                         ::testing::Values(0u, 2u, 6u, 12u, 20u));

// POWER sync/lwsync delta stays roughly constant across store backlogs — the
// workload-agnostic behaviour the paper measures.
class PowerDelta : public ::testing::TestWithParam<unsigned> {};

TEST_P(PowerDelta, SyncMinusLwsyncRoughlyConstant) {
  const unsigned stores = GetParam();
  const auto cost = [&](sim::FenceKind k) {
    sim::Machine machine(sim::power7_params());
    sim::Cpu& cpu = machine.cpu(0);
    cpu.private_access(0, stores, 0.0);
    const double t0 = cpu.now();
    cpu.fence(k, 1);
    return cpu.now() - t0;
  };
  const double delta =
      cost(sim::FenceKind::HwSync) - cost(sim::FenceKind::LwSync);
  EXPECT_NEAR(delta, 12.4, 3.0) << "stores=" << stores;
}

INSTANTIATE_TEST_SUITE_P(Backlogs, PowerDelta,
                         ::testing::Values(0u, 4u, 8u, 16u, 24u));

// --- Cost-function calibration properties --------------------------------------

class CalibrationMonotone
    : public ::testing::TestWithParam<std::pair<sim::Arch, bool>> {};

TEST_P(CalibrationMonotone, TimeStrictlyIncreasesWithIterations) {
  const auto [arch, spill] = GetParam();
  const sim::ArchParams p = sim::params_for(arch);
  double prev = 0.0;
  for (std::uint32_t n : core::standard_sweep_sizes(12)) {
    const double t = sim::cost_function_time_ns(p, n, spill);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Archs, CalibrationMonotone,
    ::testing::Values(std::pair{sim::Arch::ARMV8, true},
                      std::pair{sim::Arch::ARMV8, false},
                      std::pair{sim::Arch::POWER7, true},
                      std::pair{sim::Arch::X86_TSO, false}),
    [](const auto& info) {
      return std::string(sim::arch_name(info.param.first)) +
             (info.param.second ? "_spill" : "_nostack");
    });

// --- Sensitivity-fit robustness --------------------------------------------------

class FitRecovery : public ::testing::TestWithParam<double> {};

TEST_P(FitRecovery, RecoversKAcrossMagnitudes) {
  const double k_true = GetParam();
  std::vector<core::SweepPoint> points;
  for (double a = 1.0; a <= 1024.0; a *= 2.0) {
    points.push_back({a, core::model_performance(a, k_true)});
  }
  const core::SensitivityFit fit = core::fit_sensitivity(points);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.k, k_true, k_true * 0.02 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, FitRecovery,
                         ::testing::Values(1e-5, 1e-4, 5e-4, 2e-3, 1e-2, 5e-2,
                                           0.2));

// --- Litmus executor properties ----------------------------------------------------

// Adding a fence can only shrink (never grow) the reachable outcome set.
class FenceShrinksOutcomes : public ::testing::TestWithParam<sim::FenceKind> {};

TEST_P(FenceShrinksOutcomes, OnSbAndMp) {
  const sim::FenceKind kind = GetParam();
  for (const sim::LitmusCase& base :
       {sim::make_sb(), sim::make_mp(), sim::make_lb()}) {
    sim::LitmusTest fenced = base.test;
    for (auto& t : fenced.threads) {
      t.instrs.insert(t.instrs.begin() + 1, sim::LitmusInstr::barrier(kind));
    }
    for (sim::Arch arch : {sim::Arch::X86_TSO, sim::Arch::ARMV8,
                           sim::Arch::POWER7}) {
      const auto plain = sim::enumerate_outcomes(base.test, arch);
      const auto strong = sim::enumerate_outcomes(fenced, arch);
      for (const auto& o : strong) {
        EXPECT_TRUE(plain.count(o))
            << base.test.name << "+" << sim::fence_name(kind) << " on "
            << sim::arch_name(arch) << " grew the outcome set";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, FenceShrinksOutcomes,
    ::testing::Values(sim::FenceKind::DmbIsh, sim::FenceKind::DmbIshLd,
                      sim::FenceKind::DmbIshSt, sim::FenceKind::LwSync,
                      sim::FenceKind::HwSync, sim::FenceKind::Mfence,
                      sim::FenceKind::CtrlIsb),
    [](const auto& info) {
      std::string n = sim::fence_name(info.param);
      for (char& ch : n) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return n;
    });

// The SC outcome set always equals the interleaving semantics and is a
// subset of every weaker architecture's set.
TEST(LitmusProperties, ScIsStrongestEverywhere) {
  for (const sim::LitmusCase& c : sim::litmus_suite()) {
    const auto sc = sim::enumerate_outcomes(c.test, sim::Arch::SC);
    ASSERT_FALSE(sc.empty()) << c.test.name;
    for (sim::Arch arch : {sim::Arch::X86_TSO, sim::Arch::ARMV8,
                           sim::Arch::POWER7}) {
      const auto weak = sim::enumerate_outcomes(c.test, arch);
      EXPECT_GE(weak.size(), sc.size()) << c.test.name;
    }
  }
}

}  // namespace
}  // namespace wmm
