#include <array>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "jvm/runtime.h"

#include "sim/calibrate.h"

namespace wmm::jvm {
namespace {

// --- IR barrier composition ---------------------------------------------------

TEST(Barriers, IrComponentsMatchPaper) {
  // Paper 4.2 (POWER description): Volatile = all four; Acquire/LoadFence =
  // LoadLoad+LoadStore; Release/StoreFence = LoadStore+StoreStore.
  EXPECT_EQ(ir_components(IrBarrier::Volatile).size(), 4u);
  const auto acquire = ir_components(IrBarrier::Acquire);
  ASSERT_EQ(acquire.size(), 2u);
  EXPECT_EQ(acquire[0], Elemental::LoadLoad);
  EXPECT_EQ(acquire[1], Elemental::LoadStore);
  EXPECT_EQ(ir_components(IrBarrier::LoadFence), acquire);
  const auto release = ir_components(IrBarrier::Release);
  ASSERT_EQ(release.size(), 2u);
  EXPECT_EQ(release[0], Elemental::LoadStore);
  EXPECT_EQ(release[1], Elemental::StoreStore);
  EXPECT_EQ(ir_components(IrBarrier::StoreFence), release);
}

// --- Lowering tables -----------------------------------------------------------

TEST(Fencing, ArmLoweringMatchesJdk9) {
  JvmConfig c;
  c.arch = sim::Arch::ARMV8;
  FencingStrategy s(c);
  EXPECT_EQ(s.lowering(Elemental::LoadLoad), sim::FenceKind::DmbIshLd);
  EXPECT_EQ(s.lowering(Elemental::LoadStore), sim::FenceKind::DmbIshLd);
  EXPECT_EQ(s.lowering(Elemental::StoreStore), sim::FenceKind::DmbIshSt);
  EXPECT_EQ(s.lowering(Elemental::StoreLoad), sim::FenceKind::DmbIsh);
}

TEST(Fencing, PowerLoweringUsesSyncOnlyForStoreLoad) {
  JvmConfig c;
  c.arch = sim::Arch::POWER7;
  FencingStrategy s(c);
  EXPECT_EQ(s.lowering(Elemental::StoreLoad), sim::FenceKind::HwSync);
  EXPECT_EQ(s.lowering(Elemental::LoadLoad), sim::FenceKind::LwSync);
  EXPECT_EQ(s.lowering(Elemental::LoadStore), sim::FenceKind::LwSync);
  EXPECT_EQ(s.lowering(Elemental::StoreStore), sim::FenceKind::LwSync);
}

TEST(Fencing, X86OnlyFencesStoreLoad) {
  JvmConfig c;
  c.arch = sim::Arch::X86_TSO;
  FencingStrategy s(c);
  EXPECT_EQ(s.lowering(Elemental::StoreLoad), sim::FenceKind::Mfence);
  EXPECT_EQ(s.lowering(Elemental::StoreStore), sim::FenceKind::CompilerOnly);
}

TEST(Fencing, StoreStoreOverride) {
  JvmConfig c;
  c.arch = sim::Arch::ARMV8;
  c.storestore_override = sim::FenceKind::DmbIsh;
  FencingStrategy s(c);
  EXPECT_EQ(s.lowering(Elemental::StoreStore), sim::FenceKind::DmbIsh);
  EXPECT_EQ(s.lowering(Elemental::LoadLoad), sim::FenceKind::DmbIshLd);
}

TEST(Fencing, IrSequenceSubsumption) {
  JvmConfig c;
  c.arch = sim::Arch::ARMV8;
  FencingStrategy s(c);
  // Volatile contains StoreLoad -> single full barrier.
  const sim::FenceSeq vol = s.ir_sequence(IrBarrier::Volatile);
  ASSERT_EQ(vol.size(), 1u);
  EXPECT_EQ(vol[0].kind, sim::FenceKind::DmbIsh);
  // Acquire: LoadLoad+LoadStore both lower to ishld -> deduplicated.
  const sim::FenceSeq acq = s.ir_sequence(IrBarrier::Acquire);
  ASSERT_EQ(acq.size(), 1u);
  EXPECT_EQ(acq[0].kind, sim::FenceKind::DmbIshLd);
  // Release: ishld + ishst.
  const sim::FenceSeq rel = s.ir_sequence(IrBarrier::Release);
  ASSERT_EQ(rel.size(), 2u);
}

// Every resolved table under every StoreStore override, on every arch: the
// IR sequences are built from the overridden elemental lowering, so a table
// resolved before the override is applied would show here.
TEST(Fencing, IrSequenceEveryBarrierArchAndOverride) {
  using K = sim::FenceKind;
  using Seqs = std::array<std::vector<K>, 5>;  // IrBarrier order
  struct Row {
    sim::Arch arch;
    std::optional<K> storestore_override;
    std::array<K, 4> lowering;  // Elemental order
    Seqs ir;
  };
  // Volatile, Acquire, Release, LoadFence, StoreFence.
  const Row rows[] = {
      {sim::Arch::ARMV8, std::nullopt,
       {K::DmbIshLd, K::DmbIshLd, K::DmbIsh, K::DmbIshSt},
       Seqs{{{K::DmbIsh}, {K::DmbIshLd}, {K::DmbIshLd, K::DmbIshSt},
             {K::DmbIshLd}, {K::DmbIshLd, K::DmbIshSt}}}},
      {sim::Arch::ARMV8, K::DmbIsh,
       {K::DmbIshLd, K::DmbIshLd, K::DmbIsh, K::DmbIsh},
       Seqs{{{K::DmbIsh}, {K::DmbIshLd}, {K::DmbIshLd, K::DmbIsh},
             {K::DmbIshLd}, {K::DmbIshLd, K::DmbIsh}}}},
      {sim::Arch::ARMV8, K::HwSync,
       {K::DmbIshLd, K::DmbIshLd, K::DmbIsh, K::HwSync},
       Seqs{{{K::DmbIsh}, {K::DmbIshLd}, {K::DmbIshLd, K::HwSync},
             {K::DmbIshLd}, {K::DmbIshLd, K::HwSync}}}},
      {sim::Arch::POWER7, std::nullopt,
       {K::LwSync, K::LwSync, K::HwSync, K::LwSync},
       Seqs{{{K::HwSync}, {K::LwSync}, {K::LwSync}, {K::LwSync},
             {K::LwSync}}}},
      {sim::Arch::POWER7, K::DmbIsh,
       {K::LwSync, K::LwSync, K::HwSync, K::DmbIsh},
       Seqs{{{K::HwSync}, {K::LwSync}, {K::LwSync, K::DmbIsh}, {K::LwSync},
             {K::LwSync, K::DmbIsh}}}},
      {sim::Arch::POWER7, K::HwSync,
       {K::LwSync, K::LwSync, K::HwSync, K::HwSync},
       Seqs{{{K::HwSync}, {K::LwSync}, {K::LwSync, K::HwSync}, {K::LwSync},
             {K::LwSync, K::HwSync}}}},
      {sim::Arch::X86_TSO, std::nullopt,
       {K::CompilerOnly, K::CompilerOnly, K::Mfence, K::CompilerOnly},
       Seqs{{{K::Mfence}, {}, {}, {}, {}}}},
      {sim::Arch::X86_TSO, K::DmbIsh,
       {K::CompilerOnly, K::CompilerOnly, K::Mfence, K::DmbIsh},
       Seqs{{{K::Mfence}, {}, {K::DmbIsh}, {}, {K::DmbIsh}}}},
      {sim::Arch::X86_TSO, K::HwSync,
       {K::CompilerOnly, K::CompilerOnly, K::Mfence, K::HwSync},
       Seqs{{{K::Mfence}, {}, {K::HwSync}, {}, {K::HwSync}}}},
      // SC: StoreLoad is free, and the subsumption rule keeps its
      // compiler-only barrier as Volatile's sequence.
      {sim::Arch::SC, std::nullopt,
       {K::CompilerOnly, K::CompilerOnly, K::CompilerOnly, K::CompilerOnly},
       Seqs{{{K::CompilerOnly}, {}, {}, {}, {}}}},
      {sim::Arch::SC, K::DmbIsh,
       {K::CompilerOnly, K::CompilerOnly, K::CompilerOnly, K::DmbIsh},
       Seqs{{{K::CompilerOnly}, {}, {K::DmbIsh}, {}, {K::DmbIsh}}}},
      {sim::Arch::SC, K::HwSync,
       {K::CompilerOnly, K::CompilerOnly, K::CompilerOnly, K::HwSync},
       Seqs{{{K::CompilerOnly}, {}, {K::HwSync}, {}, {K::HwSync}}}},
  };
  for (const Row& row : rows) {
    JvmConfig c;
    c.arch = row.arch;
    c.storestore_override = row.storestore_override;
    const FencingStrategy s(c);
    SCOPED_TRACE(std::string(sim::arch_name(row.arch)) + " override=" +
                 (row.storestore_override
                      ? sim::fence_name(*row.storestore_override)
                      : "none"));
    for (Elemental e : kAllElementals) {
      EXPECT_EQ(s.lowering(e), row.lowering[static_cast<std::size_t>(e)])
          << elemental_name(e);
    }
    for (std::size_t b = 0; b < 5; ++b) {
      std::vector<K> got;
      for (const sim::FenceOp& op : s.ir_sequence(static_cast<IrBarrier>(b))) {
        got.push_back(op.kind);
      }
      EXPECT_EQ(got, row.ir[b]) << ir_barrier_name(static_cast<IrBarrier>(b));
    }
  }
}

TEST(Fencing, InjectedSlotsPerArch) {
  JvmConfig arm;
  arm.arch = sim::Arch::ARMV8;
  EXPECT_EQ(FencingStrategy(arm).injected_slots(), 3u);  // scratch register
  JvmConfig power;
  power.arch = sim::Arch::POWER7;
  EXPECT_EQ(FencingStrategy(power).injected_slots(), 6u);
}

TEST(Fencing, InjectionTimingPerMember) {
  // A cost function injected into one elemental fires at every IR barrier
  // containing it, and nop padding keeps the base case the same size.
  JvmConfig base;
  base.arch = sim::Arch::ARMV8;
  JvmConfig injected = base;
  injected.injection_for(Elemental::StoreStore) =
      core::Injection::cost_function(256, false);

  sim::Machine m1(sim::params_for(base.arch));
  sim::Machine m2(sim::params_for(base.arch));
  FencingStrategy s1(base), s2(injected);

  s1.emit_ir(m1.cpu(0), IrBarrier::Release, 1);
  s2.emit_ir(m2.cpu(0), IrBarrier::Release, 1);
  const double delta = m2.cpu(0).now() - m1.cpu(0).now();
  const double loop_ns = sim::cost_function_time_ns(sim::params_for(base.arch),
                                                    256, false);
  const double pad_ns = 3 * sim::params_for(base.arch).nop_ns;
  EXPECT_NEAR(delta, loop_ns - pad_ns, 1e-6);

  // Acquire does not contain StoreStore: no cost function there.
  sim::Machine m3(sim::params_for(base.arch));
  sim::Machine m4(sim::params_for(base.arch));
  s1.emit_ir(m3.cpu(0), IrBarrier::Acquire, 1);
  s2.emit_ir(m4.cpu(0), IrBarrier::Acquire, 1);
  EXPECT_NEAR(m4.cpu(0).now(), m3.cpu(0).now(), 1e-9);
}

// --- Runtime ---------------------------------------------------------------------

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() : machine_(sim::arm_v8_params()) {}

  JvmConfig config_;
  sim::Machine machine_;
};

TEST_F(RuntimeTest, VolatileLoadEmitsVolatileThenAcquire) {
  JvmRuntime rt(machine_, config_);
  rt.volatile_load(machine_.cpu(0), 0x100);
  EXPECT_EQ(rt.ir_barrier_count(IrBarrier::Volatile), 1u);
  EXPECT_EQ(rt.ir_barrier_count(IrBarrier::Acquire), 1u);
  EXPECT_EQ(rt.ir_barrier_count(IrBarrier::Release), 0u);
}

TEST_F(RuntimeTest, VolatileStoreEmitsReleaseThenVolatile) {
  JvmRuntime rt(machine_, config_);
  rt.volatile_store(machine_.cpu(0), 0x100);
  EXPECT_EQ(rt.ir_barrier_count(IrBarrier::Release), 1u);
  EXPECT_EQ(rt.ir_barrier_count(IrBarrier::Volatile), 1u);
}

TEST_F(RuntimeTest, AcquireReleaseModeSkipsElementalBarriers) {
  config_.mode = VolatileMode::AcquireRelease;
  JvmRuntime rt(machine_, config_);
  rt.volatile_load(machine_.cpu(0), 0x100);
  rt.volatile_store(machine_.cpu(0), 0x100);
  EXPECT_EQ(rt.ir_barrier_count(IrBarrier::Volatile), 0u);
  EXPECT_EQ(rt.ir_barrier_count(IrBarrier::Acquire), 0u);
  EXPECT_EQ(rt.ir_barrier_count(IrBarrier::Release), 0u);
}

TEST_F(RuntimeTest, AcquireReleaseVolatileOpsAreCheaperOnArm) {
  JvmRuntime barriers(machine_, config_);
  sim::Machine machine2(sim::arm_v8_params());
  JvmConfig arc = config_;
  arc.mode = VolatileMode::AcquireRelease;
  JvmRuntime acqrel(machine2, arc);

  for (int i = 0; i < 100; ++i) {
    barriers.volatile_load(machine_.cpu(0), 0x100);
    barriers.volatile_store(machine_.cpu(0), 0x100);
    acqrel.volatile_load(machine2.cpu(0), 0x100);
    acqrel.volatile_store(machine2.cpu(0), 0x100);
  }
  EXPECT_LT(machine2.cpu(0).now(), machine_.cpu(0).now());
}

TEST_F(RuntimeTest, MonitorSerialisesCriticalSections) {
  JvmRuntime rt(machine_, config_);
  Monitor monitor;
  // Thread on cpu 0 holds the lock for 1000ns starting now.
  rt.synchronized(machine_.cpu(0), monitor,
                  [&] { machine_.cpu(0).compute(1000.0); });
  const double t0_end = machine_.cpu(0).now();
  // A later acquisition on cpu 1 must wait for the release.
  const bool contended = rt.synchronized(machine_.cpu(1), monitor, [&] {});
  EXPECT_TRUE(contended);
  EXPECT_GE(machine_.cpu(1).now(), t0_end);
  EXPECT_EQ(monitor.acquisitions, 2u);
  EXPECT_EQ(monitor.contended, 1u);
}

TEST_F(RuntimeTest, UncontendedMonitorDoesNotWait) {
  JvmRuntime rt(machine_, config_);
  Monitor monitor;
  machine_.cpu(0).compute(5000.0);
  const bool contended = rt.synchronized(machine_.cpu(0), monitor, [&] {});
  EXPECT_FALSE(contended);
}

TEST_F(RuntimeTest, DmbElisionChangesCasCost) {
  config_.mode = VolatileMode::AcquireRelease;
  JvmRuntime pre_patch(machine_, config_);
  sim::Machine machine2(sim::arm_v8_params());
  JvmConfig patched_config = config_;
  patched_config.elide_monitor_dmb = true;
  JvmRuntime patched(machine2, patched_config);

  for (int i = 0; i < 50; ++i) {
    pre_patch.cas(machine_.cpu(0), 0x200);
    patched.cas(machine2.cpu(0), 0x200);
  }
  EXPECT_LT(machine2.cpu(0).now(), machine_.cpu(0).now());
}

TEST_F(RuntimeTest, GcTriggersAtHeapBudget) {
  GcOptions gc;
  gc.heap_budget_bytes = 10000.0;
  JvmRuntime rt(machine_, config_, gc);
  EXPECT_EQ(rt.gc_count(), 0u);
  for (int i = 0; i < 30; ++i) rt.alloc(machine_.cpu(0), 1000.0);
  EXPECT_EQ(rt.gc_count(), 3u);
  EXPECT_DOUBLE_EQ(rt.allocated_bytes(), 30000.0);
}

TEST_F(RuntimeTest, GcPauseStallsAllCores) {
  GcOptions gc;
  gc.heap_budget_bytes = 100.0;
  JvmRuntime rt(machine_, config_, gc);
  rt.alloc(machine_.cpu(0), 200.0);
  ASSERT_EQ(rt.gc_count(), 1u);
  // Every core's clock advanced to a common post-pause time.
  EXPECT_DOUBLE_EQ(machine_.cpu(1).now(), machine_.cpu(5).now());
  EXPECT_GT(machine_.cpu(1).now(), 0.0);
}

TEST_F(RuntimeTest, ScModeIsFastest) {
  // An SC machine with free fences must run volatile traffic faster than the
  // weakly ordered profiles pay for fencing.
  sim::Machine arm_machine(sim::arm_v8_params());
  sim::Machine sc_machine(sim::sc_params());
  JvmConfig arm_config;
  arm_config.arch = sim::Arch::ARMV8;
  JvmConfig sc_config;
  sc_config.arch = sim::Arch::SC;
  JvmRuntime arm_rt(arm_machine, arm_config);
  JvmRuntime sc_rt(sc_machine, sc_config);
  for (int i = 0; i < 100; ++i) {
    arm_rt.volatile_store(arm_machine.cpu(0), 0x1);
    sc_rt.volatile_store(sc_machine.cpu(0), 0x1);
  }
  EXPECT_LT(sc_machine.cpu(0).now(), arm_machine.cpu(0).now());
}

}  // namespace
}  // namespace wmm::jvm
