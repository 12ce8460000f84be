#include <array>
#include <utility>

#include <gtest/gtest.h>

#include "kernel/alloc.h"
#include "sim/calibrate.h"
#include "kernel/barriers.h"
#include "kernel/net.h"
#include "kernel/sync.h"
#include "kernel/syscall.h"
#include "workloads/common.h"

namespace wmm::kernel {
namespace {

KernelConfig arm_config(RbdStrategy rbd = RbdStrategy::BaseNop) {
  KernelConfig c;
  c.arch = sim::Arch::ARMV8;
  c.rbd = rbd;
  return c;
}

// --- Lowering -------------------------------------------------------------------

TEST(KernelLowering, ArmDefaults) {
  KernelBarriers b(arm_config());
  EXPECT_EQ(b.lowering(KMacro::SmpMb), sim::FenceKind::DmbIsh);
  EXPECT_EQ(b.lowering(KMacro::SmpRmb), sim::FenceKind::DmbIshLd);
  EXPECT_EQ(b.lowering(KMacro::SmpWmb), sim::FenceKind::DmbIshSt);
  EXPECT_EQ(b.lowering(KMacro::Mb), sim::FenceKind::DsbSy);
  EXPECT_EQ(b.lowering(KMacro::ReadOnce), sim::FenceKind::CompilerOnly);
  EXPECT_EQ(b.lowering(KMacro::WriteOnce), sim::FenceKind::CompilerOnly);
  // Default read_barrier_depends is a compiler barrier only.
  EXPECT_EQ(b.lowering(KMacro::ReadBarrierDepends), sim::FenceKind::CompilerOnly);
  EXPECT_EQ(b.lowering(KMacro::SmpMbBeforeAtomic), sim::FenceKind::DmbIsh);
}

TEST(KernelLowering, PowerDefaults) {
  KernelConfig c;
  c.arch = sim::Arch::POWER7;
  KernelBarriers b(c);
  EXPECT_EQ(b.lowering(KMacro::SmpMb), sim::FenceKind::HwSync);
  EXPECT_EQ(b.lowering(KMacro::SmpRmb), sim::FenceKind::LwSync);
  EXPECT_EQ(b.lowering(KMacro::SmpWmb), sim::FenceKind::LwSync);
  EXPECT_EQ(b.lowering(KMacro::SmpLoadAcquire), sim::FenceKind::ISync);
  EXPECT_EQ(b.lowering(KMacro::SmpStoreRelease), sim::FenceKind::LwSync);
}

TEST(KernelLowering, RbdStrategies) {
  EXPECT_EQ(KernelBarriers(arm_config(RbdStrategy::Ctrl))
                .lowering(KMacro::ReadBarrierDepends),
            sim::FenceKind::CtrlDep);
  EXPECT_EQ(KernelBarriers(arm_config(RbdStrategy::CtrlIsb))
                .lowering(KMacro::ReadBarrierDepends),
            sim::FenceKind::CtrlIsb);
  EXPECT_EQ(KernelBarriers(arm_config(RbdStrategy::DmbIshld))
                .lowering(KMacro::ReadBarrierDepends),
            sim::FenceKind::DmbIshLd);
  EXPECT_EQ(KernelBarriers(arm_config(RbdStrategy::DmbIsh))
                .lowering(KMacro::ReadBarrierDepends),
            sim::FenceKind::DmbIsh);
  EXPECT_EQ(KernelBarriers(arm_config(RbdStrategy::LaSr))
                .lowering(KMacro::ReadBarrierDepends),
            sim::FenceKind::DmbIshLd);
}

// The read_barrier_depends strategy is an ARM experiment: on POWER and x86
// every strategy leaves every macro on its lattice row.
TEST(KernelLowering, RbdStrategyLeavesPowerAndX86OnTheirLatticeRows) {
  using K = sim::FenceKind;
  // kAllMacros order: smp_mb, smp_rmb, smp_wmb, mb, rmb, wmb, read_once,
  // write_once, read_barrier_depends, smp_load_acquire, smp_store_release,
  // smp_mb_before_atomic, smp_mb_after_atomic, smp_store_mb.
  const std::array<K, kNumMacros> power = {
      K::HwSync,       K::LwSync,       K::LwSync, K::HwSync, K::LwSync,
      K::LwSync,       K::CompilerOnly, K::CompilerOnly,
      K::CompilerOnly, K::ISync,        K::LwSync, K::HwSync, K::HwSync,
      K::HwSync};
  const std::array<K, kNumMacros> x86 = {
      K::Mfence,       K::CompilerOnly, K::CompilerOnly, K::Mfence,
      K::CompilerOnly, K::CompilerOnly, K::CompilerOnly, K::CompilerOnly,
      K::CompilerOnly, K::CompilerOnly, K::CompilerOnly, K::CompilerOnly,
      K::CompilerOnly, K::Mfence};
  const std::pair<sim::Arch, const std::array<K, kNumMacros>*> arches[] = {
      {sim::Arch::POWER7, &power}, {sim::Arch::X86_TSO, &x86}};
  for (const auto& [arch, row] : arches) {
    for (RbdStrategy rbd : kAllRbdStrategies) {
      KernelConfig c;
      c.arch = arch;
      c.rbd = rbd;
      const KernelBarriers b(c);
      for (KMacro m : kAllMacros) {
        EXPECT_EQ(b.lowering(m), (*row)[static_cast<std::size_t>(m)])
            << sim::arch_name(arch) << " " << rbd_strategy_name(rbd) << " "
            << macro_name(m);
      }
    }
  }
}

TEST(KernelLowering, LaSrUpgradesReadWriteOnce) {
  // Under la/sr, READ_ONCE/WRITE_ONCE become acquire/release accesses, which
  // cost more than plain accesses.
  sim::Machine m1(sim::arm_v8_params());
  sim::Machine m2(sim::arm_v8_params());
  KernelBarriers plain(arm_config());
  KernelBarriers lasr(arm_config(RbdStrategy::LaSr));
  for (int i = 0; i < 50; ++i) {
    plain.read_once(m1.cpu(0), 0x10, 1);
    plain.write_once(m1.cpu(0), 0x11, 1);
    lasr.read_once(m2.cpu(0), 0x10, 1);
    lasr.write_once(m2.cpu(0), 0x11, 1);
  }
  EXPECT_GT(m2.cpu(0).now(), m1.cpu(0).now());
}

TEST(KernelLowering, InjectionAndPaddingSizes) {
  EXPECT_EQ(KernelBarriers(arm_config()).injected_slots(), 5u);
  KernelConfig p;
  p.arch = sim::Arch::POWER7;
  EXPECT_EQ(KernelBarriers(p).injected_slots(), 6u);
}

TEST(KernelLowering, CostFunctionInjectionAddsCalibratedTime) {
  KernelConfig base = arm_config();
  KernelConfig injected = arm_config();
  injected.injection_for(KMacro::SmpWmb) = core::Injection::cost_function(128, true);

  sim::Machine m1(sim::arm_v8_params());
  sim::Machine m2(sim::arm_v8_params());
  KernelBarriers b1(base), b2(injected);
  b1.fence(m1.cpu(0), KMacro::SmpWmb, 1);
  b2.fence(m2.cpu(0), KMacro::SmpWmb, 1);
  const double pad = 5 * sim::arm_v8_params().nop_ns;
  const double loop =
      sim::cost_function_time_ns(sim::arm_v8_params(), 128, true);
  EXPECT_NEAR(m2.cpu(0).now() - m1.cpu(0).now(), loop - pad, 0.5);
}

TEST(KernelLowering, UnmodifiedKernelSkipsPadding) {
  KernelConfig unmod = arm_config();
  unmod.pad_with_nops = false;
  sim::Machine m1(sim::arm_v8_params());
  sim::Machine m2(sim::arm_v8_params());
  KernelBarriers padded(arm_config()), pristine(unmod);
  padded.fence(m1.cpu(0), KMacro::SmpMb, 1);
  pristine.fence(m2.cpu(0), KMacro::SmpMb, 1);
  EXPECT_GT(m1.cpu(0).now(), m2.cpu(0).now());
}

// --- Synchronisation primitives ----------------------------------------------------

TEST(SpinlockTest, SerialisesAndCountsContention) {
  sim::Machine machine(sim::arm_v8_params());
  KernelBarriers b(arm_config());
  Spinlock lock(0x800);
  lock.with(machine.cpu(0), b, [&] { machine.cpu(0).compute(500.0); });
  const double holder_end = machine.cpu(0).now();
  EXPECT_TRUE(lock.with(machine.cpu(1), b, [] {}));
  EXPECT_GE(machine.cpu(1).now(), holder_end);
  EXPECT_EQ(lock.acquisitions(), 2u);
  EXPECT_EQ(lock.contentions(), 1u);
}

TEST(SeqLockTest, ReaderRetriesWhenWriterInterleaves) {
  sim::Machine machine(sim::arm_v8_params());
  KernelBarriers b(arm_config());
  SeqLock seq(0x900);
  // Writer on cpu 0 runs "later" in time; reader starts first but its read
  // section overlaps the writer window.
  machine.cpu(1).compute(10.0);
  seq.write(machine.cpu(0), b, [&] { machine.cpu(0).compute(300.0); });
  seq.read(machine.cpu(1), b, [&] { machine.cpu(1).compute(100.0); });
  EXPECT_GE(seq.retries(), 1u);
}

TEST(RcuTest, DereferenceUsesReadOnceAndRbd) {
  // With the DmbIsh rbd strategy a dereference must cost at least a dmb ish
  // more than with the default compiler-only strategy.
  sim::Machine m1(sim::arm_v8_params());
  sim::Machine m2(sim::arm_v8_params());
  KernelBarriers base(arm_config()), strong(arm_config(RbdStrategy::DmbIsh));
  Rcu rcu(0xA00);
  for (int i = 0; i < 20; ++i) {
    rcu.dereference(m1.cpu(0), base, 1);
    rcu.dereference(m2.cpu(0), strong, 1);
  }
  EXPECT_GT(m2.cpu(0).now() - m1.cpu(0).now(),
            20 * sim::arm_v8_params().dmb_base_ns * 0.9);
}

TEST(RcuTest, SynchronizeIsExpensive) {
  sim::Machine machine(sim::arm_v8_params());
  Rcu rcu(0xA00);
  const double t0 = machine.cpu(0).now();
  rcu.synchronize(machine.cpu(0));
  EXPECT_GT(machine.cpu(0).now() - t0, 1e5);  // grace period >> any fence
}

// --- Loopback networking -------------------------------------------------------------

TEST(LoopbackTest, ProducerConsumerTransfersPackets) {
  sim::Machine machine(sim::arm_v8_params());
  KernelBarriers b(arm_config());
  LoopbackQueue q(0xB00, 0xB01, 4);
  EXPECT_FALSE(q.consume(machine.cpu(1), b, 4096));  // empty
  EXPECT_TRUE(q.produce(machine.cpu(0), b, 4096));
  EXPECT_EQ(q.depth(), 1u);
  EXPECT_TRUE(q.consume(machine.cpu(1), b, 4096));
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(q.stats().packets, 1u);
  EXPECT_EQ(q.stats().bytes, 4096u);
}

TEST(LoopbackTest, FullRingBacksOff) {
  sim::Machine machine(sim::arm_v8_params());
  KernelBarriers b(arm_config());
  LoopbackQueue q(0xB00, 0xB01, 2);
  EXPECT_TRUE(q.produce(machine.cpu(0), b, 64));
  EXPECT_TRUE(q.produce(machine.cpu(0), b, 64));
  const double before = machine.cpu(0).now();
  EXPECT_FALSE(q.produce(machine.cpu(0), b, 64));
  EXPECT_GT(machine.cpu(0).now(), before);  // back-off consumed time
  EXPECT_EQ(q.stats().packets, 2u);
}

TEST(LoopbackTest, TcpCostsMoreThanUdpPerPacket) {
  sim::Machine m1(sim::arm_v8_params());
  sim::Machine m2(sim::arm_v8_params());
  KernelBarriers b(arm_config());
  NetEndpoint tcp(0xC00, 16, true), udp(0xD00, 16, false);
  for (int i = 0; i < 10; ++i) {
    tcp.send(m1.cpu(0), b, 4096);
    udp.send(m2.cpu(0), b, 4096);
  }
  EXPECT_GT(m1.cpu(0).now(), m2.cpu(0).now());
}

// --- Allocator -----------------------------------------------------------------------

TEST(SlabTest, FastPathUntilMagazineEmpties) {
  sim::Machine machine(sim::arm_v8_params());
  KernelBarriers b(arm_config());
  SlabAllocator slab(0xE00, /*magazine_size=*/8);
  for (int i = 0; i < 8; ++i) slab.alloc(machine.cpu(0), b, 256);
  EXPECT_EQ(slab.slow_paths(), 1u);  // one refill for the first batch
  slab.alloc(machine.cpu(0), b, 256);
  EXPECT_EQ(slab.slow_paths(), 2u);  // second refill
  EXPECT_EQ(slab.allocations(), 9u);
}

TEST(SlabTest, FreeDrainsPeriodically) {
  sim::Machine machine(sim::arm_v8_params());
  KernelBarriers b(arm_config());
  SlabAllocator slab(0xE00, 4);
  slab.alloc(machine.cpu(0), b, 64);
  const auto before = slab.slow_paths();
  for (int i = 0; i < 4; ++i) slab.free(machine.cpu(0), b);
  EXPECT_EQ(slab.slow_paths(), before + 1);
}

// --- Syscall layer ---------------------------------------------------------------------

TEST(SyscallTest, RelativeWeights) {
  sim::Machine machine(sim::arm_v8_params());
  KernelBarriers b(arm_config());
  SlabAllocator slab(0xF00);
  SyscallLayer sys(0xF10, &slab);

  const auto time_of = [&](Syscall s) {
    const double t0 = machine.cpu(0).now();
    sys.invoke(machine.cpu(0), b, s);
    return machine.cpu(0).now() - t0;
  };
  const double null_t = time_of(Syscall::Null);
  const double read_t = time_of(Syscall::Read);
  const double select_t = time_of(Syscall::Select100);
  const double fork_t = time_of(Syscall::ProcFork);
  EXPECT_LT(null_t, read_t);
  EXPECT_LT(read_t, select_t);
  EXPECT_LT(select_t, fork_t);
  EXPECT_GT(fork_t, 10000.0);
}

TEST(SyscallTest, RbdStrategyAffectsFdLookupHeavyCalls) {
  // select(100 fds) does 200 rcu_dereferences; switching rbd from a compiler
  // barrier to dmb ish must cost roughly 200 dmb latencies more.
  sim::Machine m1(sim::arm_v8_params());
  sim::Machine m2(sim::arm_v8_params());
  KernelBarriers base(arm_config()), strong(arm_config(RbdStrategy::DmbIsh));
  SlabAllocator s1(0xF00), s2(0xF00);
  SyscallLayer sys1(0xF10, &s1), sys2(0xF10, &s2);
  sys1.invoke(m1.cpu(0), base, Syscall::Select100);
  sys2.invoke(m2.cpu(0), strong, Syscall::Select100);
  const double delta = m2.cpu(0).now() - m1.cpu(0).now();
  EXPECT_GT(delta, 200 * sim::arm_v8_params().dmb_base_ns * 0.8);
}

TEST(SyscallTest, AllNamesDistinct) {
  for (Syscall a : kLmbenchSyscalls) {
    for (Syscall b2 : kLmbenchSyscalls) {
      if (a != b2) {
        EXPECT_STRNE(syscall_name(a), syscall_name(b2));
      }
    }
  }
}

// Name coverage for every macro and strategy (guards the report labels).
TEST(KernelNames, AllMacrosNamed) {
  for (KMacro m : kAllMacros) EXPECT_STRNE(macro_name(m), "?");
  for (RbdStrategy s : kAllRbdStrategies) EXPECT_STRNE(rbd_strategy_name(s), "?");
}

}  // namespace
}  // namespace wmm::kernel
