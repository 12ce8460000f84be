// Pins the unified ordering lattice (synth/lattice.h) against the historic
// per-layer tables it replaced: the simulator fence table, the JDK9
// elemental-barrier lowerings, the Linux barrier macros, and the cxx11
// memory_order mapping conventions.  These are frozen-value tests — each
// expected instruction below is the documented table entry, written out
// literally, so a lattice edit that silently changes any view fails here
// rather than in a downstream report diff.  Plus the algebraic properties
// (partial order, menu sortedness, weakest-cover minimality) the synthesis
// search's pruning relies on.
#include <gtest/gtest.h>

#include <vector>

#include "jvm/fencing.h"
#include "kernel/barriers.h"
#include "platform/cxx11/runtime.h"
#include "sim/fence.h"
#include "synth/lattice.h"

namespace {

using namespace wmm;
using sim::Arch;
using sim::FenceKind;
using synth::kOrderFull;
using synth::kOrderNone;
using synth::kOrderRR;
using synth::kOrderRW;
using synth::kOrderWR;
using synth::kOrderWW;
using synth::OrderMask;

const std::vector<FenceKind> kAllKinds = {
    FenceKind::None,    FenceKind::DmbIsh,  FenceKind::DmbIshLd,
    FenceKind::DmbIshSt, FenceKind::DsbSy,  FenceKind::Isb,
    FenceKind::CtrlDep, FenceKind::CtrlIsb, FenceKind::HwSync,
    FenceKind::LwSync,  FenceKind::ISync,   FenceKind::Mfence,
    FenceKind::Nop,     FenceKind::CompilerOnly};

TEST(SynthLattice, OrderingClassMatchesFrozenFenceTable) {
  // The pre-refactor sim/fence.cpp FenceOrder switch, written as masks.
  EXPECT_EQ(synth::ordering_class(FenceKind::None), kOrderNone);
  EXPECT_EQ(synth::ordering_class(FenceKind::DmbIsh), kOrderFull);
  EXPECT_EQ(synth::ordering_class(FenceKind::DmbIshLd), kOrderRR | kOrderRW);
  EXPECT_EQ(synth::ordering_class(FenceKind::DmbIshSt), kOrderWW);
  EXPECT_EQ(synth::ordering_class(FenceKind::DsbSy), kOrderFull);
  EXPECT_EQ(synth::ordering_class(FenceKind::Isb), kOrderNone);
  EXPECT_EQ(synth::ordering_class(FenceKind::CtrlDep), kOrderNone);
  EXPECT_EQ(synth::ordering_class(FenceKind::CtrlIsb), kOrderRR | kOrderRW);
  EXPECT_EQ(synth::ordering_class(FenceKind::HwSync), kOrderFull);
  EXPECT_EQ(synth::ordering_class(FenceKind::LwSync),
            kOrderRR | kOrderRW | kOrderWW);
  EXPECT_EQ(synth::ordering_class(FenceKind::ISync), kOrderRR | kOrderRW);
  EXPECT_EQ(synth::ordering_class(FenceKind::Mfence), kOrderFull);
  EXPECT_EQ(synth::ordering_class(FenceKind::Nop), kOrderNone);
  EXPECT_EQ(synth::ordering_class(FenceKind::CompilerOnly), kOrderNone);
}

TEST(SynthLattice, FenceOrderIsTheLatticeView) {
  for (FenceKind kind : kAllKinds) {
    const sim::FenceOrder order = sim::fence_order(kind);
    const OrderMask mask = synth::ordering_class(kind);
    EXPECT_EQ(order.rr, (mask & kOrderRR) != 0) << sim::fence_name(kind);
    EXPECT_EQ(order.rw, (mask & kOrderRW) != 0) << sim::fence_name(kind);
    EXPECT_EQ(order.wr, (mask & kOrderWR) != 0) << sim::fence_name(kind);
    EXPECT_EQ(order.ww, (mask & kOrderWW) != 0) << sim::fence_name(kind);
  }
}

TEST(SynthLattice, PartialOrderAlgebra) {
  for (OrderMask a = 0; a <= kOrderFull; ++a) {
    EXPECT_TRUE(synth::order_leq(a, a));
    EXPECT_TRUE(synth::order_leq(kOrderNone, a));
    EXPECT_TRUE(synth::order_leq(a, kOrderFull));
    for (OrderMask b = 0; b <= kOrderFull; ++b) {
      // Antisymmetry, and join = bitwise-or is the least upper bound.
      if (synth::order_leq(a, b) && synth::order_leq(b, a)) {
        EXPECT_EQ(a, b);
      }
      const OrderMask join = a | b;
      EXPECT_TRUE(synth::order_leq(a, join));
      EXPECT_TRUE(synth::order_leq(b, join));
      for (OrderMask c = 0; c <= kOrderFull; ++c) {
        if (synth::order_leq(a, b) && synth::order_leq(b, c)) {
          EXPECT_TRUE(synth::order_leq(a, c));
        }
        if (synth::order_leq(a, c) && synth::order_leq(b, c)) {
          EXPECT_TRUE(synth::order_leq(join, c));
        }
      }
    }
  }
}

TEST(SynthLattice, MenusAreSortedWeakestToStrongest) {
  for (Arch arch : {Arch::ARMV8, Arch::POWER7, Arch::X86_TSO, Arch::SC}) {
    for (synth::SiteIdiom idiom :
         {synth::SiteIdiom::Standalone, synth::SiteIdiom::PostLoad,
          synth::SiteIdiom::System}) {
      const std::vector<FenceKind>& menu = synth::fence_menu(arch, idiom);
      if (arch == Arch::SC) {
        EXPECT_TRUE(menu.empty());
        continue;
      }
      ASSERT_FALSE(menu.empty()) << sim::arch_name(arch);
      // Weakest-to-strongest: no entry is followed by a weaker-or-equal one
      // (entries may be incomparable — ARM's ishst/ishld are siblings), and
      // the last entry joins with the free order to a full barrier — the
      // top-dominates invariant the greedy search's infeasibility test and
      // the exact search's pruning both rely on.
      for (std::size_t i = 0; i < menu.size(); ++i) {
        for (std::size_t j = i + 1; j < menu.size(); ++j) {
          const OrderMask earlier = synth::ordering_class(menu[i]);
          const OrderMask later = synth::ordering_class(menu[j]);
          EXPECT_FALSE(synth::order_leq(later, earlier))
              << sim::arch_name(arch) << "/" << synth::site_idiom_name(idiom)
              << ": " << sim::fence_name(menu[j]) << " <= "
              << sim::fence_name(menu[i]);
        }
      }
      EXPECT_EQ(synth::ordering_class(menu.back()) |
                    synth::arch_free_order(arch),
                kOrderFull)
          << sim::arch_name(arch) << "/" << synth::site_idiom_name(idiom);
    }
  }
}

TEST(SynthLattice, LowerOrderReturnsTheWeakestCover) {
  const FenceKind absent = FenceKind::CompilerOnly;
  for (Arch arch : {Arch::ARMV8, Arch::POWER7, Arch::X86_TSO, Arch::SC}) {
    for (synth::SiteIdiom idiom :
         {synth::SiteIdiom::Standalone, synth::SiteIdiom::PostLoad,
          synth::SiteIdiom::System}) {
      const OrderMask free = synth::arch_free_order(arch);
      const std::vector<FenceKind>& menu = synth::fence_menu(arch, idiom);
      for (OrderMask need = 0; need <= kOrderFull; ++need) {
        if (!synth::order_leq(need, free) &&
            !synth::order_leq(
                need, static_cast<OrderMask>(
                          (menu.empty() ? kOrderNone
                                        : synth::ordering_class(menu.back())) |
                          free))) {
          // Nothing covers it (only possible on SC-free masks, which are
          // always covered; keep the guard for completeness).
          continue;
        }
        const FenceKind got = synth::lower_order(need, arch, idiom, absent);
        if (synth::order_leq(need, free)) {
          EXPECT_EQ(got, absent);
          continue;
        }
        // Covers the requirement...
        EXPECT_TRUE(synth::order_leq(
            need,
            static_cast<OrderMask>(synth::ordering_class(got) | free)));
        // ...and no strictly weaker menu entry does.
        for (FenceKind weaker : menu) {
          if (weaker == got) break;
          EXPECT_FALSE(synth::order_leq(
              need, static_cast<OrderMask>(synth::ordering_class(weaker) |
                                           free)))
              << synth::order_mask_name(need) << " on "
              << sim::arch_name(arch) << ": " << sim::fence_name(weaker)
              << " already covers, lower_order picked "
              << sim::fence_name(got);
        }
      }
    }
  }
}

TEST(SynthLattice, JvmElementalViewMatchesJdk9Table) {
  using jvm::Elemental;
  const auto lower = [](Arch arch, Elemental e) {
    jvm::JvmConfig config;
    config.arch = arch;
    return jvm::FencingStrategy(config).lowering(e);
  };
  // Section 4.2's JDK9 tables, frozen.
  EXPECT_EQ(lower(Arch::ARMV8, Elemental::LoadLoad), FenceKind::DmbIshLd);
  EXPECT_EQ(lower(Arch::ARMV8, Elemental::LoadStore), FenceKind::DmbIshLd);
  EXPECT_EQ(lower(Arch::ARMV8, Elemental::StoreStore), FenceKind::DmbIshSt);
  EXPECT_EQ(lower(Arch::ARMV8, Elemental::StoreLoad), FenceKind::DmbIsh);
  EXPECT_EQ(lower(Arch::POWER7, Elemental::LoadLoad), FenceKind::LwSync);
  EXPECT_EQ(lower(Arch::POWER7, Elemental::LoadStore), FenceKind::LwSync);
  EXPECT_EQ(lower(Arch::POWER7, Elemental::StoreStore), FenceKind::LwSync);
  EXPECT_EQ(lower(Arch::POWER7, Elemental::StoreLoad), FenceKind::HwSync);
  EXPECT_EQ(lower(Arch::X86_TSO, Elemental::LoadLoad),
            FenceKind::CompilerOnly);
  EXPECT_EQ(lower(Arch::X86_TSO, Elemental::LoadStore),
            FenceKind::CompilerOnly);
  EXPECT_EQ(lower(Arch::X86_TSO, Elemental::StoreStore),
            FenceKind::CompilerOnly);
  EXPECT_EQ(lower(Arch::X86_TSO, Elemental::StoreLoad), FenceKind::Mfence);
  for (Elemental e : {Elemental::LoadLoad, Elemental::LoadStore,
                      Elemental::StoreLoad, Elemental::StoreStore}) {
    EXPECT_EQ(lower(Arch::SC, e), FenceKind::CompilerOnly);
  }
}

TEST(SynthLattice, KernelMacroViewMatchesLinuxTable) {
  using kernel::KMacro;
  const auto lower = [](Arch arch, KMacro m) {
    kernel::KernelConfig config;
    config.arch = arch;
    return kernel::KernelBarriers(config).lowering(m);
  };
  // arm64: smp_* use dmb ish scope, mandatory mb/rmb/wmb use dsb scope.
  EXPECT_EQ(lower(Arch::ARMV8, KMacro::SmpMb), FenceKind::DmbIsh);
  EXPECT_EQ(lower(Arch::ARMV8, KMacro::SmpRmb), FenceKind::DmbIshLd);
  EXPECT_EQ(lower(Arch::ARMV8, KMacro::SmpWmb), FenceKind::DmbIshSt);
  EXPECT_EQ(lower(Arch::ARMV8, KMacro::Mb), FenceKind::DsbSy);
  EXPECT_EQ(lower(Arch::ARMV8, KMacro::Rmb), FenceKind::DsbSy);
  EXPECT_EQ(lower(Arch::ARMV8, KMacro::Wmb), FenceKind::DsbSy);
  // POWER: sync for the full barriers, lwsync for the smp r/w variants.
  EXPECT_EQ(lower(Arch::POWER7, KMacro::SmpMb), FenceKind::HwSync);
  EXPECT_EQ(lower(Arch::POWER7, KMacro::SmpRmb), FenceKind::LwSync);
  EXPECT_EQ(lower(Arch::POWER7, KMacro::SmpWmb), FenceKind::LwSync);
  EXPECT_EQ(lower(Arch::POWER7, KMacro::Mb), FenceKind::HwSync);
  // x86: only the full barrier emits an instruction under TSO.
  EXPECT_EQ(lower(Arch::X86_TSO, KMacro::SmpMb), FenceKind::Mfence);
  EXPECT_EQ(lower(Arch::X86_TSO, KMacro::SmpRmb), FenceKind::CompilerOnly);
  EXPECT_EQ(lower(Arch::X86_TSO, KMacro::SmpWmb), FenceKind::CompilerOnly);
  EXPECT_EQ(lower(Arch::X86_TSO, KMacro::SmpMbBeforeAtomic),
            FenceKind::CompilerOnly);
  EXPECT_EQ(lower(Arch::POWER7, KMacro::SmpMbBeforeAtomic),
            FenceKind::HwSync);
}

TEST(SynthLattice, Cxx11ViewMatchesMappingConventions) {
  using platform::cxx11::AccessPoint;
  const auto low = [](AccessPoint p, Arch arch) {
    return platform::cxx11::access_lowering(p, arch);
  };
  // ARM barrier substitution: trailing dmb after acquiring loads, leading
  // dmb before releasing stores, trailing full barrier after seq_cst store.
  EXPECT_EQ(low(AccessPoint::LoadAcquire, Arch::ARMV8).after,
            FenceKind::DmbIshLd);
  EXPECT_EQ(low(AccessPoint::StoreRelease, Arch::ARMV8).before,
            FenceKind::DmbIsh);
  EXPECT_EQ(low(AccessPoint::StoreSeqCst, Arch::ARMV8).after,
            FenceKind::DmbIsh);
  // POWER standard mapping: hwsync leads seq_cst, ctrl+isync trails
  // acquiring loads, lwsync leads releasing stores.
  EXPECT_EQ(low(AccessPoint::LoadAcquire, Arch::POWER7).after,
            FenceKind::ISync);
  EXPECT_EQ(low(AccessPoint::StoreRelease, Arch::POWER7).before,
            FenceKind::LwSync);
  EXPECT_EQ(low(AccessPoint::LoadSeqCst, Arch::POWER7).before,
            FenceKind::HwSync);
  // x86: everything free except the seq_cst store's trailing mfence.
  EXPECT_EQ(low(AccessPoint::StoreSeqCst, Arch::X86_TSO).after,
            FenceKind::Mfence);
  EXPECT_EQ(low(AccessPoint::LoadSeqCst, Arch::X86_TSO).before,
            FenceKind::None);
  EXPECT_EQ(low(AccessPoint::LoadSeqCst, Arch::X86_TSO).after,
            FenceKind::None);
}

}  // namespace
