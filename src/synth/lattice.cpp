#include "synth/lattice.h"

#include <atomic>
#include <stdexcept>

namespace wmm::synth {

namespace {

std::atomic<std::uint64_t> g_lower_order_calls{0};

}  // namespace

std::string order_mask_name(OrderMask mask) {
  if (mask == kOrderNone) return "none";
  if (mask == kOrderFull) return "full";
  std::string out;
  const auto add = [&](OrderMask bit, const char* name) {
    if (!(mask & bit)) return;
    if (!out.empty()) out += "+";
    out += name;
  };
  add(kOrderRR, "rr");
  add(kOrderRW, "rw");
  add(kOrderWR, "wr");
  add(kOrderWW, "ww");
  return out;
}

OrderMask ordering_class(sim::FenceKind kind) {
  using sim::FenceKind;
  switch (kind) {
    case FenceKind::DmbIsh:
    case FenceKind::DsbSy:
    case FenceKind::HwSync:
    case FenceKind::Mfence:
      return kOrderFull;
    case FenceKind::LwSync:
      // lwsync orders everything except store->load.
      return kOrderRR | kOrderRW | kOrderWW;
    case FenceKind::DmbIshLd:
      // Orders loads before the barrier with loads and stores after.
      return kOrderRR | kOrderRW;
    case FenceKind::DmbIshSt:
      // Orders stores before the barrier with stores after.
      return kOrderWW;
    case FenceKind::CtrlIsb:
    case FenceKind::ISync:
      // A control dependency completed by isb/isync orders prior reads with
      // all later accesses (ARMv8 manual B2.7.4 read-ordering recipe).
      return kOrderRR | kOrderRW;
    case FenceKind::Isb:
      // isb alone (no dependency) does not order memory accesses.
      return kOrderNone;
    case FenceKind::CtrlDep:
    case FenceKind::None:
    case FenceKind::Nop:
    case FenceKind::CompilerOnly:
      return kOrderNone;
  }
  return kOrderNone;
}

sim::FenceOrder to_fence_order(OrderMask mask) {
  sim::FenceOrder order;
  order.rr = (mask & kOrderRR) != 0;
  order.rw = (mask & kOrderRW) != 0;
  order.wr = (mask & kOrderWR) != 0;
  order.ww = (mask & kOrderWW) != 0;
  return order;
}

OrderMask arch_free_order(sim::Arch arch) {
  switch (arch) {
    case sim::Arch::SC:
      return kOrderFull;
    case sim::Arch::X86_TSO:
      // TSO relaxes only store->load.
      return kOrderRR | kOrderRW | kOrderWW;
    case sim::Arch::ARMV8:
    case sim::Arch::POWER7:
      return kOrderNone;
  }
  return kOrderNone;
}

const char* site_idiom_name(SiteIdiom idiom) {
  switch (idiom) {
    case SiteIdiom::Standalone: return "standalone";
    case SiteIdiom::PostLoad: return "post-load";
    case SiteIdiom::System: return "system";
  }
  return "?";
}

const std::vector<sim::FenceKind>& fence_menu(sim::Arch arch, SiteIdiom idiom) {
  using sim::FenceKind;
  // Weakest-to-strongest per (arch, idiom).  isync appears only in the
  // post-load menu: standalone isync orders nothing without the ctrl idiom.
  // The system idiom on ARM forces the dsb-scope barrier Linux mb/rmb/wmb
  // expect; POWER and x86 have no separate system-scope instruction.
  static const std::vector<FenceKind> kEmpty;
  static const std::vector<FenceKind> kArmStandalone = {
      FenceKind::DmbIshSt, FenceKind::DmbIshLd, FenceKind::DmbIsh};
  static const std::vector<FenceKind> kArmSystem = {FenceKind::DsbSy};
  static const std::vector<FenceKind> kPowerStandalone = {FenceKind::LwSync,
                                                          FenceKind::HwSync};
  static const std::vector<FenceKind> kPowerPostLoad = {
      FenceKind::ISync, FenceKind::LwSync, FenceKind::HwSync};
  static const std::vector<FenceKind> kX86 = {FenceKind::Mfence};
  switch (arch) {
    case sim::Arch::SC:
      return kEmpty;
    case sim::Arch::X86_TSO:
      return kX86;
    case sim::Arch::ARMV8:
      return idiom == SiteIdiom::System ? kArmSystem : kArmStandalone;
    case sim::Arch::POWER7:
      return idiom == SiteIdiom::PostLoad ? kPowerPostLoad : kPowerStandalone;
  }
  return kEmpty;
}

sim::FenceKind lower_order(OrderMask need, sim::Arch arch, SiteIdiom idiom,
                           sim::FenceKind absent) {
  g_lower_order_calls.fetch_add(1, std::memory_order_relaxed);
  const OrderMask free = arch_free_order(arch);
  if (order_leq(need, free)) return absent;
  for (sim::FenceKind kind : fence_menu(arch, idiom)) {
    if (order_leq(need, static_cast<OrderMask>(ordering_class(kind) | free))) {
      return kind;
    }
  }
  // wmm_lattice sits below wmm_sim in the link DAG, so spell the arch out
  // here instead of calling sim::arch_name.
  throw std::invalid_argument("lower_order: no menu entry covers " +
                              order_mask_name(need) + " on arch " +
                              std::to_string(static_cast<int>(arch)) + " (" +
                              site_idiom_name(idiom) + ")");
}

std::uint64_t lower_order_calls() {
  return g_lower_order_calls.load(std::memory_order_relaxed);
}

}  // namespace wmm::synth
