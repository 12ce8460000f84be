#include "kernel/barriers.h"

#include <string>
#include <vector>

#include "synth/lattice.h"

namespace wmm::kernel {

namespace {

// Per-macro invocation counters ("kernel.macro.smp_mb", ...): every macro
// code path increments its counter once per execution, whatever it lowers to.
std::vector<std::string> macro_site_names() {
  std::vector<std::string> out;
  for (KMacro k : kAllMacros) out.emplace_back(macro_name(k));
  return out;
}

}  // namespace

const char* macro_name(KMacro m) {
  switch (m) {
    case KMacro::SmpMb: return "smp_mb";
    case KMacro::SmpRmb: return "smp_rmb";
    case KMacro::SmpWmb: return "smp_wmb";
    case KMacro::Mb: return "mb";
    case KMacro::Rmb: return "rmb";
    case KMacro::Wmb: return "wmb";
    case KMacro::ReadOnce: return "read_once";
    case KMacro::WriteOnce: return "write_once";
    case KMacro::ReadBarrierDepends: return "read_barrier_depends";
    case KMacro::SmpLoadAcquire: return "smp_load_acquire";
    case KMacro::SmpStoreRelease: return "smp_store_release";
    case KMacro::SmpMbBeforeAtomic: return "smp_mb_before_atomic";
    case KMacro::SmpMbAfterAtomic: return "smp_mb_after_atomic";
    case KMacro::SmpStoreMb: return "smp_store_mb";
  }
  return "?";
}

const char* rbd_strategy_name(RbdStrategy s) {
  switch (s) {
    case RbdStrategy::BaseNop: return "base case";
    case RbdStrategy::Ctrl: return "ctrl";
    case RbdStrategy::CtrlIsb: return "ctrl+isb";
    case RbdStrategy::DmbIshld: return "dmb ishld";
    case RbdStrategy::DmbIsh: return "dmb ish";
    case RbdStrategy::LaSr: return "la/sr";
  }
  return "?";
}

namespace {

// Hardware lowering of macro `m` under `config`.
sim::FenceKind resolve_lowering(const KernelConfig& config, KMacro m) {
  using sim::FenceKind;
  // This table is a view of the unified ordering lattice: each macro is a
  // (required-order, idiom) row lowered through synth::lower_order, which
  // picks the weakest menu instruction covering the requirement on top of
  // the arch's free order (synth_lattice_test pins it against the historic
  // per-arch switch).  Three ARM rows stay explicit because they are not
  // lattice lowerings: READ_BARRIER_DEPENDS is the experiment variable
  // (strategy-selected), and smp_load_acquire/smp_store_release lower to
  // native ldar/stlr instructions, not fences.
  if (config.arch == sim::Arch::ARMV8) {
    switch (m) {
      case KMacro::ReadBarrierDepends:
        switch (config.rbd) {
          case RbdStrategy::BaseNop: return FenceKind::CompilerOnly;
          case RbdStrategy::Ctrl: return FenceKind::CtrlDep;
          case RbdStrategy::CtrlIsb: return FenceKind::CtrlIsb;
          case RbdStrategy::DmbIshld:
          case RbdStrategy::LaSr: return FenceKind::DmbIshLd;
          case RbdStrategy::DmbIsh: return FenceKind::DmbIsh;
        }
        return FenceKind::CompilerOnly;
      case KMacro::SmpLoadAcquire:
      case KMacro::SmpStoreRelease: return FenceKind::None;  // ldar/stlr
      default: break;
    }
  }
  synth::OrderMask need = synth::kOrderNone;
  synth::SiteIdiom idiom = synth::SiteIdiom::Standalone;
  switch (m) {
    case KMacro::SmpMb:
    case KMacro::SmpStoreMb:
      need = synth::kOrderFull;
      break;
    case KMacro::SmpMbBeforeAtomic:
    case KMacro::SmpMbAfterAtomic:
      // Full ordering around an atomic RMW — except on x86, where the lock
      // prefix already orders everything and Linux defines these as no-ops.
      need = config.arch == sim::Arch::X86_TSO ? synth::kOrderNone
                                               : synth::kOrderFull;
      break;
    case KMacro::Mb:
      need = synth::kOrderFull;
      idiom = synth::SiteIdiom::System;  // dsb scope on arm64
      break;
    case KMacro::Rmb:
      need = synth::kOrderRR;
      idiom = synth::SiteIdiom::System;
      break;
    case KMacro::Wmb:
      need = synth::kOrderWW;
      idiom = synth::SiteIdiom::System;
      break;
    case KMacro::SmpRmb:
      need = synth::kOrderRR;
      break;
    case KMacro::SmpWmb:
      need = synth::kOrderWW;
      break;
    case KMacro::ReadOnce:
    case KMacro::WriteOnce:
    case KMacro::ReadBarrierDepends:
      // Address-dependency ordering is free on every modelled arch but
      // (historical) Alpha; only the compiler must not break it.
      need = synth::kOrderNone;
      break;
    case KMacro::SmpLoadAcquire:
      need = synth::kOrderRR | synth::kOrderRW;
      idiom = synth::SiteIdiom::PostLoad;  // ld;cmp;bne;isync on POWER
      break;
    case KMacro::SmpStoreRelease:
      need = synth::kOrderRW | synth::kOrderWW;
      break;
  }
  return synth::lower_order(need, config.arch, idiom, FenceKind::CompilerOnly);
}

}  // namespace

KernelBarriers::KernelBarriers(const KernelConfig& config)
    : config_(config),
      // The kernel has no scratch register, so the cost function always
      // spills.
      site_policy_{
          .padded_slots = platform::injected_slot_count(config.arch,
                                                        /*stack_spill=*/true),
          .pad_with_nops = config.pad_with_nops,
          .stack_spill = true,
      },
      macro_counters_("kernel.macro.", macro_site_names()) {
  for (KMacro m : kAllMacros) {
    lowering_[static_cast<std::size_t>(m)] = resolve_lowering(config_, m);
  }
}

void KernelBarriers::run_injection(sim::Cpu& cpu, KMacro m) const {
  // Every macro entry point funnels through its injection, so this is the
  // single place each macro execution is counted.
  macro_counters_.hit(static_cast<std::size_t>(m));
  platform::run_injection(cpu, config_.injection_for(m), site_policy_);
}

void KernelBarriers::fence(sim::Cpu& cpu, KMacro m, std::uint64_t site) const {
  cpu.fence(lowering(m), site);
  run_injection(cpu, m);
}

void KernelBarriers::read_once(sim::Cpu& cpu, sim::LineId line,
                               [[maybe_unused]] std::uint64_t site) const {
  if (config_.arch == sim::Arch::ARMV8 && config_.rbd == RbdStrategy::LaSr) {
    // la/sr strategy: READ_ONCE gains load-acquire semantics.
    cpu.load_acquire(line);
  } else {
    cpu.load_shared(line);
  }
  run_injection(cpu, KMacro::ReadOnce);
}

void KernelBarriers::write_once(sim::Cpu& cpu, sim::LineId line,
                                [[maybe_unused]] std::uint64_t site) const {
  if (config_.arch == sim::Arch::ARMV8 && config_.rbd == RbdStrategy::LaSr) {
    // la/sr strategy: WRITE_ONCE gains store-release semantics (dmb ishst is
    // folded into the stlr in the paper's description).
    cpu.store_release(line);
  } else {
    cpu.store_shared(line);
  }
  run_injection(cpu, KMacro::WriteOnce);
}

void KernelBarriers::load_acquire(sim::Cpu& cpu, sim::LineId line,
                                  std::uint64_t site) const {
  if (config_.arch == sim::Arch::ARMV8) {
    cpu.load_acquire(line);
  } else {
    cpu.load_shared(line);
    cpu.fence(lowering(KMacro::SmpLoadAcquire), site);
  }
  run_injection(cpu, KMacro::SmpLoadAcquire);
}

void KernelBarriers::store_release(sim::Cpu& cpu, sim::LineId line,
                                   std::uint64_t site) const {
  if (config_.arch == sim::Arch::ARMV8) {
    cpu.store_release(line);
  } else {
    cpu.fence(lowering(KMacro::SmpStoreRelease), site);
    cpu.store_shared(line);
  }
  run_injection(cpu, KMacro::SmpStoreRelease);
}

void KernelBarriers::store_mb(sim::Cpu& cpu, sim::LineId line,
                              std::uint64_t site) const {
  cpu.store_shared(line);
  cpu.fence(lowering(KMacro::SmpStoreMb), site);
  run_injection(cpu, KMacro::SmpStoreMb);
}

void KernelBarriers::read_barrier_depends(sim::Cpu& cpu,
                                          std::uint64_t site) const {
  cpu.fence(lowering(KMacro::ReadBarrierDepends), site);
  run_injection(cpu, KMacro::ReadBarrierDepends);
}

}  // namespace wmm::kernel
