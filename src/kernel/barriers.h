// The Linux-kernel memory-model macro set (paper section 4.3).
//
// The kernel memory model is enforced by explicit barrier macros implemented
// per-architecture in asm/barrier.h.  We model the fourteen macros the paper
// instruments, their per-architecture lowering (Linux 4.2 era), the
// READ_ONCE/WRITE_ONCE accessors, and the candidate replacement strategies
// for read_barrier_depends evaluated in section 4.3.1 (Figure 10).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/cost_function.h"
#include "platform/site.h"
#include "sim/fence.h"
#include "sim/machine.h"

namespace wmm::kernel {

enum class KMacro : std::uint8_t {
  SmpMb,
  SmpRmb,
  SmpWmb,
  Mb,
  Rmb,
  Wmb,
  ReadOnce,
  WriteOnce,
  ReadBarrierDepends,
  SmpLoadAcquire,
  SmpStoreRelease,
  SmpMbBeforeAtomic,
  SmpMbAfterAtomic,
  SmpStoreMb,
};
inline constexpr std::size_t kNumMacros = 14;
inline constexpr std::array<KMacro, kNumMacros> kAllMacros = {
    KMacro::SmpMb,          KMacro::SmpRmb,        KMacro::SmpWmb,
    KMacro::Mb,             KMacro::Rmb,           KMacro::Wmb,
    KMacro::ReadOnce,       KMacro::WriteOnce,     KMacro::ReadBarrierDepends,
    KMacro::SmpLoadAcquire, KMacro::SmpStoreRelease,
    KMacro::SmpMbBeforeAtomic, KMacro::SmpMbAfterAtomic, KMacro::SmpStoreMb,
};

const char* macro_name(KMacro m);

// Candidate implementations of read_barrier_depends (Figure 10).  Each test
// case replicates a method for introducing ordering dependencies from the
// ARMv8 manual (B2.7.4).
enum class RbdStrategy : std::uint8_t {
  BaseNop,   // default: compiler barrier only (nop padding)
  Ctrl,      // synthetic control dependency: compare last load, branch
  CtrlIsb,   // control dependency whose guarded instruction is an isb
  DmbIshld,  // dmb ishld
  DmbIsh,    // dmb ish
  LaSr,      // dmb ishld here + ldar for READ_ONCE / stlr for WRITE_ONCE
};
inline constexpr std::array<RbdStrategy, 6> kAllRbdStrategies = {
    RbdStrategy::BaseNop, RbdStrategy::Ctrl,     RbdStrategy::CtrlIsb,
    RbdStrategy::DmbIshld, RbdStrategy::DmbIsh,  RbdStrategy::LaSr,
};

const char* rbd_strategy_name(RbdStrategy s);

struct KernelConfig {
  sim::Arch arch = sim::Arch::ARMV8;
  RbdStrategy rbd = RbdStrategy::BaseNop;

  // Per-macro injected sequence (cost function or explicit nop padding).
  std::array<core::Injection, kNumMacros> injection{};

  // All macro call sites carry nop padding so the binary image size is
  // invariant across tests; false models the unmodified kernel (used only by
  // the nop-impact baseline measurement).
  bool pad_with_nops = true;

  core::Injection& injection_for(KMacro m) {
    return injection[static_cast<std::size_t>(m)];
  }
  const core::Injection& injection_for(KMacro m) const {
    return injection[static_cast<std::size_t>(m)];
  }
};

// The macro implementations.  Every lowering (with the configured
// read_barrier_depends strategy applied) and the site policy are resolved
// once at construction; the macro paths only index the table.
class KernelBarriers {
 public:
  explicit KernelBarriers(const KernelConfig& config);

  const KernelConfig& config() const { return config_; }

  // Hardware lowering of a barrier-only macro on the configured arch.
  sim::FenceKind lowering(KMacro m) const {
    return lowering_[static_cast<std::size_t>(m)];
  }

  // Barrier-only macros (no memory access of their own).
  void fence(sim::Cpu& cpu, KMacro m, std::uint64_t site) const;

  // Accessor macros.
  void read_once(sim::Cpu& cpu, sim::LineId line, std::uint64_t site) const;
  void write_once(sim::Cpu& cpu, sim::LineId line, std::uint64_t site) const;
  void load_acquire(sim::Cpu& cpu, sim::LineId line, std::uint64_t site) const;
  void store_release(sim::Cpu& cpu, sim::LineId line, std::uint64_t site) const;
  void store_mb(sim::Cpu& cpu, sim::LineId line, std::uint64_t site) const;

  // rcu_dereference-style dependent-read ordering.
  void read_barrier_depends(sim::Cpu& cpu, std::uint64_t site) const;

  // Injected instruction slots per macro site (kernel has no scratch
  // register, so the cost function always spills: 5 slots on ARM, 6 on
  // POWER).
  std::uint32_t injected_slots() const { return site_policy_.padded_slots; }

  // The site-wide injection policy (slot count / padding / spill) handed to
  // the shared platform::run_injection emit path.
  platform::SitePolicy site_policy() const { return site_policy_; }

 private:
  void run_injection(sim::Cpu& cpu, KMacro m) const;

  KernelConfig config_;
  std::array<sim::FenceKind, kNumMacros> lowering_{};
  platform::SitePolicy site_policy_;
  // Per-macro execution counters ("kernel.macro.*"), resolved once at
  // construction so run_injection stays a direct increment.
  platform::SiteCounters macro_counters_;
};

}  // namespace wmm::kernel
