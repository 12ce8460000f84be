// Fencing strategies for the simulated Hotspot runtime: how elemental and IR
// barriers are lowered to machine instructions on each architecture, which
// experimental overrides are in force, and what is injected into each
// elemental-barrier code path (nop padding or a cost function).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/cost_function.h"
#include "jvm/barriers.h"
#include "platform/site.h"
#include "sim/fence.h"
#include "sim/machine.h"

namespace wmm::jvm {

// Whether volatile accesses use explicit barrier instructions (JDK8, or the
// -XX:+UseBarriersForVolatile flag) or ARMv8 load-acquire/store-release
// instructions (JDK9 default on AArch64).
enum class VolatileMode : std::uint8_t { Barriers, AcquireRelease };

const char* volatile_mode_name(VolatileMode mode);

struct JvmConfig {
  sim::Arch arch = sim::Arch::ARMV8;
  VolatileMode mode = VolatileMode::Barriers;

  // Experimental override of the StoreStore lowering (section 4.2.1: ARM
  // dmb ishst -> dmb ish; POWER lwsync -> sync).
  std::optional<sim::FenceKind> storestore_override;

  // The pending patch [15] that elides dmb instructions from the AArch64 C2
  // synchronisation (monitor) implementation.
  bool elide_monitor_dmb = false;

  // Per-elemental-barrier injection.  The base case uses nop padding of the
  // same instruction count as the cost function so binary layout is constant.
  std::array<core::Injection, 4> injection{};

  // Whether un-injected barriers still receive base-case nop padding (true
  // for every experiment; false models a completely unmodified JDK).
  bool pad_with_nops = true;

  // OpenJDK on ARMv8 has a scratch register available, so the cost function
  // elides the stack spill (paper, Figure 2 caption).
  bool scratch_register() const { return arch == sim::Arch::ARMV8; }

  core::Injection& injection_for(Elemental e) {
    return injection[static_cast<std::size_t>(e)];
  }
  const core::Injection& injection_for(Elemental e) const {
    return injection[static_cast<std::size_t>(e)];
  }
};

// Lowers barriers to instructions and executes them (with injections) on a
// simulated cpu.  The whole lowering table is resolved once, at construction:
// the config is fixed for the strategy's lifetime, so the emit paths only
// index arrays and never query the ordering lattice.
class FencingStrategy {
 public:
  explicit FencingStrategy(const JvmConfig& config);

  const JvmConfig& config() const { return config_; }

  // The hardware instruction an elemental barrier lowers to.
  sim::FenceKind lowering(Elemental e) const {
    return lowering_[static_cast<std::size_t>(e)];
  }

  // The deduplicated instruction sequence for an IR barrier (subsumption: a
  // StoreLoad member requires the full barrier which covers the rest).
  const sim::FenceSeq& ir_sequence(IrBarrier b) const {
    return ir_sequence_[static_cast<std::size_t>(b)];
  }

  // Execute an elemental barrier (instruction + its injection) at `site`.
  void emit_elemental(sim::Cpu& cpu, Elemental e, std::uint64_t site) const;

  // Execute an IR barrier: the combined instruction sequence plus the
  // injections of *every* member elemental.
  void emit_ir(sim::Cpu& cpu, IrBarrier b, std::uint64_t site) const;

  // Number of injected instruction slots per elemental barrier; the paper
  // reports three instructions on ARMv8 (scratch register available) and six
  // on POWER.
  std::uint32_t injected_slots() const { return site_policy_.padded_slots; }

  // The site-wide injection policy (slot count / padding / spill) this
  // strategy hands to the shared platform::run_injection emit path.
  platform::SitePolicy site_policy() const { return site_policy_; }

 private:
  JvmConfig config_;
  // Resolved at construction: one lowering per elemental barrier (StoreStore
  // override applied), and per IR barrier its subsumed sequence and members.
  std::array<sim::FenceKind, 4> lowering_{};
  std::array<sim::FenceSeq, 5> ir_sequence_;
  std::array<std::vector<Elemental>, 5> ir_members_;
  platform::SitePolicy site_policy_;
  // Per-code-path execution counters ("jvm.elemental.*" / "jvm.ir.*"),
  // resolved once at construction so emit_* stays a direct increment.
  platform::SiteCounters elemental_counters_;
  platform::SiteCounters ir_counters_;
};

}  // namespace wmm::jvm
