// A simulated C++11 atomics runtime: the third Platform, proving the
// instrumentation-site layer is platform-agnostic.
//
// Each memory_order access point is lowered to explicit per-architecture
// fence sequences — the barrier-substitution scheme of DESIGN §2 made
// executable (leading fences before stores, trailing fences after loads),
// rather than ARMv8's ldar/stlr forms.  Relaxed accesses lower to compiler
// barriers only, reproducing the paper's read_once-style finding that a
// frequently-executed access point can matter even when it emits no
// instruction by default.  docs/models.md tabulates the sequences.
#pragma once

#include <array>
#include <cstdint>

#include "core/cost_function.h"
#include "platform/site.h"
#include "sim/arch.h"
#include "sim/fence.h"
#include "sim/machine.h"

namespace wmm::platform::cxx11 {

// The instrumentable access points of the runtime: one code path per
// (operation, memory_order) pair the workloads exercise.
enum class AccessPoint : std::uint8_t {
  LoadRelaxed,
  StoreRelaxed,
  LoadAcquire,
  StoreRelease,
  LoadSeqCst,
  StoreSeqCst,
  RmwAcqRel,
  FenceSeqCst,
};
inline constexpr std::size_t kNumAccessPoints = 8;
inline constexpr std::array<AccessPoint, kNumAccessPoints> kAllAccessPoints = {
    AccessPoint::LoadRelaxed, AccessPoint::StoreRelaxed,
    AccessPoint::LoadAcquire, AccessPoint::StoreRelease,
    AccessPoint::LoadSeqCst,  AccessPoint::StoreSeqCst,
    AccessPoint::RmwAcqRel,   AccessPoint::FenceSeqCst,
};

const char* access_point_name(AccessPoint p);

struct Cxx11Config {
  sim::Arch arch = sim::Arch::ARMV8;

  // Per-access-point injected sequence (cost function or nop padding).
  std::array<core::Injection, kNumAccessPoints> injection{};

  // Un-injected access points carry base-case nop padding so binary layout
  // is constant across configurations (as for the JVM/kernel platforms).
  bool pad_with_nops = true;

  core::Injection& injection_for(AccessPoint p) {
    return injection[static_cast<std::size_t>(p)];
  }
  const core::Injection& injection_for(AccessPoint p) const {
    return injection[static_cast<std::size_t>(p)];
  }
};

// The fences an access point's lowering places before and after the memory
// access itself on `arch` (None = nothing emitted on that side).
struct Lowering {
  sim::FenceKind before = sim::FenceKind::None;
  sim::FenceKind after = sim::FenceKind::None;

  // The dominant (strongest-side) kind, for site listings.
  sim::FenceKind dominant() const;
};

Lowering access_lowering(AccessPoint p, sim::Arch arch);

// The runtime's access points.  Every access point's lowering and the site
// policy are resolved once at construction; an access only reads the table.
class AtomicsRuntime {
 public:
  explicit AtomicsRuntime(const Cxx11Config& config);

  const Cxx11Config& config() const { return config_; }

  // Atomic operations on a shared line; `site` identifies the code path.
  void load_relaxed(sim::Cpu& cpu, sim::LineId line, std::uint64_t site) const;
  void store_relaxed(sim::Cpu& cpu, sim::LineId line, std::uint64_t site) const;
  void load_acquire(sim::Cpu& cpu, sim::LineId line, std::uint64_t site) const;
  void store_release(sim::Cpu& cpu, sim::LineId line, std::uint64_t site) const;
  void load_seq_cst(sim::Cpu& cpu, sim::LineId line, std::uint64_t site) const;
  void store_seq_cst(sim::Cpu& cpu, sim::LineId line, std::uint64_t site) const;
  // Read-modify-write (compare_exchange / fetch_add) with acq_rel ordering.
  void rmw_acq_rel(sim::Cpu& cpu, sim::LineId line, std::uint64_t site) const;
  // atomic_thread_fence(memory_order_seq_cst).
  void fence_seq_cst(sim::Cpu& cpu, std::uint64_t site) const;

  // The kernel has the analogous property: no scratch register is reserved
  // for instrumentation, so the cost function always spills (5 slots on ARM,
  // 6 on POWER).
  std::uint32_t injected_slots() const { return site_policy_.padded_slots; }
  platform::SitePolicy site_policy() const { return site_policy_; }

 private:
  void access(sim::Cpu& cpu, AccessPoint p, const sim::LineId* line,
              bool store, std::uint64_t site) const;

  Cxx11Config config_;
  std::array<Lowering, kNumAccessPoints> lowering_{};
  platform::SitePolicy site_policy_;
  // Per-access-point execution counters ("cxx11.atomic.*"), resolved once at
  // construction so the emit path stays a direct increment.
  platform::SiteCounters counters_;
};

}  // namespace wmm::platform::cxx11
