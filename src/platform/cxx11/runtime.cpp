#include "platform/cxx11/runtime.h"

#include <string>
#include <vector>

#include "synth/lattice.h"

namespace wmm::platform::cxx11 {

namespace {

std::vector<std::string> access_point_names() {
  std::vector<std::string> out;
  for (AccessPoint p : kAllAccessPoints) out.emplace_back(access_point_name(p));
  return out;
}

bool emits_instruction(sim::FenceKind k) {
  return k != sim::FenceKind::None && k != sim::FenceKind::CompilerOnly;
}

}  // namespace

const char* access_point_name(AccessPoint p) {
  switch (p) {
    case AccessPoint::LoadRelaxed: return "load_relaxed";
    case AccessPoint::StoreRelaxed: return "store_relaxed";
    case AccessPoint::LoadAcquire: return "load_acquire";
    case AccessPoint::StoreRelease: return "store_release";
    case AccessPoint::LoadSeqCst: return "load_seq_cst";
    case AccessPoint::StoreSeqCst: return "store_seq_cst";
    case AccessPoint::RmwAcqRel: return "rmw_acq_rel";
    case AccessPoint::FenceSeqCst: return "fence_seq_cst";
  }
  return "?";
}

sim::FenceKind Lowering::dominant() const {
  if (emits_instruction(before)) return before;
  if (emits_instruction(after)) return after;
  return sim::FenceKind::CompilerOnly;
}

namespace {

// Ordering requirement of one access point under one arch's documented
// mapping convention, as a pair of lattice elements: what must stay ordered
// across the leading fence slot and across the trailing one.  The
// conventions genuinely differ per arch (ARM trails acquiring loads with a
// dmb, POWER leads seq_cst accesses with a sync, x86 trails the seq_cst
// store with its mfence), so the rows are per-arch; the *instructions* then
// fall out of the generic weakest-cover query.
struct OrderReq {
  synth::OrderMask before = synth::kOrderNone;
  synth::OrderMask after = synth::kOrderNone;
  synth::SiteIdiom before_idiom = synth::SiteIdiom::Standalone;
  synth::SiteIdiom after_idiom = synth::SiteIdiom::Standalone;
};

OrderReq access_order(AccessPoint p, sim::Arch arch) {
  using namespace synth;
  constexpr OrderMask kAcquire = kOrderRR | kOrderRW;   // load ; later accesses
  constexpr OrderMask kRelease = kOrderRW | kOrderWW;   // earlier accesses ; store
  switch (arch) {
    case sim::Arch::ARMV8:
      // Barrier substitution (DESIGN §2): trailing dmb after acquiring /
      // seq_cst loads, leading dmb before releasing / seq_cst stores, and a
      // trailing full barrier after a seq_cst store to order it with later
      // seq_cst loads.
      switch (p) {
        case AccessPoint::LoadAcquire: return {.after = kAcquire};
        case AccessPoint::StoreRelease: return {.before = kRelease};
        case AccessPoint::LoadSeqCst: return {.after = kOrderFull};
        case AccessPoint::StoreSeqCst:
          return {.before = kRelease, .after = kOrderWR};
        case AccessPoint::RmwAcqRel:
          // The ll/sc pair's store must also stay ordered with later
          // accesses, so the trailing requirement is full, not just acquire.
          return {.before = kRelease, .after = kOrderFull};
        case AccessPoint::FenceSeqCst: return {.before = kOrderFull};
        default: break;
      }
      break;
    case sim::Arch::POWER7:
      // The standard POWER mapping: lwsync before releasing stores, hwsync
      // before seq_cst accesses, ctrl+isync after acquiring loads.
      switch (p) {
        case AccessPoint::LoadAcquire:
          return {.after = kAcquire, .after_idiom = SiteIdiom::PostLoad};
        case AccessPoint::StoreRelease: return {.before = kRelease};
        case AccessPoint::LoadSeqCst:
          return {.before = kOrderFull,
                  .after = kAcquire,
                  .after_idiom = SiteIdiom::PostLoad};
        case AccessPoint::StoreSeqCst: return {.before = kOrderFull};
        case AccessPoint::RmwAcqRel:
          return {.before = kRelease,
                  .after = kAcquire,
                  .after_idiom = SiteIdiom::PostLoad};
        case AccessPoint::FenceSeqCst: return {.before = kOrderFull};
        default: break;
      }
      break;
    case sim::Arch::X86_TSO:
      // TSO: only the seq_cst store (and the standalone fence) expose a
      // W->R requirement the free order does not already cover; everything
      // else is a compiler barrier.
      switch (p) {
        case AccessPoint::StoreSeqCst: return {.after = kOrderWR};
        case AccessPoint::FenceSeqCst: return {.before = kOrderFull};
        default: break;
      }
      break;
    case sim::Arch::SC:
      break;
  }
  return {};
}

}  // namespace

Lowering access_lowering(AccessPoint p, sim::Arch arch) {
  const OrderReq req = access_order(p, arch);
  return {synth::lower_order(req.before, arch, req.before_idiom,
                             sim::FenceKind::None),
          synth::lower_order(req.after, arch, req.after_idiom,
                             sim::FenceKind::None)};
}

AtomicsRuntime::AtomicsRuntime(const Cxx11Config& config)
    : config_(config),
      site_policy_{
          .padded_slots = platform::injected_slot_count(config.arch,
                                                        /*stack_spill=*/true),
          .pad_with_nops = config.pad_with_nops,
          .stack_spill = true,
      },
      counters_("cxx11.atomic.", access_point_names()) {
  for (AccessPoint p : kAllAccessPoints) {
    lowering_[static_cast<std::size_t>(p)] = access_lowering(p, config_.arch);
  }
}

void AtomicsRuntime::access(sim::Cpu& cpu, AccessPoint p,
                            const sim::LineId* line, bool store,
                            std::uint64_t site) const {
  // Every access point funnels through its injection, so this is the single
  // place each execution is counted.
  counters_.hit(static_cast<std::size_t>(p));
  const Lowering& low = lowering_[static_cast<std::size_t>(p)];
  if (emits_instruction(low.before)) cpu.fence(low.before, site);
  if (line) {
    if (p == AccessPoint::RmwAcqRel) {
      // Load-linked/store-conditional pair (or lock-prefixed RMW on x86).
      cpu.load_shared(*line);
      cpu.store_shared(*line);
    } else if (store) {
      cpu.store_shared(*line);
    } else {
      cpu.load_shared(*line);
    }
  }
  if (emits_instruction(low.after)) cpu.fence(low.after, site);
  platform::run_injection(cpu, config_.injection_for(p), site_policy_);
}

void AtomicsRuntime::load_relaxed(sim::Cpu& cpu, sim::LineId line,
                                  std::uint64_t site) const {
  access(cpu, AccessPoint::LoadRelaxed, &line, false, site);
}

void AtomicsRuntime::store_relaxed(sim::Cpu& cpu, sim::LineId line,
                                   std::uint64_t site) const {
  access(cpu, AccessPoint::StoreRelaxed, &line, true, site);
}

void AtomicsRuntime::load_acquire(sim::Cpu& cpu, sim::LineId line,
                                  std::uint64_t site) const {
  access(cpu, AccessPoint::LoadAcquire, &line, false, site);
}

void AtomicsRuntime::store_release(sim::Cpu& cpu, sim::LineId line,
                                   std::uint64_t site) const {
  access(cpu, AccessPoint::StoreRelease, &line, true, site);
}

void AtomicsRuntime::load_seq_cst(sim::Cpu& cpu, sim::LineId line,
                                  std::uint64_t site) const {
  access(cpu, AccessPoint::LoadSeqCst, &line, false, site);
}

void AtomicsRuntime::store_seq_cst(sim::Cpu& cpu, sim::LineId line,
                                   std::uint64_t site) const {
  access(cpu, AccessPoint::StoreSeqCst, &line, true, site);
}

void AtomicsRuntime::rmw_acq_rel(sim::Cpu& cpu, sim::LineId line,
                                 std::uint64_t site) const {
  access(cpu, AccessPoint::RmwAcqRel, &line, true, site);
}

void AtomicsRuntime::fence_seq_cst(sim::Cpu& cpu, std::uint64_t site) const {
  access(cpu, AccessPoint::FenceSeqCst, nullptr, false, site);
}

}  // namespace wmm::platform::cxx11
