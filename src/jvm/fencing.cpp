#include "jvm/fencing.h"

#include <algorithm>
#include <string>
#include <vector>

#include "synth/lattice.h"

namespace wmm::jvm {

namespace {

// Per-code-path execution counters: how often each elemental / IR barrier
// site actually runs, the denominator for attributing macro slowdowns to
// fence events (paper sections 4-6).
std::vector<std::string> elemental_site_names() {
  std::vector<std::string> out;
  for (Elemental e : kAllElementals) out.emplace_back(elemental_name(e));
  return out;
}

std::vector<std::string> ir_site_names() {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < 5; ++i) {
    out.emplace_back(ir_barrier_name(static_cast<IrBarrier>(i)));
  }
  return out;
}

}  // namespace

const char* volatile_mode_name(VolatileMode mode) {
  return mode == VolatileMode::Barriers ? "barriers" : "acq/rel";
}

namespace {

// The hardware instruction elemental barrier `e` lowers to under `config`.
sim::FenceKind resolve_lowering(const JvmConfig& config, Elemental e) {
  if (e == Elemental::StoreStore && config.storestore_override) {
    return *config.storestore_override;
  }
  // Each elemental barrier IS one lattice class; lowering is the generic
  // weakest-cover query.  This reproduces the JDK9 tables the paper cites
  // (4.2): ARM LoadLoad/LoadStore -> dmb ishld, StoreStore -> dmb ishst,
  // StoreLoad -> dmb ish; POWER StoreLoad -> hwsync, rest -> lwsync; x86
  // StoreLoad -> mfence, rest free under TSO.  Pinned against the historic
  // switch by synth_lattice_test.
  synth::OrderMask need = synth::kOrderNone;
  switch (e) {
    case Elemental::LoadLoad: need = synth::kOrderRR; break;
    case Elemental::LoadStore: need = synth::kOrderRW; break;
    case Elemental::StoreLoad: need = synth::kOrderWR; break;
    case Elemental::StoreStore: need = synth::kOrderWW; break;
  }
  return synth::lower_order(need, config.arch, synth::SiteIdiom::Standalone,
                            sim::FenceKind::CompilerOnly);
}

}  // namespace

FencingStrategy::FencingStrategy(const JvmConfig& config)
    : config_(config),
      // Cost-function instruction count (Figures 2/3): mov+subs+bne = 3 with
      // a scratch register; two more for the stack spill/reload on ARM,
      // three more on POWER (std/li/addi/cmpwi/bne/ld = 6).
      site_policy_{
          .padded_slots = platform::injected_slot_count(
              config.arch, !config.scratch_register()),
          .pad_with_nops = config.pad_with_nops,
          .stack_spill = !config.scratch_register(),
      },
      elemental_counters_("jvm.elemental.", elemental_site_names()),
      ir_counters_("jvm.ir.", ir_site_names()) {
  for (Elemental e : kAllElementals) {
    lowering_[static_cast<std::size_t>(e)] = resolve_lowering(config_, e);
  }
  for (std::size_t i = 0; i < ir_sequence_.size(); ++i) {
    ir_members_[i] = ir_components(static_cast<IrBarrier>(i));
    const std::vector<Elemental>& members = ir_members_[i];
    sim::FenceSeq& seq = ir_sequence_[i];
    // Subsumption: if the combination includes StoreLoad, the full barrier it
    // lowers to covers every weaker member.
    if (std::find(members.begin(), members.end(), Elemental::StoreLoad) !=
        members.end()) {
      seq.push_back(sim::FenceOp::of(lowering(Elemental::StoreLoad)));
      continue;
    }
    for (Elemental e : members) {
      const sim::FenceKind k = lowering(e);
      const bool dup = std::any_of(seq.begin(), seq.end(), [&](const sim::FenceOp& op) {
        return op.kind == k;
      });
      if (!dup && k != sim::FenceKind::CompilerOnly && k != sim::FenceKind::None) {
        seq.push_back(sim::FenceOp::of(k));
      }
    }
  }
}

void FencingStrategy::emit_elemental(sim::Cpu& cpu, Elemental e,
                                     std::uint64_t site) const {
  elemental_counters_.hit(static_cast<std::size_t>(e));
  cpu.fence(lowering(e), site);
  platform::run_injection(cpu, config_.injection_for(e), site_policy_);
}

void FencingStrategy::emit_ir(sim::Cpu& cpu, IrBarrier b, std::uint64_t site) const {
  ir_counters_.hit(static_cast<std::size_t>(b));
  cpu.exec_seq(ir_sequence(b), site);
  // Every member elemental's code path runs at this site, so each member's
  // injection applies.
  for (Elemental e : ir_members_[static_cast<std::size_t>(b)]) {
    platform::run_injection(cpu, config_.injection_for(e), site_policy_);
  }
}

}  // namespace wmm::jvm
