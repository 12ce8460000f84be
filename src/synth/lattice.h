// The unified ordering lattice: one partial order of "ordering strength"
// that the simulator fence table (sim/fence.cpp), the JVM elemental-barrier
// strategies (jvm/fencing.cpp), the kernel barrier macros
// (kernel/barriers.cpp) and the cxx11 memory_order lowering table
// (platform/cxx11/runtime.cpp) are all views of.
//
// An element of the lattice is an OrderMask: a subset of the four
// program-order access-pair classes {R->R, R->W, W->R, W->W} that a site
// promises to keep in order.  The partial order is subset inclusion; join is
// bitwise-or.  Each architecture contributes a "free" mask (what the base
// memory model already orders without any instruction) and, per site idiom, a
// menu of fence instructions sorted weakest-to-strongest.  `lower_order`
// picks the cheapest menu entry whose class, together with the free mask,
// covers a requested mask — that single function reproduces every lowering
// table in the tree (pinned by tests/synth_lattice_test.cpp).
//
// The synthesis engine searches assignments of menu entries to sites; the
// monotonicity that makes its pruning sound (a stronger mask never admits
// more outcomes) is a property of this lattice and is property-tested.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/arch.h"
#include "sim/fence.h"

namespace wmm::synth {

// One bit per program-order access-pair class a site keeps ordered.
using OrderMask = std::uint8_t;

inline constexpr OrderMask kOrderNone = 0;
inline constexpr OrderMask kOrderRR = 1;  // read  before, read  after
inline constexpr OrderMask kOrderRW = 2;  // read  before, write after
inline constexpr OrderMask kOrderWR = 4;  // write before, read  after
inline constexpr OrderMask kOrderWW = 8;  // write before, write after
inline constexpr OrderMask kOrderFull = kOrderRR | kOrderRW | kOrderWR | kOrderWW;

// Lattice partial order: `a` is no stronger than `b` (subset inclusion).
inline bool order_leq(OrderMask a, OrderMask b) { return (a & ~b) == 0; }

// "rr+rw+ww" style name for reports and test failure messages; "none"/"full"
// at the extremes.
std::string order_mask_name(OrderMask mask);

// Architectural ordering class of a fence instruction.  This is the lattice
// view of sim/fence.cpp's FenceOrder table (fence_order delegates here).
OrderMask ordering_class(sim::FenceKind kind);

// The litmus-executor representation of the same element.
sim::FenceOrder to_fence_order(OrderMask mask);

// What the base memory model orders with no instruction at all: SC orders
// everything, TSO everything but W->R, ARM/POWER nothing.
OrderMask arch_free_order(sim::Arch arch);

// How a site sits in the instruction stream; decides which instructions are
// architecturally valid there (e.g. isync orders only as part of a
// ctrl+isync idiom after a load, dsb is the system-scope variant).
enum class SiteIdiom : std::uint8_t {
  Standalone,  // plain fence slot between two accesses
  PostLoad,    // directly after a load (acquire-style ctrl+isb/isync legal)
  System,      // system-scope barrier requested (Linux mb/rmb/wmb on arm64)
};

const char* site_idiom_name(SiteIdiom idiom);

// Candidate instructions for a slot on `arch`, sorted weakest-to-strongest
// ordering class (ties impossible by construction).  Empty on SC, where the
// free order already covers everything.
const std::vector<sim::FenceKind>& fence_menu(sim::Arch arch, SiteIdiom idiom);

// Cheapest menu entry whose ordering class, together with the architecture's
// free order, covers `need`; returns `absent` when the free order alone
// covers it.  Every lowering table in the tree is this function applied to a
// per-site (mask, idiom) row.
sim::FenceKind lower_order(OrderMask need, sim::Arch arch, SiteIdiom idiom,
                           sim::FenceKind absent);

// Test hook: how many times lower_order has run in this process.  The
// platform strategies resolve their tables at construction, so a simulation
// run must leave this unchanged (tests/lowering_cache_test.cpp).
std::uint64_t lower_order_calls();

// A point in the per-program search lattice: one menu choice per fence slot.
// `kinds[i]` is the instruction assigned to slot i (FenceKind::None = leave
// the slot empty).  Comparisons are slot-wise on ordering class.
struct Assignment {
  std::vector<sim::FenceKind> kinds;

  bool operator==(const Assignment& other) const = default;

  // Slot-wise lattice order: every slot of *this is no stronger than the
  // matching slot of `other`.  Partial: incomparable pairs return false both
  // ways.  Inline (with name()) so wmm_lattice stays below wmm_sim in the
  // link DAG: the sim::fence_name reference resolves in the caller.
  bool leq(const Assignment& other) const {
    if (kinds.size() != other.kinds.size()) return false;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      OrderMask a = ordering_class(kinds[i]);
      OrderMask b = ordering_class(other.kinds[i]);
      if (!order_leq(a, b)) return false;
    }
    return true;
  }

  // "slot0;slot1;..." with fence_name per slot — stable across runs, used as
  // the cache/report identity of the assignment.
  std::string name() const {
    if (kinds.empty()) return "empty";
    std::string out;
    for (sim::FenceKind kind : kinds) {
      if (!out.empty()) out += ";";
      out += sim::fence_name(kind);
    }
    return out;
  }
};

}  // namespace wmm::synth
