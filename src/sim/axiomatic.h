// Axiomatic (Herding-Cats-style) checker for the simulated memory models.
//
// This is an *independent oracle* for the operational litmus executor in
// memory_model.{h,cpp}.  Instead of exploring commit orders, it searches
// *candidate executions* in the style of Alglave, Maranget & Tautschnig's
// "Herding Cats" (TOPLAS 2014): a reads-from relation (rf) assigning every
// read a source write (or the initial value), and a coherence order (co)
// totally ordering the writes of each location.  One backtracking search
// builds the (rf, co) candidates of every architecture; each architecture
// supplies its preserved program order, fence classes and axioms.
// fr = rf⁻¹;co is the from-reads relation; ppo below includes the po pairs
// ordered by an intervening fence's ordering classes.
//
//   SC / x86-TSO / ARMv8 (multi-copy-atomic), one axiom:
//       acyclic(ppo ∪ rf ∪ co ∪ fr)
//   ppo is derived here from first principles: dependencies, same-location
//   coherence, acquire/release, fence ordering classes, TSO's everything-
//   but-W→R rule.  For a machine that commits each thread in some linear
//   extension of ppo, interleaves commits, and makes every read return the
//   coherence-latest committed write, this axiom is exact: a satisfying
//   candidate exists iff a witnessing commit interleaving exists.
//
//   POWER7 is *not* multi-copy-atomic: the operational executor lets every
//   write's visibility be delayed per observing thread, and makes barriers
//   *cumulative* — a write a thread has observed is propagated to everyone
//   when that thread executes a sync, or commits a write past a store-store
//   ordering fence (lwsync/sync/dmb ishst) or a release store.  Its four
//   axioms, checked in order (PowerAxiom in axiomatic_power.h names them):
//
//   SC-PER-LOCATION  acyclic(poloc ∪ rf ∪ co ∪ fr)
//       the commit order respects po per location, reads are per-thread
//       monotone in co, and a thread always sees its own writes.
//   NO-THIN-AIR      acyclic(hb),  hb = ppo ∪ rfe
//   PROPAGATION      acyclic(co ∪ prop),  prop ⊇ hb⁺ ∩ (W × W), folded as
//       acyclic(hb ∪ rf ∪ co ∪ sync-po) over the access events plus one node
//       per full barrier: coherence must embed into the single global commit
//       interleaving that also linearises hb (e.g. 2+2W+lwsyncs fails).
//   OBSERVATION      irreflexive(fre ; prop ; hb*), realised as forced-
//       visibility constraints derived from the operational push/catch-up
//       rules:
//         - a release store or a write po-after a store-store fence pushes
//           every write its thread has observed (its own program-earlier
//           writes: A-cumulativity; writes it read: B-cumulativity) to all
//           threads when it commits, and is itself never delayable;
//         - a sync pushes the observed set and catches its own thread up on
//           everything already committed.
//       A read must not read coherence-before a write that one of these
//       rules forces to be visible to its thread.  Constraints whose
//       triggering observation is not forced by hb become *disjunctive
//       obligations* on the global order ("the pusher commits before the
//       observation, or the stale read commits before the pusher"); the
//       candidate is accepted iff some orientation of all obligations is
//       acyclic — exactly the existence of a witnessing interleaving.
//
// The search fixes each location's coherence order one write at a time,
// then each read's source, and keeps the transitive closure of every
// acyclicity axiom's graph as it goes (SC-PER-LOCATION, NO-THIN-AIR and
// PROPAGATION on POWER7; the one axiom elsewhere).  A choice whose edges
// close a cycle is pruned with every completion of it.  That is exact:
// each pruned check is monotone in the edges, so a completion only adds
// edges to the cycle, and OBSERVATION, whose obligations are disjunctive,
// is checked only on whole candidates.  A membership query also prunes
// choices that contradict the queried outcome.
//
// Every model is exact for the operational executor: the differential
// fuzzer (fuzz.h) checks operational-set == axiomatic-set equality on all
// four architectures.  See DESIGN.md §3a for the equivalence argument.
//
// The checker deliberately re-derives fence ordering classes and the
// dependency rules in its own tables rather than calling into fence.cpp or
// memory_model.cpp, so that a regression in either implementation makes the
// two disagree — which the differential fuzzer then reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sim/memory_model.h"

namespace wmm::sim {

// Position of a mutable fence instruction inside a litmus skeleton; used by
// the incremental evaluator that the fence-synthesis search drives.
struct FenceSlotRef {
  int tid = 0;
  int idx = 0;  // instruction index within the thread (must be a fence)
};

// Weakenings of the POWER-only axioms; only consulted on POWER7.
struct PowerAxiomaticOptions {
  // Treat lwsync as a full sync (catch-up + store->load order): wrongly
  // *forbids* e.g. SB+lwsyncs, which POWER allows.
  bool lwsync_is_sync = false;
  // Drop B-cumulativity: barriers/pushing writes propagate only the
  // thread's own earlier writes, not writes it observed through reads —
  // wrongly admits WRC+sync+addr.
  bool drop_b_cumulativity = false;
  // Drop the OBSERVATION axiom entirely (no forced visibility at all):
  // wrongly admits MP+lwsync+addr.
  bool drop_observation = false;

  bool any() const {
    return lwsync_is_sync || drop_b_cumulativity || drop_observation;
  }
};

// Deliberate single-constraint weakenings of the axiomatic model, used by the
// fuzzer's self-test to prove the oracle has teeth: enabling any one of these
// must make the differential corpus report a divergence.  The dependency,
// same-location and acquire/release weakenings act on the ppo and po-loc rows
// that TSO, ARMv8 and POWER7 share.
struct AxiomaticOptions {
  // TSO: full fences (mfence) no longer restore store→load order, so the
  // axiomatic model wrongly admits SB-like outcomes across an mfence.
  bool drop_tso_store_load_fence = false;
  // Address/data dependencies no longer preserve program order (control
  // dependencies are unaffected), wrongly admitting e.g. LB+datas.
  bool drop_dependency_order = false;
  // Same-location program order is no longer preserved, wrongly admitting
  // coherence violations such as CoRR.
  bool drop_same_location_order = false;
  // Acquire loads / release stores order nothing, wrongly admitting
  // MP+rel+acq.
  bool drop_acquire_release = false;

  PowerAxiomaticOptions power;

  bool any() const {
    return drop_tso_store_load_fence || drop_dependency_order ||
           drop_same_location_order || drop_acquire_release || power.any();
  }
};

// All outcomes (register values then final variable values, the same layout
// as enumerate_outcomes) admitted by the architecture's axioms.  Throws
// std::invalid_argument when the program has more than 32 events (accesses
// plus, on POWER7, full barriers).
std::set<Outcome> axiomatic_outcomes(const LitmusTest& test, Arch arch,
                                     const AxiomaticOptions& options = {});

// Membership query: searches only the candidates that produce `outcome`,
// and stops at the first that satisfies the axioms.
bool axiomatic_allowed(const LitmusTest& test, const Outcome& outcome,
                       Arch arch, const AxiomaticOptions& options = {});

// Running totals of the calling thread's candidate searches (every
// axiomatic_outcomes / axiomatic_allowed / power_forbidding_axiom call and
// every AxiomaticEvaluator verdict runs one or more).  `extensions` counts
// the edges that grew an axiom's transitive closure, `pruned` the choices
// rejected because they closed a cycle or contradicted the queried outcome,
// and `leaves` the whole candidates that passed every acyclicity axiom.  All
// are deterministic per program, architecture and query.  Per-thread, and
// outside the obs counter registry, like EnumArenaStats.
struct AxiomaticSearchStats {
  std::uint64_t searches = 0;
  std::uint64_t extensions = 0;
  std::uint64_t pruned = 0;
  std::uint64_t leaves = 0;
};
AxiomaticSearchStats axiomatic_search_stats();

// The preserved-program-order relation used by the axioms (fence ordering
// included; on POWER7 this is hb's program-order part), exposed for tests:
// true when accesses `i` and `j` (i < j, instruction indices including
// fences) of `thread` may not be reordered on `arch`.  Both indices must
// refer to read/write instructions.
bool axiomatic_ppo(const LitmusThread& thread, std::size_t i, std::size_t j,
                   Arch arch, const AxiomaticOptions& options = {});

// Incremental form of the checker for the fence-synthesis search.  The
// access-only half of the candidate space (events, reads-from candidates,
// po-loc rows) depends only on the program's reads and writes, so it is
// built once per skeleton; `set_assignment` rewrites the fence kinds at the
// registered slots and recomputes only the fence-derived state: the ppo rows
// (and, on POWER7, pusher flags) of threads whose fences changed, and on
// POWER7 the full-barrier nodes and PROPAGATION rows.  Barrier nodes are
// rebuilt per assignment because pre-materialising nodes for empty slots
// would thread spurious barrier-po edges through PROPAGATION.  The batch
// entry points above are the zero-slot special case of this class, so the
// two cannot drift apart.
class AxiomaticEvaluator {
 public:
  AxiomaticEvaluator(const LitmusTest& skeleton, Arch arch,
                     std::vector<FenceSlotRef> slots,
                     const AxiomaticOptions& options = {});
  ~AxiomaticEvaluator();
  AxiomaticEvaluator(AxiomaticEvaluator&&) noexcept;
  AxiomaticEvaluator& operator=(AxiomaticEvaluator&&) noexcept;

  // `kinds[i]` replaces the fence at slot i.  Size must match the slot list.
  void set_assignment(const std::vector<FenceKind>& kinds);

  // Axiomatic verdicts under the current assignment (same semantics as the
  // batch entry points above).
  std::set<Outcome> outcomes() const;
  bool allowed(const Outcome& outcome) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wmm::sim
