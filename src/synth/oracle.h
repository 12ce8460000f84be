// Fence-synthesis problem construction and the incremental correctness
// oracle the search drives.
//
// A SynthProblem is a litmus program rewritten into a *skeleton*: a
// FenceKind::None placeholder fence is inserted between every pair of
// consecutive instructions of every thread, and each placeholder becomes a
// mutable *slot* with a per-arch candidate menu ([None] + fence_menu for the
// slot's idiom, weakest to strongest).  An Assignment picks one menu entry
// per slot; the oracle answers whether that assignment forbids every
// outcome in the problem's forbidden set.
//
// Verdicts come from the incremental axiomatic evaluators (the exact
// Herding-Cats model on POWER7, the single-axiom checker elsewhere), which
// rebuild only fence-derived relation rows between neighbouring assignments
// — that is what lets the search afford thousands of candidate evaluations.
// Correctness is monotone on the lattice: strengthening any slot only
// shrinks the allowed-outcome set (property-tested in synth_search_test),
// which is the invariant behind the search's downset/upset pruning.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/axiomatic_power.h"
#include "sim/memory_model.h"
#include "synth/lattice.h"

namespace wmm::synth {

// One mutable fence slot of a synthesis problem.
struct Slot {
  sim::FenceSlotRef ref;  // placeholder position inside the skeleton
  SiteIdiom idiom = SiteIdiom::Standalone;
  // [FenceKind::None] + fence_menu(arch, idiom): index 0 leaves the slot
  // empty, later entries are weakest-to-strongest.
  std::vector<sim::FenceKind> menu;
};

struct SynthProblem {
  sim::LitmusTest skeleton;  // program with placeholder fences inserted
  sim::Arch arch = sim::Arch::ARMV8;
  std::vector<Slot> slots;
  // Outcomes (enumerate_outcomes layout) a correct assignment must forbid.
  std::vector<sim::Outcome> forbidden;
};

// Builds the per-arch problem for `test`: one None placeholder between each
// pair of consecutive instructions of each thread (a single-instruction
// thread contributes no slot), idiom PostLoad when the preceding
// instruction is a read, Standalone otherwise.  Existing fences in `test`
// are kept as immutable instructions.
SynthProblem make_problem(const sim::LitmusTest& test, sim::Arch arch,
                          std::vector<sim::Outcome> forbidden);

// The default synthesis objective: the outcomes `arch` admits that SC does
// not ("restore sequential consistency"), in std::set order, as the
// axiomatic oracle (axiomatic.h) decides them.
std::vector<sim::Outcome> sc_forbidden_outcomes(const sim::LitmusTest& test,
                                                sim::Arch arch);

// Incremental correctness oracle over a problem's assignment lattice.
// Wraps one incremental AxiomaticEvaluator and memoizes verdicts, so
// repeated queries (the greedy descent revisits neighbours) cost nothing.
class SynthOracle {
 public:
  explicit SynthOracle(const SynthProblem& problem);
  ~SynthOracle();
  SynthOracle(SynthOracle&&) noexcept;
  SynthOracle& operator=(SynthOracle&&) noexcept;

  // True when `a` forbids every forbidden outcome of the problem.
  bool correct(const Assignment& a);

  // Evaluator verdicts actually computed (memo hits excluded).
  std::uint64_t queries() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wmm::synth
