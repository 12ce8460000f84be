// Operational weak-memory-model executor for litmus tests.
//
// Each thread's program is a straight-line list of reads, writes, and fences
// with explicit address/data/control dependencies.  Each thread's *commit
// order* is a partial order over its instructions allowed by the
// architecture (program order relaxed per location, dependency, fence and
// acquire/release, see `must_commit_in_order`).  The executor searches one
// labelled transition system: a transition commits any thread's next ready
// commit-order node against a shared memory, and each state is expanded once
// (a visited set keyed by the exact state).  The union of final register and
// memory states is the set of architecturally allowed outcomes.
//
// Architecture strength:
//   SC       — no reordering at all.
//   X86_TSO  — only write -> later read (different location) may reorder
//              (the store buffer), unless an mfence intervenes.
//   ARMV8 /
//   POWER7   — any pair of accesses to different locations may reorder unless
//              ordered by a dependency, a fence, or acquire/release flags.
//
// This model is deliberately a conservative approximation of the full
// Flur et al. / Sarkar et al. models: it is thread-local-reorder + interleave
// (i.e. multi-copy atomic), which matches ARMv8's other-multi-copy-atomic
// revision and allows the classic SB/MP/LB/S/R/2+2W behaviours that the
// paper's fencing strategies exist to control.  Non-multi-copy-atomic POWER
// behaviours (e.g. WRC without sync, IRIW) are additionally admitted through
// an early-forwarding rule, see `allows_early_forwarding`: when a write
// commits, it chooses which other threads it stays withheld from until a
// cumulative fence or store publishes it.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "sim/arch.h"
#include "sim/fence.h"

namespace wmm::sim {

enum class AccessType : std::uint8_t { Read, Write, Fence };

struct LitmusInstr {
  AccessType type = AccessType::Fence;
  int var = -1;    // variable index (Read/Write)
  int value = 0;   // value written (Write)
  int reg = -1;    // destination register (Read)
  FenceKind fence = FenceKind::None;

  // Dependencies on earlier reads (register indices, -1 = none).
  int addr_dep = -1;  // address computed from this register
  int data_dep = -1;  // (Write) data computed from this register
  int ctrl_dep = -1;  // guarded by a branch on this register

  bool acquire = false;  // Read: load-acquire (ldar)
  bool release = false;  // Write: store-release (stlr)

  static LitmusInstr read(int reg, int var) {
    LitmusInstr i;
    i.type = AccessType::Read;
    i.reg = reg;
    i.var = var;
    return i;
  }
  static LitmusInstr write(int var, int value) {
    LitmusInstr i;
    i.type = AccessType::Write;
    i.var = var;
    i.value = value;
    return i;
  }
  static LitmusInstr barrier(FenceKind kind) {
    LitmusInstr i;
    i.type = AccessType::Fence;
    i.fence = kind;
    return i;
  }

  // Structural equality (used by the .litmus round-trip property tests).
  friend bool operator==(const LitmusInstr&, const LitmusInstr&) = default;
};

struct LitmusThread {
  std::vector<LitmusInstr> instrs;

  friend bool operator==(const LitmusThread&, const LitmusThread&) = default;
};

struct LitmusTest {
  std::string name;
  std::vector<LitmusThread> threads;
  int num_vars = 0;
  int num_regs = 0;  // registers are global indices across threads

  friend bool operator==(const LitmusTest&, const LitmusTest&) = default;
};

// A final state: register values indexed by register id.
using Outcome = std::vector<int>;

// Enumerate all architecturally reachable outcomes of `test` on `arch`.
std::set<Outcome> enumerate_outcomes(const LitmusTest& test, Arch arch);

// Introspection over the calling thread's enumeration workspace (the bump
// arena and the visited-state set behind enumerate_outcomes): capacity held,
// the arena's high-water mark of bytes live within one enumeration, and
// running totals over the thread's enumerations.  `states` counts the
// distinct non-final states the search expanded, `memo_hits` the transitions
// into a state already expanded, `leaves` the transitions into a final state;
// all three are deterministic per program and architecture.  Per-thread by
// construction — these never enter the obs counter registry, which must stay
// byte-identical across --threads.
struct EnumArenaStats {
  std::size_t reserved_bytes = 0;
  std::size_t high_water_bytes = 0;
  std::size_t visited_bytes = 0;  // storage held by the visited-state set
  std::uint64_t enumerations = 0;
  std::uint64_t states = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t leaves = 0;
};
EnumArenaStats enumeration_arena_stats();

// True when program-order pair (i, j) of `thread` must commit in order on
// `arch` (exposed for tests).
bool must_commit_in_order(const LitmusThread& thread, std::size_t i,
                          std::size_t j, Arch arch);

// Whether `arch` is non-multi-copy-atomic: a thread may read another thread's
// write before it reaches main memory (POWER; enables WRC/IRIW relaxations).
bool allows_early_forwarding(Arch arch);

}  // namespace wmm::sim
