#include "sim/axiomatic.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/profile.h"
#include "sim/axiomatic_power.h"

namespace wmm::sim {

namespace {

bool ax_is_access(const LitmusInstr& in) { return in.type != AccessType::Fence; }
bool ax_is_read(const LitmusInstr& in) { return in.type == AccessType::Read; }
bool ax_is_write(const LitmusInstr& in) { return in.type == AccessType::Write; }

// --- Fence ordering classes, re-derived independently of fence.cpp ---------
//
// Which program-order access-class pairs each fence instruction preserves.
// R = read before the fence, W = write before; second letter is the access
// after the fence.  Sources: ARMv8 ARM B2.3 (DMB/DSB/ISB), Power ISA 2.07
// Book II (sync/lwsync/isync), Intel SDM vol 3 8.2 (MFENCE).
struct AxOrder {
  bool rr = false, rw = false, wr = false, ww = false;
  bool full() const { return rr && rw && wr && ww; }
};

AxOrder ax_fence_class(FenceKind kind, Arch arch, const AxiomaticOptions& opt) {
  AxOrder cls;
  switch (kind) {
    // Full barriers: everything before ordered with everything after.
    case FenceKind::DmbIsh:
    case FenceKind::DsbSy:
    case FenceKind::HwSync:
    case FenceKind::Mfence:
      cls = {true, true, true, true};
      break;
    // lwsync: all pairs except store→load.
    case FenceKind::LwSync:
      cls = {true, true, false, true};
      break;
    // dmb ishld: loads before ordered with loads and stores after.  A
    // control dependency completed by isb/isync orders prior reads with
    // every later access the same way (the read-ordering recipe).
    case FenceKind::DmbIshLd:
    case FenceKind::CtrlIsb:
    case FenceKind::ISync:
      cls = {true, true, false, false};
      break;
    // dmb ishst: stores before ordered with stores after.
    case FenceKind::DmbIshSt:
      cls = {false, false, false, true};
      break;
    // Plain isb or a bare control "fence" orders nothing by itself.
    case FenceKind::Isb:
    case FenceKind::CtrlDep:
    case FenceKind::None:
    case FenceKind::Nop:
    case FenceKind::CompilerOnly:
      break;
  }
  // Teeth weakenings: lwsync promoted to a full sync on POWER, mfence losing
  // its store→load order on TSO.
  if (kind == FenceKind::LwSync && arch == Arch::POWER7 &&
      opt.power.lwsync_is_sync) {
    cls.wr = true;
  }
  if (arch == Arch::X86_TSO && opt.drop_tso_store_load_fence) cls.wr = false;
  return cls;
}

// Preserved program order between instructions i < j of `thread` (both
// accesses), fence ordering included, re-derived from the architecture
// definitions.
bool ppo_pair(const LitmusThread& thread, std::size_t i, std::size_t j,
              Arch arch, const AxiomaticOptions& opt) {
  const LitmusInstr& a = thread.instrs[i];
  const LitmusInstr& b = thread.instrs[j];

  // Sequential consistency preserves all of program order.
  if (arch == Arch::SC) return true;

  // Per-location coherence: accesses to the same location commit in program
  // order on every simulated architecture (no store forwarding past a same-
  // location access in this model).
  if (!opt.drop_same_location_order && a.var >= 0 && a.var == b.var) {
    return true;
  }

  // Dependencies carried through registers written by earlier reads.
  if (ax_is_read(a) && a.reg >= 0) {
    if (!opt.drop_dependency_order &&
        (b.addr_dep == a.reg || b.data_dep == a.reg)) {
      return true;
    }
    // A bare control dependency orders the read only with dependent writes;
    // dependent reads may still be speculated past the branch.
    if (b.ctrl_dep == a.reg && ax_is_write(b)) return true;
  }

  // Acquire/release annotations (RCsc ldar/stlr semantics).
  if (!opt.drop_acquire_release) {
    if (a.acquire && ax_is_read(a)) return true;
    if (b.release && ax_is_write(b)) return true;
    if (a.release && b.acquire) return true;
  }

  // TSO preserves everything except store -> later load.
  if (arch == Arch::X86_TSO) {
    if (!(ax_is_write(a) && ax_is_read(b))) return true;
  }

  // Fence instructions strictly between the two accesses.
  for (std::size_t f = i + 1; f < j; ++f) {
    const LitmusInstr& fence = thread.instrs[f];
    if (ax_is_access(fence)) continue;
    const AxOrder cls = ax_fence_class(fence.fence, arch, opt);
    const bool covered = ax_is_read(a) ? (ax_is_read(b) ? cls.rr : cls.rw)
                                       : (ax_is_read(b) ? cls.wr : cls.ww);
    if (covered) return true;
  }
  return false;
}

// --- Candidate space -------------------------------------------------------

// Graph nodes are the access events plus, on POWER7, one node per full
// barrier; adjacency rows are 32-bit sets.
constexpr std::size_t kMaxNodes = 32;

struct AxEvent {
  int tid = -1;
  int idx = -1;  // instruction index within the thread
  bool write = false;
  int var = -1;
  int value = 0;
  int reg = -1;
  bool pusher = false;  // POWER7: a write that propagates its thread's
                        // observed set when it commits
};

struct AxBarrier {  // POWER7 full barrier
  int tid = -1;
  int idx = -1;
  int node = -1;  // graph node id
};

struct CandidateSpace {
  const LitmusTest* test = nullptr;
  Arch arch = Arch::SC;
  AxiomaticOptions opt;

  // Access-only half, built once per skeleton.
  std::vector<AxEvent> events;
  std::vector<std::vector<int>> event_of;  // by (tid, instr idx); -1 = fence
  std::vector<int> reads;   // event ids
  std::vector<int> writes;  // event ids
  std::vector<std::vector<int>> writes_by_var;
  // rf candidates per read (position in `reads`): write event ids, -1 = init.
  std::vector<std::vector<int>> rf_candidates;
  // Per read (position in `reads`): the outcome register it sets, or -1
  // when it has none or a later read overwrites it.
  std::vector<int> outcome_reg;
  // Same-location program order as adjacency-row bitsets (bit j of row i set
  // <=> edge i -> j), so a candidate check starts from a row copy.
  std::vector<std::uint32_t> poloc;

  // Fence-derived half, recomputed for the threads whose fences change.
  std::vector<std::uint32_t> ppo;  // preserved program order, fences included
  // POWER7 only: the full-barrier nodes and the PROPAGATION rows (ppo plus
  // barrier-po over events + barriers).
  std::vector<AxBarrier> barriers;
  std::vector<std::uint32_t> prop;
};

// Fixed-capacity directed graph over candidate nodes, seeded by a row copy,
// with an O(n^2) Kahn acyclicity check: POWER7's OBSERVATION graph at a
// leaf of the search.  It lives on the stack, so building it allocates
// nothing.
class RowGraph {
 public:
  // Only the first n_ rows are ever read, so the rest stay uninitialised.
  RowGraph(const std::array<std::uint32_t, kMaxNodes>& rows, std::size_t n)
      : n_(n) {
    std::copy_n(rows.begin(), n, succ_.begin());
  }

  // Returns true when the edge was newly inserted (callers undo with
  // remove()); self-edges poison the graph into permanent cyclicity.
  bool add(int from, int to) {
    if (from == to) {
      self_loop_ = true;
      return false;
    }
    const std::uint32_t bit = 1u << to;
    std::uint32_t& row = succ_[static_cast<std::size_t>(from)];
    if (row & bit) return false;
    row |= bit;
    return true;
  }

  bool has(int from, int to) const {
    return from == to ||
           (succ_[static_cast<std::size_t>(from)] & (1u << to)) != 0;
  }

  void remove(int from, int to) {
    succ_[static_cast<std::size_t>(from)] &= ~(1u << to);
  }

  bool acyclic() const {
    if (self_loop_) return false;
    std::uint32_t removed = 0;
    const std::uint32_t all = n_ == 32 ? 0xffffffffu : ((1u << n_) - 1u);
    for (std::size_t round = 0; round < n_; ++round) {
      bool progress = false;
      for (std::size_t v = 0; v < n_; ++v) {
        if (removed & (1u << v)) continue;
        // v is a sink (no live successors) -> remove it.
        if ((succ_[v] & ~removed) == 0) {
          removed |= 1u << v;
          progress = true;
        }
      }
      if (removed == all) return true;
      if (!progress) return false;
    }
    return removed == all;
  }

 private:
  std::array<std::uint32_t, kMaxNodes> succ_;
  std::size_t n_;
  bool self_loop_ = false;
};

void build_access_space(CandidateSpace& s) {
  const LitmusTest& test = *s.test;
  s.event_of.resize(test.threads.size());
  for (std::size_t t = 0; t < test.threads.size(); ++t) {
    s.event_of[t].assign(test.threads[t].instrs.size(), -1);
    for (std::size_t i = 0; i < test.threads[t].instrs.size(); ++i) {
      const LitmusInstr& in = test.threads[t].instrs[i];
      if (!ax_is_access(in)) continue;
      AxEvent e;
      e.tid = static_cast<int>(t);
      e.idx = static_cast<int>(i);
      e.write = ax_is_write(in);
      e.var = in.var;
      e.value = in.value;
      e.reg = in.reg;
      s.event_of[t][i] = static_cast<int>(s.events.size());
      s.events.push_back(e);
    }
  }
  // Guards the row shifts; build_barrier_nodes re-checks with the
  // (assignment-dependent) POWER7 barrier nodes included.
  if (s.events.size() > kMaxNodes) {
    throw std::invalid_argument("litmus test too large for axiomatic checker");
  }

  s.writes_by_var.assign(static_cast<std::size_t>(test.num_vars), {});
  for (std::size_t e = 0; e < s.events.size(); ++e) {
    if (s.events[e].write) {
      s.writes.push_back(static_cast<int>(e));
      s.writes_by_var[static_cast<std::size_t>(s.events[e].var)].push_back(
          static_cast<int>(e));
    } else {
      s.reads.push_back(static_cast<int>(e));
    }
  }
  for (int r : s.reads) {
    std::vector<int> cand = {-1};  // the initial value (zero)
    for (int w : s.writes_by_var[static_cast<std::size_t>(s.events[static_cast<std::size_t>(r)].var)]) {
      cand.push_back(w);
    }
    s.rf_candidates.push_back(std::move(cand));
  }
  s.outcome_reg.assign(s.reads.size(), -1);
  for (std::size_t k = 0; k < s.reads.size(); ++k) {
    const int reg = s.events[static_cast<std::size_t>(s.reads[k])].reg;
    bool last = reg >= 0;
    for (std::size_t k2 = k + 1; k2 < s.reads.size() && last; ++k2) {
      last = s.events[static_cast<std::size_t>(s.reads[k2])].reg != reg;
    }
    if (last) s.outcome_reg[k] = reg;
  }

  s.poloc.assign(s.events.size(), 0u);
  s.ppo.assign(s.events.size(), 0u);
  for (std::size_t t = 0; t < test.threads.size(); ++t) {
    const LitmusThread& thread = test.threads[t];
    for (std::size_t i = 0; i < thread.instrs.size(); ++i) {
      if (s.event_of[t][i] < 0) continue;
      for (std::size_t j = i + 1; j < thread.instrs.size(); ++j) {
        if (s.event_of[t][j] < 0) continue;
        const LitmusInstr& a = thread.instrs[i];
        const LitmusInstr& b = thread.instrs[j];
        if (!s.opt.drop_same_location_order && a.var >= 0 && a.var == b.var) {
          s.poloc[static_cast<std::size_t>(s.event_of[t][i])] |=
              1u << s.event_of[t][j];
        }
      }
    }
  }
}

// Recompute the fence-derived rows of thread `t`: its ppo rows and, on
// POWER7, its writes' pusher flags.
void compute_thread_rows(CandidateSpace& s, std::size_t t) {
  const LitmusThread& thread = s.test->threads[t];
  for (std::size_t i = 0; i < thread.instrs.size(); ++i) {
    if (s.event_of[t][i] < 0) continue;
    const auto ei = static_cast<std::size_t>(s.event_of[t][i]);
    s.ppo[ei] = 0u;
    for (std::size_t j = i + 1; j < thread.instrs.size(); ++j) {
      if (s.event_of[t][j] < 0) continue;
      if (ppo_pair(thread, i, j, s.arch, s.opt)) {
        s.ppo[ei] |= 1u << s.event_of[t][j];
      }
    }
    AxEvent& e = s.events[ei];
    if (s.arch != Arch::POWER7 || !e.write) continue;
    // Cumulativity trigger, mirroring the operational executor: the write
    // propagates its thread's observed set when it commits if it is a
    // release store or any store-store ordering fence precedes it in program
    // order (anywhere before, not only adjacent).
    e.pusher = thread.instrs[i].release;
    for (std::size_t f = 0; f < i && !e.pusher; ++f) {
      const LitmusInstr& fi = thread.instrs[f];
      e.pusher = !ax_is_access(fi) && ax_fence_class(fi.fence, s.arch, s.opt).ww;
    }
  }
}

// POWER7: list the full-barrier nodes and fold the PROPAGATION rows.  Always
// rebuilt after a fence change, because node ids shift with the barrier
// count.  Barrier-po: a sync node sits between its po-predecessors and
// po-successors in any commit interleaving.
void build_barrier_nodes(CandidateSpace& s) {
  const LitmusTest& test = *s.test;
  s.barriers.clear();
  for (std::size_t t = 0; t < test.threads.size(); ++t) {
    const LitmusThread& thread = test.threads[t];
    for (std::size_t i = 0; i < thread.instrs.size(); ++i) {
      const LitmusInstr& in = thread.instrs[i];
      if (ax_is_access(in) || !ax_fence_class(in.fence, s.arch, s.opt).full()) {
        continue;
      }
      s.barriers.push_back(
          {static_cast<int>(t), static_cast<int>(i),
           static_cast<int>(s.events.size() + s.barriers.size())});
    }
  }
  const std::size_t nodes = s.events.size() + s.barriers.size();
  if (nodes > kMaxNodes) {
    throw std::invalid_argument("litmus test too large for axiomatic checker");
  }
  s.prop = s.ppo;
  s.prop.resize(nodes, 0u);
  for (const AxBarrier& b : s.barriers) {
    for (std::size_t e = 0; e < s.events.size(); ++e) {
      const AxEvent& ev = s.events[e];
      if (ev.tid != b.tid) continue;
      if (ev.idx < b.idx) {
        s.prop[e] |= 1u << b.node;
      } else {
        s.prop[static_cast<std::size_t>(b.node)] |= 1u << e;
      }
    }
    for (const AxBarrier& other : s.barriers) {
      if (other.tid == b.tid && other.idx < b.idx) {
        s.prop[static_cast<std::size_t>(other.node)] |= 1u << b.node;
      }
    }
  }
}

CandidateSpace make_space(const LitmusTest& test, Arch arch,
                          const AxiomaticOptions& opt) {
  CandidateSpace s;
  s.test = &test;
  s.arch = arch;
  s.opt = opt;
  build_access_space(s);
  for (std::size_t t = 0; t < test.threads.size(); ++t) {
    compute_thread_rows(s, t);
  }
  if (arch == Arch::POWER7) build_barrier_nodes(s);
  return s;
}

// --- Candidates --------------------------------------------------------------

// A candidate execution, whole at a leaf of the search and partial inside it.
struct Candidate {
  // rf[k]: source write event of read s.reads[k], -1 = initial value.
  std::vector<int> rf;
  // co[v]: the coherence order of var v's writes (event ids, first = oldest).
  std::vector<std::vector<int>> co;
  // co_pos[w]: position of write event w in its variable's chain, -1 while
  // the search has not placed it.
  std::vector<int> co_pos;
};

// Position of write `w` in its variable's coherence chain; -1 for the
// initial value (w < 0).
int co_position(const Candidate& c, int w) {
  return w < 0 ? -1 : c.co_pos[static_cast<std::size_t>(w)];
}

Outcome outcome_of(const CandidateSpace& s, const Candidate& c) {
  Outcome out(static_cast<std::size_t>(s.test->num_regs), 0);
  for (std::size_t k = 0; k < s.reads.size(); ++k) {
    const AxEvent& r = s.events[static_cast<std::size_t>(s.reads[k])];
    if (r.reg < 0) continue;
    out[static_cast<std::size_t>(r.reg)] =
        c.rf[k] < 0 ? 0 : s.events[static_cast<std::size_t>(c.rf[k])].value;
  }
  for (int v = 0; v < s.test->num_vars; ++v) {
    const std::vector<int>& chain = c.co[static_cast<std::size_t>(v)];
    out.push_back(chain.empty()
                      ? 0
                      : s.events[static_cast<std::size_t>(chain.back())].value);
  }
  return out;
}

// --- POWER7 OBSERVATION ------------------------------------------------------

// A disjunctive obligation on the witnessing commit interleaving: edge
// (a1 -> b1) or edge (a2 -> b2) must hold.  Derived from cumulativity
// pushes whose triggering observation is not forced by program order.
struct Obligation {
  int a1, b1, a2, b2;
};

// Try every orientation of the obligations; true iff some orientation keeps
// the graph acyclic (i.e. a witnessing total order exists).
bool orient_obligations(RowGraph& g, const std::vector<Obligation>& obs,
                        std::size_t i) {
  if (i == obs.size()) return g.acyclic();
  const Obligation& o = obs[i];
  // Already satisfied by an edge present in the graph: no choice to make.
  if (g.has(o.a1, o.b1) || g.has(o.a2, o.b2)) {
    return orient_obligations(g, obs, i + 1);
  }
  for (const auto& [from, to] : {std::pair{o.a1, o.b1}, std::pair{o.a2, o.b2}}) {
    const bool added = g.add(from, to);
    if (g.acyclic() && orient_obligations(g, obs, i + 1)) return true;
    if (added) g.remove(from, to);
  }
  return false;
}

// Add the forced-visibility edges implied by the operational push/catch-up
// rules to the PROPAGATION graph `g`, collect the disjunctive obligations,
// and decide whether a witnessing orientation exists.
bool observation_holds(const CandidateSpace& s, const Candidate& c,
                       RowGraph& g) {
  const bool b_cumulative = !s.opt.power.drop_b_cumulativity;
  std::vector<Obligation> obligations;

  // Reads of thread U whose rf source is write `w`, committed before
  // instruction index `before_idx` by program order — the forced part of
  // U's observed set (B-cumulativity channel).
  auto observed_by_po = [&](int w, int tid, int before_idx) {
    if (!b_cumulative) return false;
    for (std::size_t k = 0; k < s.reads.size(); ++k) {
      const AxEvent& r2 = s.events[static_cast<std::size_t>(s.reads[k])];
      if (r2.tid == tid && r2.idx < before_idx && c.rf[k] == w) return true;
    }
    return false;
  };

  for (std::size_t k = 0; k < s.reads.size(); ++k) {
    const int r = s.reads[k];
    const AxEvent& re = s.events[static_cast<std::size_t>(r)];
    const int w = c.rf[k];
    const int wpos = co_position(c, w);
    const std::vector<int>& chain = c.co[static_cast<std::size_t>(re.var)];

    // Source visibility: an external source must be undelayed for the
    // reading thread, so it becomes visible the moment it commits; every
    // same-thread read of an older coherence generation must therefore
    // commit first.  (fre ; rf⁻¹ same-thread ordering.)
    if (w >= 0 && s.events[static_cast<std::size_t>(w)].tid != re.tid) {
      for (std::size_t k2 = 0; k2 < s.reads.size(); ++k2) {
        const int r2 = s.reads[k2];
        const AxEvent& r2e = s.events[static_cast<std::size_t>(r2)];
        if (r2 == r || r2e.tid != re.tid || r2e.var != re.var) continue;
        if (co_position(c, c.rf[k2]) < wpos) g.add(r2, w);
      }
    }

    // Obscurers: external writes coherence-after the source.  If one is
    // forced to be visible to this thread before the read commits, the
    // read cannot return its older source.
    for (int p = wpos + 1; p < static_cast<int>(chain.size()); ++p) {
      const int w2 = chain[static_cast<std::size_t>(p)];
      const AxEvent& w2e = s.events[static_cast<std::size_t>(w2)];
      if (w2e.tid == re.tid) continue;  // own writes: SC-per-location

      // (1) A pushing write propagates itself on commit (it is never
      //     delayable), so the stale read must commit first.
      if (w2e.pusher) g.add(r, w2);

      for (const AxBarrier& f : s.barriers) {
        // (2) Reader catch-up: a sync in the reading thread po-before the
        //     read makes everything already committed visible, so the
        //     obscurer must commit after that sync.
        if (f.tid == re.tid && f.idx < re.idx) g.add(f.node, w2);
        // (3) Barrier push: a sync whose thread has observed the obscurer
        //     (its own earlier write, or an earlier read of it) propagates
        //     it to everyone, so the stale read must commit before the sync.
        const bool own = w2e.tid == f.tid && w2e.idx < f.idx;
        if (own || observed_by_po(w2, f.tid, f.idx)) g.add(r, f.node);
      }

      // (4) Write push: a pushing write x propagates the obscurer if its
      //     thread observed the obscurer before x commits.  When the
      //     observation is an unordered same-thread event, the trigger is
      //     not forced: either x commits before the observation (no push)
      //     or the stale read commits before x.
      for (int x : s.writes) {
        const AxEvent& xe = s.events[static_cast<std::size_t>(x)];
        if (!xe.pusher || x == w2) continue;
        if (w2e.tid == xe.tid) obligations.push_back({x, w2, r, x});
        if (!b_cumulative) continue;
        for (std::size_t k2 = 0; k2 < s.reads.size(); ++k2) {
          const int r2 = s.reads[k2];
          const AxEvent& r2e = s.events[static_cast<std::size_t>(r2)];
          if (r2e.tid != xe.tid || c.rf[k2] != w2) continue;
          obligations.push_back({x, r2, r, x});
        }
      }
    }
  }

  if (!g.acyclic()) return false;
  return orient_obligations(g, obligations, 0);
}

// --- The candidate search ----------------------------------------------------

// POWER7's axioms, all four of which make up its model.  The first three are
// acyclicity checks, so the search can prune on them; OBSERVATION's
// obligations are disjunctive, so it runs at the leaves only.
constexpr int kPowerAxioms = 4;

// Running totals of the calling thread's searches.
thread_local AxiomaticSearchStats search_totals;

// Transitive-closure rows: bit v of reach[u] is set iff the graph has a path
// u ->+ v.  Adding u -> v closes a cycle iff u is reachable from v.
using Closure = std::array<std::uint32_t, kMaxNodes>;

Closure transitive_closure(const std::vector<std::uint32_t>& rows,
                           std::size_t n) {
  Closure reach{};
  std::copy(rows.begin(), rows.end(), reach.begin());
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (reach[i] & (1u << k)) reach[i] |= reach[k];
    }
  }
  return reach;
}

// One backtracking search over the (rf, co) candidates.  It fixes each
// variable's coherence order one write at a time, then each read's source,
// and adds each choice's edges to the closures of the acyclicity axioms it
// enforces.  A choice that closes a cycle is pruned: edges are only ever
// added, so every completion of the partial candidate keeps the cycle.
//
//   closure 0: SC/TSO/ARMv8's one axiom, ppo ∪ rf ∪ co ∪ fr, or POWER7's
//              SC-PER-LOCATION, poloc ∪ rf ∪ co ∪ fr;
//   closure 1: POWER7's NO-THIN-AIR, ppo ∪ rfe;
//   closure 2: POWER7's PROPAGATION, prop ∪ rf ∪ co.
//
// co and fr use immediate co successors only, which is equivalent for
// acyclicity since full co/fr are contained in the transitive closure of the
// chain form.
class CandidateSearch {
 public:
  // Enforces POWER7's first `axioms` axioms (in PowerAxiom order); the
  // other architectures have their one axiom whatever `axioms` says.
  CandidateSearch(const CandidateSpace& s, int axioms) : s_(s) {
    const bool power = s.arch == Arch::POWER7;
    nodes_ = power ? s.prop.size() : s.events.size();
    closures_ = power ? std::min(axioms, kPowerAxioms - 1) : 1;
    observe_ = power && axioms == kPowerAxioms &&
               !s.opt.power.drop_observation;
    reach_[0] = transitive_closure(power ? s.poloc : s.ppo, nodes_);
    if (closures_ > 1) reach_[1] = transitive_closure(s.ppo, nodes_);
    if (closures_ > 2) reach_[2] = transitive_closure(s.prop, nodes_);
    c_.rf.assign(s.reads.size(), -1);
    c_.co.resize(s.writes_by_var.size());
    c_.co_pos.assign(s.events.size(), -1);
  }

  ~CandidateSearch() {
    ++search_totals.searches;
    search_totals.extensions += stats_.extensions;
    search_totals.pruned += stats_.pruned;
    search_totals.leaves += stats_.leaves;
  }

  // Every outcome of a candidate that satisfies the axioms.
  std::set<Outcome> outcomes() {
    std::set<Outcome> out;
    out_ = &out;
    place_write(0, 0);
    return out;
  }

  // Whether some candidate producing `target` satisfies the axioms.  Choices
  // that contradict `target` (a register's source value, a variable's last
  // write) are pruned as well.
  bool allows(const Outcome& target) {
    if (target.size() != static_cast<std::size_t>(s_.test->num_regs +
                                                  s_.test->num_vars)) {
      return false;
    }
    target_ = &target;
    place_write(0, 0);
    return found_;
  }

 private:
  // Adds edge u -> v to closure `k` if the search enforces it; false when
  // the edge closes a cycle.
  bool extend(int k, int u, int v) {
    if (k >= closures_) return true;
    Closure& reach = reach_[static_cast<std::size_t>(k)];
    if (u == v || (reach[static_cast<std::size_t>(v)] & (1u << u))) {
      return false;
    }
    const std::uint32_t bit = 1u << v;
    if (reach[static_cast<std::size_t>(u)] & bit) return true;
    ++stats_.extensions;
    const std::uint32_t gained = reach[static_cast<std::size_t>(v)] | bit;
    for (std::size_t x = 0; x < nodes_; ++x) {
      if (x == static_cast<std::size_t>(u) || (reach[x] & (1u << u))) {
        reach[x] |= gained;
      }
    }
    return true;
  }

  int value_of(int w) const {
    return w < 0 ? 0 : s_.events[static_cast<std::size_t>(w)].value;
  }

  // Appends a write to variable v's coherence chain (`placed` writes are
  // already in it); after the last variable, goes on to the reads.
  void place_write(std::size_t v, std::size_t placed) {
    if (v == c_.co.size()) {
      choose_source(0);
      return;
    }
    const std::vector<int>& writes = s_.writes_by_var[v];
    if (placed == writes.size()) {
      place_write(v + 1, 0);
      return;
    }
    std::vector<int>& chain = c_.co[v];
    const std::array<Closure, 3> saved = reach_;
    for (int w : writes) {
      if (found_) return;
      if (c_.co_pos[static_cast<std::size_t>(w)] >= 0) continue;
      if (target_ && placed + 1 == writes.size() &&
          value_of(w) != (*target_)[static_cast<std::size_t>(
                             s_.test->num_regs) + v]) {
        ++stats_.pruned;
        continue;
      }
      if (!chain.empty() &&
          !(extend(0, chain.back(), w) && extend(2, chain.back(), w))) {
        ++stats_.pruned;
        reach_ = saved;
        continue;
      }
      c_.co_pos[static_cast<std::size_t>(w)] = static_cast<int>(placed);
      chain.push_back(w);
      place_write(v, placed + 1);
      chain.pop_back();
      c_.co_pos[static_cast<std::size_t>(w)] = -1;
      reach_ = saved;
    }
  }

  // Chooses the source of read s.reads[k], adding its rf edge and its fr
  // edge to the source's co successor; after the last read, a leaf.
  void choose_source(std::size_t k) {
    if (k == s_.reads.size()) {
      leaf();
      return;
    }
    const int r = s_.reads[k];
    const AxEvent& re = s_.events[static_cast<std::size_t>(r)];
    const std::vector<int>& chain = c_.co[static_cast<std::size_t>(re.var)];
    const int reg = s_.outcome_reg[k];
    const std::array<Closure, 3> saved = reach_;
    for (int w : s_.rf_candidates[k]) {
      if (found_) return;
      if (target_ && reg >= 0 &&
          value_of(w) != (*target_)[static_cast<std::size_t>(reg)]) {
        ++stats_.pruned;
        continue;
      }
      bool ok = true;
      if (w >= 0) {
        const bool rfe = s_.events[static_cast<std::size_t>(w)].tid != re.tid;
        ok = extend(0, w, r) && (!rfe || extend(1, w, r)) && extend(2, w, r);
      }
      const auto next = static_cast<std::size_t>(co_position(c_, w) + 1);
      if (ok && next < chain.size()) ok = extend(0, r, chain[next]);
      if (ok) {
        c_.rf[k] = w;
        choose_source(k + 1);
      } else {
        ++stats_.pruned;
      }
      reach_ = saved;
    }
  }

  // A whole candidate that passed every acyclicity axiom.  OBSERVATION runs
  // on the PROPAGATION closure, whose cycles are those of prop ∪ rf ∪ co;
  // outcomes() skips it for an outcome it already holds.
  void leaf() {
    ++stats_.leaves;
    Outcome o = outcome_of(s_, c_);
    if (target_ ? o != *target_ : out_->count(o) != 0) return;
    if (observe_) {
      RowGraph g(reach_[2], nodes_);
      if (!observation_holds(s_, c_, g)) return;
    }
    if (target_) {
      found_ = true;
    } else {
      out_->insert(std::move(o));
    }
  }

  const CandidateSpace& s_;
  std::size_t nodes_ = 0;
  int closures_ = 1;
  bool observe_ = false;
  std::array<Closure, 3> reach_{};
  Candidate c_;
  std::set<Outcome>* out_ = nullptr;
  const Outcome* target_ = nullptr;
  bool found_ = false;
  AxiomaticSearchStats stats_;
};

}  // namespace

const char* power_axiom_name(PowerAxiom axiom) {
  switch (axiom) {
    case PowerAxiom::None: return "none";
    case PowerAxiom::ScPerLocation: return "SC-PER-LOCATION";
    case PowerAxiom::NoThinAir: return "NO-THIN-AIR";
    case PowerAxiom::Propagation: return "PROPAGATION";
    case PowerAxiom::Observation: return "OBSERVATION";
  }
  return "?";
}

bool axiomatic_ppo(const LitmusThread& thread, std::size_t i, std::size_t j,
                   Arch arch, const AxiomaticOptions& options) {
  if (i >= j || j >= thread.instrs.size()) return false;
  if (!ax_is_access(thread.instrs[i]) || !ax_is_access(thread.instrs[j])) {
    return false;
  }
  return ppo_pair(thread, i, j, arch, options);
}

// The batch entry points are the zero-slot special case of the incremental
// evaluator, so the two share every code path and cannot drift apart.
std::set<Outcome> axiomatic_outcomes(const LitmusTest& test, Arch arch,
                                     const AxiomaticOptions& options) {
  AxiomaticEvaluator ev(test, arch, {}, options);
  return ev.outcomes();
}

bool axiomatic_allowed(const LitmusTest& test, const Outcome& outcome,
                       Arch arch, const AxiomaticOptions& options) {
  AxiomaticEvaluator ev(test, arch, {}, options);
  return ev.allowed(outcome);
}

PowerAxiom power_forbidding_axiom(const LitmusTest& test,
                                  const Outcome& outcome,
                                  const AxiomaticOptions& options) {
  const CandidateSpace s = make_space(test, Arch::POWER7, options);
  // The deepest axiom reached by any candidate producing the outcome: with
  // the first `axioms` enforced, some candidate passes them all, so the next
  // one did the real forbidding.
  for (int axioms = kPowerAxioms; axioms > 0; --axioms) {
    if (CandidateSearch(s, axioms).allows(outcome)) {
      return axioms == kPowerAxioms ? PowerAxiom::None
                                    : static_cast<PowerAxiom>(axioms + 1);
    }
  }
  return PowerAxiom::ScPerLocation;
}

struct AxiomaticEvaluator::Impl {
  LitmusTest test;  // mutable copy: set_assignment rewrites fence slots
  std::vector<FenceSlotRef> slots;
  CandidateSpace space;  // space.test points at `test` above

  Impl(const LitmusTest& skeleton, Arch arch, std::vector<FenceSlotRef> sl,
       const AxiomaticOptions& options)
      : test(skeleton), slots(std::move(sl)) {
    for (const FenceSlotRef& slot : slots) {
      const auto t = static_cast<std::size_t>(slot.tid);
      const auto i = static_cast<std::size_t>(slot.idx);
      if (t >= test.threads.size() || i >= test.threads[t].instrs.size() ||
          test.threads[t].instrs[i].type != AccessType::Fence) {
        throw std::invalid_argument("fence slot does not name a fence");
      }
    }
    space = make_space(test, arch, options);
  }
};

AxiomaticEvaluator::AxiomaticEvaluator(const LitmusTest& skeleton, Arch arch,
                                       std::vector<FenceSlotRef> slots,
                                       const AxiomaticOptions& options)
    : impl_(std::make_unique<Impl>(skeleton, arch, std::move(slots), options)) {}

AxiomaticEvaluator::~AxiomaticEvaluator() = default;
AxiomaticEvaluator::AxiomaticEvaluator(AxiomaticEvaluator&&) noexcept = default;
AxiomaticEvaluator& AxiomaticEvaluator::operator=(AxiomaticEvaluator&&) noexcept =
    default;

void AxiomaticEvaluator::set_assignment(const std::vector<FenceKind>& kinds) {
  Impl& im = *impl_;
  if (kinds.size() != im.slots.size()) {
    throw std::invalid_argument("assignment size does not match slot count");
  }
  // Fences are not candidate events, so the access-only half is invariant;
  // only the threads whose fence kinds actually changed are recomputed.
  std::vector<bool> dirty(im.test.threads.size(), false);
  bool any = false;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    LitmusInstr& in =
        im.test.threads[static_cast<std::size_t>(im.slots[k].tid)]
            .instrs[static_cast<std::size_t>(im.slots[k].idx)];
    if (in.fence == kinds[k]) continue;
    in.fence = kinds[k];
    dirty[static_cast<std::size_t>(im.slots[k].tid)] = true;
    any = true;
  }
  for (std::size_t t = 0; t < dirty.size(); ++t) {
    if (dirty[t]) compute_thread_rows(im.space, t);
  }
  if (any && im.space.arch == Arch::POWER7) build_barrier_nodes(im.space);
}

std::set<Outcome> AxiomaticEvaluator::outcomes() const {
  const Impl& im = *impl_;
  WMM_PROFILE_SPAN(im.space.arch == Arch::POWER7 ? obs::Phase::AxPowerCheck
                                                 : obs::Phase::AxCheck);
  return CandidateSearch(im.space, kPowerAxioms).outcomes();
}

bool AxiomaticEvaluator::allowed(const Outcome& outcome) const {
  return CandidateSearch(impl_->space, kPowerAxioms).allows(outcome);
}

AxiomaticSearchStats axiomatic_search_stats() { return search_totals; }

}  // namespace wmm::sim
