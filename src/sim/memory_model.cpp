#include "sim/memory_model.h"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "obs/profile.h"
#include "sim/enum_arena.h"

namespace wmm::sim {

namespace {

bool is_access(const LitmusInstr& in) { return in.type != AccessType::Fence; }
bool is_read(const LitmusInstr& in) { return in.type == AccessType::Read; }
bool is_write(const LitmusInstr& in) { return in.type == AccessType::Write; }

// Full barriers are modelled as nodes in the commit order (they genuinely
// order everything on both sides); weaker fences only constrain specific
// access-class pairs and must not appear as nodes, or transitivity through
// the node would forbid reorderings the fence permits (e.g. store->load
// across an lwsync).
bool is_full_barrier(FenceKind kind) { return fence_order(kind).full(); }

// Does instruction `j` depend on a register produced by read `i`?
bool depends_on(const LitmusInstr& i, const LitmusInstr& j, bool& write_only) {
  write_only = false;
  if (!is_read(i) || i.reg < 0) return false;
  if (j.addr_dep == i.reg || j.data_dep == i.reg) return true;
  if (j.ctrl_dep == i.reg) {
    // A bare control dependency orders the read only with dependent *writes*
    // (reads may still be speculated past the branch without isb).
    write_only = true;
    return true;
  }
  return false;
}

}  // namespace

bool allows_early_forwarding(Arch arch) { return arch == Arch::POWER7; }

bool must_commit_in_order(const LitmusThread& thread, std::size_t i,
                          std::size_t j, Arch arch) {
  if (i >= j || j >= thread.instrs.size()) return false;
  const LitmusInstr& a = thread.instrs[i];
  const LitmusInstr& b = thread.instrs[j];

  // Full-barrier fence nodes order with everything on the same thread.
  if (!is_access(a) || !is_access(b)) {
    const bool a_full = !is_access(a) && is_full_barrier(a.fence);
    const bool b_full = !is_access(b) && is_full_barrier(b.fence);
    return a_full || b_full || (!is_access(a) && !is_access(b));
  }

  if (arch == Arch::SC) return true;

  // Per-location coherence: same-variable accesses stay in program order.
  if (a.var >= 0 && a.var == b.var) return true;

  // Dependencies.
  bool write_only = false;
  if (depends_on(a, b, write_only)) {
    if (!write_only || is_write(b)) return true;
  }

  // Acquire/release flags.
  if (a.acquire && is_read(a)) return true;
  if (b.release && is_write(b)) return true;
  if (a.release && b.acquire) return true;  // stlr ; ldar (RCsc)

  if (arch == Arch::X86_TSO) {
    // TSO: everything ordered except write -> later read.
    if (!(is_write(a) && is_read(b))) return true;
  }

  // Fences strictly between a and b in program order.
  for (std::size_t f = i + 1; f < j; ++f) {
    const LitmusInstr& fence = thread.instrs[f];
    if (is_access(fence)) continue;
    const FenceOrder order = fence_order(fence.fence);
    const bool first_read = is_read(a);
    const bool second_read = is_read(b);
    const bool covered = first_read ? (second_read ? order.rr : order.rw)
                                    : (second_read ? order.wr : order.ww);
    if (covered) return true;
  }
  return false;
}

namespace {

// Precomputed per-event commit behaviour (SoA columns over flat event ids).
enum : std::uint8_t {
  kEvWrite = 0,
  kEvRead = 1,
  kEvFenceFull = 2,   // full barrier: cumulative push + catch-up on POWER
  kEvFenceOther = 3,  // commit-order node with no commit-time effect (lwsync)
};

// The per-thread enumeration workspace: one arena and two tuple sets reused
// across calls, plus running search totals.  Thread-local so concurrent
// par_map workers never share mutable state; nothing here touches the obs
// counter registry.
struct EnumWorkspace {
  static constexpr std::size_t kInlineBytes = 64 * 1024;
  alignas(64) std::byte inline_chunk[kInlineBytes];
  Arena arena{inline_chunk, kInlineBytes};
  PackedTupleSet visited;   // packed keys of the expanded states
  PackedTupleSet outcomes;  // packed final states
  std::uint64_t enumerations = 0;
  std::uint64_t states = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t leaves = 0;
};

EnumWorkspace& workspace() {
  thread_local EnumWorkspace ws;
  return ws;
}

// One machine state of the search, a view into that depth's block of the
// arena.  Writes are named by their slot (0..W-1, in event order).  A
// register or a variable holds the slot + 1 of the write whose value it
// took, 0 for the initial value.
struct State {
  std::uint64_t* done;   // T: committed commit-order nodes of each thread
  std::int32_t* regs;    // R
  std::int32_t* last;    // V: coherence-latest committed write
  // Forwarding (POWER) only:
  std::int32_t* rank;    // W: coherence rank of the write, -1 uncommitted
  std::uint32_t* vis;    // W: threads the write is visible to
  std::uint32_t* seen;   // T: writes the thread has observed (cumulativity)
  std::int32_t* floor;   // T*V: highest rank the thread has read, -1 none
};

// Appends fixed-width bit fields to a packed key.
struct KeyWriter {
  std::uint32_t* out;
  std::uint64_t acc = 0;
  int fill = 0;
  void put(std::uint64_t v, int bits) {  // bits <= 32
    acc |= v << fill;
    fill += bits;
    if (fill >= 32) {
      *out++ = static_cast<std::uint32_t>(acc);
      acc >>= 32;
      fill -= 32;
    }
  }
  void put_wide(std::uint64_t v, int bits) {  // bits <= 64
    put(v & 0xFFFFFFFFu, bits < 32 ? bits : 32);
    if (bits > 32) put(v >> 32, bits - 32);
  }
  void flush() {
    if (fill > 0) *out++ = static_cast<std::uint32_t>(acc);
  }
};

// Everything the search reads, allocated out of the arena before it starts.
// Integer columns throughout: the search never chases a pointer into
// LitmusInstr.
struct Enumeration {
  const LitmusTest* test = nullptr;
  EnumWorkspace* ws = nullptr;
  // Writes become visible to threads one by one (POWER with more than one
  // thread and a write); otherwise a committed write is visible everywhere
  // at once.
  bool forwarding = false;

  int T = 0;  // threads
  int V = 0;  // shared variables
  int R = 0;  // registers
  int W = 0;  // writes
  int N = 0;  // commit-order nodes over all threads

  // Flat event columns; event id = thread_base[t] + instruction index.
  int* thread_base = nullptr;
  std::uint8_t* ev_kind = nullptr;
  int* ev_var = nullptr;
  int* ev_reg = nullptr;
  int* ev_slot = nullptr;           // write slot, -1 for non-writes
  std::uint8_t* ev_push = nullptr;  // write triggers a cumulativity push

  // Write columns by slot, and the slots writing each variable.
  int* w_val = nullptr;
  int* w_var = nullptr;
  int* var_writes = nullptr;
  int* var_wbase = nullptr;  // V + 1

  // Commit-order nodes: thread t owns nodes node_base[t]..node_base[t+1)-1.
  // node_pred[n] bit k set <=> the thread's node k must commit before n.
  int* node_base = nullptr;  // T + 1
  int* node_event = nullptr;
  std::uint64_t* node_pred = nullptr;
  // Read with forwarding only: the nodes of thread t that read variable v
  // ([t * V + v]), and those that publish its observed writes (full
  // barriers and pushing writes).
  std::uint64_t* read_nodes = nullptr;
  std::uint64_t* publish_nodes = nullptr;

  // One state block per search depth, block_bytes apart.
  std::byte* blocks = nullptr;
  std::size_t block_bytes = 0;
  std::size_t off_regs = 0, off_last = 0, off_rank = 0, off_vis = 0,
              off_seen = 0, off_floor = 0;

  std::uint32_t all_threads = 0;  // visibility mask of a published write
  int id_bits = 0;                // key bits of a write slot + 1 (or rank + 1)
  std::uint32_t* key = nullptr;      // as large as a block, which it packs
  std::uint32_t* readers = nullptr;  // pack_key scratch, V
  std::uint32_t* outcome = nullptr;  // R + V packing scratch

  State state(int depth) const {
    std::byte* b = blocks + static_cast<std::size_t>(depth) * block_bytes;
    return State{reinterpret_cast<std::uint64_t*>(b),
                 reinterpret_cast<std::int32_t*>(b + off_regs),
                 reinterpret_cast<std::int32_t*>(b + off_last),
                 reinterpret_cast<std::int32_t*>(b + off_rank),
                 reinterpret_cast<std::uint32_t*>(b + off_vis),
                 reinterpret_cast<std::uint32_t*>(b + off_seen),
                 reinterpret_cast<std::int32_t*>(b + off_floor)};
  }
  int node_count(int t) const { return node_base[t + 1] - node_base[t]; }
};

// Commit-order nodes and their predecessor masks for thread `t`.
void build_thread_orders(Enumeration& en, int t, Arch arch) {
  const LitmusThread& thread = en.test->threads[static_cast<std::size_t>(t)];

  int node_instr[64];
  std::size_t n = 0;
  for (std::size_t i = 0; i < thread.instrs.size(); ++i) {
    const LitmusInstr& in = thread.instrs[i];
    if (is_access(in) || is_full_barrier(in.fence) ||
        in.fence == FenceKind::LwSync) {
      // lwsync nodes are needed in the sequence for cumulativity timing even
      // though they do not constrain all pairs; they get only the edges that
      // its ordering classes justify — see the edge loop below.
      if (n >= 64) {
        throw std::invalid_argument(
            "litmus thread too large for commit-order masks");
      }
      node_instr[n] = static_cast<int>(i);
      const int e = en.thread_base[t] + static_cast<int>(i);
      en.node_event[en.node_base[t] + static_cast<int>(n)] = e;
      if (is_read(in)) en.read_nodes[t * en.V + in.var] |= 1ULL << n;
      if (en.ev_kind[e] == kEvFenceFull || en.ev_push[e]) {
        en.publish_nodes[t] |= 1ULL << n;
      }
      ++n;
    }
  }
  en.node_base[t + 1] = en.node_base[t] + static_cast<int>(n);

  // pred[b] bit a set <=> node a must commit before node b.
  std::uint64_t* pred = en.node_pred + en.node_base[t];
  std::memset(pred, 0, n * sizeof(std::uint64_t));
  const auto add_edge = [pred](std::size_t a, std::size_t b) {
    pred[b] |= 1ULL << a;
  };
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const std::size_t i = static_cast<std::size_t>(node_instr[a]);
      const std::size_t j = static_cast<std::size_t>(node_instr[b]);
      const LitmusInstr& ii = thread.instrs[i];
      const LitmusInstr& jj = thread.instrs[j];
      // lwsync nodes float freely except against full barriers (handled by
      // must_commit_in_order's fence-node branch treating them as non-full).
      const bool i_lw = !is_access(ii) && ii.fence == FenceKind::LwSync;
      const bool j_lw = !is_access(jj) && jj.fence == FenceKind::LwSync;
      if (i_lw || j_lw) {
        // Keeping an lwsync ordered against *everything* is too strong;
        // instead keep it merely after prior accesses and before later
        // writes, which matches its cumulativity trigger without
        // constraining the store->load pairs it permits to reorder.
        if (i_lw && !j_lw) {
          if (is_write(jj)) add_edge(a, b);  // lwsync before later writes
        } else if (j_lw && !i_lw) {
          if (is_read(ii)) add_edge(a, b);   // prior reads before lwsync
          if (is_write(ii)) add_edge(a, b);  // prior writes before lwsync
        } else {
          add_edge(a, b);  // fence-fence in order
        }
        continue;
      }
      if (must_commit_in_order(thread, i, j, arch)) add_edge(a, b);
    }
  }
}

// The threads that still have a read of `v` to commit.
std::uint32_t live_readers(const Enumeration& en, const State& s, int v) {
  std::uint32_t readers = 0;
  for (int t = 0; t < en.T; ++t) {
    if (en.read_nodes[t * en.V + v] & ~s.done[t]) readers |= 1u << t;
  }
  return readers;
}

// The exact, position-free key of a state, packed into `en.key`; returns its
// width in words.  Done masks and registers first, then the memory.  Without
// forwarding the memory is the latest write per variable; with it, each
// write's coherence rank and visibility, each thread's observed writes and
// coherence floors.  A field no remaining event reads is packed as 0, so
// states that differ only there share a key: a thread's floor on a variable
// and its bit in the visibility of that variable's writes once it has no
// read of the variable left, and its observed writes once it has nothing
// left to publish them.
std::uint32_t pack_key(const Enumeration& en, const State& s) {
  KeyWriter kw{en.key};
  for (int t = 0; t < en.T; ++t) kw.put_wide(s.done[t], en.node_count(t));
  for (int r = 0; r < en.R; ++r) {
    kw.put(static_cast<std::uint32_t>(s.regs[r]), en.id_bits);
  }
  if (!en.forwarding) {
    for (int v = 0; v < en.V; ++v) {
      kw.put(static_cast<std::uint32_t>(s.last[v]), en.id_bits);
    }
  } else {
    for (int v = 0; v < en.V; ++v) en.readers[v] = live_readers(en, s, v);
    for (int w = 0; w < en.W; ++w) {
      kw.put(static_cast<std::uint32_t>(s.rank[w] + 1), en.id_bits);
      kw.put(s.vis[w] & en.readers[en.w_var[w]], en.T);
    }
    for (int t = 0; t < en.T; ++t) {
      kw.put((en.publish_nodes[t] & ~s.done[t]) ? s.seen[t] : 0, en.W);
      for (int v = 0; v < en.V; ++v) {
        const bool live = (en.readers[v] >> t) & 1u;
        kw.put(live ? static_cast<std::uint32_t>(s.floor[t * en.V + v] + 1) : 0,
               en.id_bits);
      }
    }
  }
  kw.flush();
  return static_cast<std::uint32_t>(kw.out - en.key);
}

// Cumulativity: every write in `writes` becomes visible to all threads.
inline void publish(const Enumeration& en, const State& s,
                    std::uint32_t writes) {
  for (; writes != 0; writes &= writes - 1) {
    s.vis[__builtin_ctz(writes)] = en.all_threads;
  }
}

// Commit event `e` of thread `t` into state `s`.  A forwarded write stays
// withheld from the threads in `withheld` until a push or their catch-up
// makes it visible.
void commit(const Enumeration& en, const State& s, int t, int e,
            std::uint32_t withheld) {
  switch (en.ev_kind[e]) {
    case kEvWrite: {
      const int w = en.ev_slot[e];
      const int v = en.ev_var[e];
      if (en.forwarding) {
        s.rank[w] = s.last[v] != 0 ? s.rank[s.last[v] - 1] + 1 : 0;
        s.vis[w] = en.all_threads & ~withheld;
        s.seen[t] |= 1u << w;
        // Writes this thread had observed before a WW-ordering fence (or
        // this release store) propagate everywhere no later than this one.
        if (en.ev_push[e]) publish(en, s, s.seen[t]);
      }
      s.last[v] = w + 1;
      break;
    }
    case kEvRead: {
      const int v = en.ev_var[e];
      std::int32_t got = s.last[v];
      if (en.forwarding) {
        // The coherence-latest write that is visible to this thread or at
        // or below its coherence floor (the floor write always qualifies).
        std::int32_t& floor = s.floor[t * en.V + v];
        int best = -1;
        int best_rank = -1;
        for (int i = en.var_wbase[v]; i < en.var_wbase[v + 1]; ++i) {
          const int w = en.var_writes[i];
          const int rank = s.rank[w];
          if (rank > best_rank && (((s.vis[w] >> t) & 1u) || rank <= floor)) {
            best = w;
            best_rank = rank;
          }
        }
        got = best + 1;
        if (best >= 0) {
          if (best_rank > floor) floor = best_rank;
          s.seen[t] |= 1u << best;
        }
      }
      if (en.ev_reg[e] >= 0) s.regs[en.ev_reg[e]] = got;
      break;
    }
    case kEvFenceFull:
      if (en.forwarding) {
        // Cumulative group-A push of the thread's observed writes to
        // everyone, then catch-up of this thread on every committed write
        // (sync / dmb ish / mfence semantics).
        publish(en, s, s.seen[t]);
        for (int w = 0; w < en.W; ++w) {
          if (s.rank[w] >= 0) s.vis[w] |= 1u << t;
        }
      }
      break;
    default:
      break;  // weak fence node: no commit-time effect
  }
}

void record_outcome(Enumeration& en, const State& s) {
  const auto value = [&en](std::int32_t slot1) {
    return slot1 ? static_cast<std::uint32_t>(en.w_val[slot1 - 1]) : 0u;
  };
  for (int r = 0; r < en.R; ++r) en.outcome[r] = value(s.regs[r]);
  for (int v = 0; v < en.V; ++v) en.outcome[en.R + v] = value(s.last[v]);
  en.ws->outcomes.insert(en.outcome);
}

void expand(Enumeration& en, int depth);

// The state at `depth` was just reached: record it if final, else expand it
// unless an earlier path already did.
void visit(Enumeration& en, int depth) {
  const State s = en.state(depth);
  if (depth == en.N) {
    ++en.ws->leaves;
    record_outcome(en, s);
    return;
  }
  pack_key(en, s);
  if (!en.ws->visited.insert(en.key)) {
    ++en.ws->memo_hits;
    return;
  }
  ++en.ws->states;
  expand(en, depth);
}

// Every transition out of the state at `depth`: commit any ready node of any
// thread.  A forwarded write also chooses the threads it stays withheld
// from, among the other threads that still read its variable: withholding
// it from any other thread changes nothing later.
void expand(Enumeration& en, int depth) {
  const State s = en.state(depth);
  const std::byte* parent = reinterpret_cast<const std::byte*>(s.done);
  std::byte* child =
      en.blocks + static_cast<std::size_t>(depth + 1) * en.block_bytes;
  for (int t = 0; t < en.T; ++t) {
    const std::uint64_t done = s.done[t];
    const int count = en.node_count(t);
    const std::uint64_t all = count >= 64 ? ~0ULL : (1ULL << count) - 1;
    for (std::uint64_t ready = all & ~done; ready != 0; ready &= ready - 1) {
      const int k = __builtin_ctzll(ready);
      const int n = en.node_base[t] + k;
      if ((en.node_pred[n] & ~done) != 0) continue;
      const int e = en.node_event[n];
      const std::uint32_t choices =
          en.forwarding && en.ev_kind[e] == kEvWrite
              ? live_readers(en, s, en.ev_var[e]) & ~(1u << t)
              : 0;
      std::uint32_t withheld = 0;  // every subset of `choices`, ascending
      do {
        std::memcpy(child, parent, en.block_bytes);
        const State c = en.state(depth + 1);
        c.done[t] |= 1ULL << k;
        commit(en, c, t, e, withheld);
        visit(en, depth + 1);
        withheld = (withheld - choices) & choices;
      } while (withheld != 0);
    }
  }
}

}  // namespace

std::set<Outcome> enumerate_outcomes(const LitmusTest& test, Arch arch) {
  WMM_PROFILE_SPAN(obs::Phase::OpEnumerate);
  EnumWorkspace& ws = workspace();
  Arena& arena = ws.arena;
  ++ws.enumerations;
  // Reclaim the cycle on every exit path (including the too-large throws) so
  // the arena's next cycle starts clean.
  struct CycleGuard {
    Arena& a;
    ~CycleGuard() { a.reset(); }
  } guard{arena};

  Enumeration en;
  en.test = &test;
  en.ws = &ws;
  en.T = static_cast<int>(test.threads.size());
  en.V = test.num_vars;
  en.R = test.num_regs;

  // --- Flat event columns ---------------------------------------------------
  en.thread_base = arena.alloc<int>(static_cast<std::size_t>(en.T) + 1);
  int total = 0;
  for (int t = 0; t < en.T; ++t) {
    en.thread_base[t] = total;
    total += static_cast<int>(
        test.threads[static_cast<std::size_t>(t)].instrs.size());
  }
  en.thread_base[en.T] = total;

  const std::size_t ecount = static_cast<std::size_t>(total ? total : 1);
  en.ev_kind = arena.alloc<std::uint8_t>(ecount);
  en.ev_var = arena.alloc<int>(ecount);
  en.ev_reg = arena.alloc<int>(ecount);
  en.ev_slot = arena.alloc<int>(ecount);
  en.ev_push = arena.alloc<std::uint8_t>(ecount);
  en.w_val = arena.alloc<int>(ecount);
  en.w_var = arena.alloc<int>(ecount);
  const std::size_t vcount = static_cast<std::size_t>(en.V ? en.V : 1);
  en.var_wbase = arena.alloc_zero<int>(vcount + 1);

  for (int t = 0; t < en.T; ++t) {
    const auto& instrs = test.threads[static_cast<std::size_t>(t)].instrs;
    bool ww_fence_seen = false;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      const LitmusInstr& in = instrs[i];
      const int e = en.thread_base[t] + static_cast<int>(i);
      en.ev_var[e] = in.var;
      en.ev_reg[e] = in.reg;
      en.ev_slot[e] = -1;
      en.ev_push[e] = 0;
      if (is_write(in)) {
        en.ev_kind[e] = kEvWrite;
        en.ev_slot[e] = en.W;
        en.w_val[en.W] = in.value;
        en.w_var[en.W++] = in.var;
        ++en.var_wbase[in.var + 1];
        // Cumulativity trigger: this write commits after every group-A
        // access of any WW-ordering fence that program-precedes it; a
        // release store is itself cumulative the same way.
        en.ev_push[e] = (in.release || ww_fence_seen) ? 1 : 0;
      } else if (is_read(in)) {
        en.ev_kind[e] = kEvRead;
      } else {
        en.ev_kind[e] =
            is_full_barrier(in.fence) ? kEvFenceFull : kEvFenceOther;
        if (fence_order(in.fence).ww) ww_fence_seen = true;
      }
    }
  }
  // A forwarded write may be withheld from any subset of the other T-1
  // threads: a delay bit each.  Their total bounds the search (and T).
  en.forwarding = allows_early_forwarding(arch) && en.T > 1 && en.W > 0;
  if (en.forwarding && en.W * (en.T - 1) > 20) {
    throw std::invalid_argument("litmus test too large for delay enumeration");
  }
  for (int v = 0; v < en.V; ++v) en.var_wbase[v + 1] += en.var_wbase[v];
  en.var_writes = arena.alloc<int>(ecount);
  {
    int* fill = arena.alloc<int>(vcount);
    std::memcpy(fill, en.var_wbase, vcount * sizeof(int));
    for (int e = 0; e < total; ++e) {
      if (en.ev_slot[e] >= 0) {
        en.var_writes[fill[en.ev_var[e]]++] = en.ev_slot[e];
      }
    }
  }

  // --- Per-thread commit-order nodes ----------------------------------------
  en.node_base = arena.alloc<int>(static_cast<std::size_t>(en.T) + 1);
  en.node_base[0] = 0;
  en.node_event = arena.alloc<int>(ecount);
  en.node_pred = arena.alloc<std::uint64_t>(ecount);
  en.read_nodes = arena.alloc_zero<std::uint64_t>(
      static_cast<std::size_t>(en.T) * vcount);
  en.publish_nodes = arena.alloc_zero<std::uint64_t>(
      static_cast<std::size_t>(en.T ? en.T : 1));
  for (int t = 0; t < en.T; ++t) build_thread_orders(en, t, arch);
  en.N = en.node_base[en.T];

  // --- State blocks, key and outcome scratch --------------------------------
  const std::size_t T = static_cast<std::size_t>(en.T);
  const std::size_t W = en.forwarding ? static_cast<std::size_t>(en.W) : 0;
  const std::size_t TV = en.forwarding ? T * vcount : 0;
  constexpr std::size_t kWord = sizeof(std::int32_t);
  en.off_regs = T * sizeof(std::uint64_t);
  en.off_last = en.off_regs + static_cast<std::size_t>(en.R) * kWord;
  en.off_rank = en.off_last + static_cast<std::size_t>(en.V) * kWord;
  en.off_vis = en.off_rank + W * kWord;
  en.off_seen = en.off_vis + W * kWord;
  en.off_floor = en.off_seen + (en.forwarding ? T : 0) * kWord;
  en.block_bytes = (en.off_floor + TV * kWord + 7) & ~std::size_t{7};
  const std::size_t depths = static_cast<std::size_t>(en.N) + 1;
  en.blocks = reinterpret_cast<std::byte*>(arena.alloc_zero<std::uint64_t>(
      depths * en.block_bytes / sizeof(std::uint64_t) + 1));
  const State root = en.state(0);
  std::memset(root.rank, 0xFF, W * kWord);
  std::memset(root.floor, 0xFF, TV * kWord);

  en.all_threads = en.T >= 32 ? ~0u : (1u << en.T) - 1;
  en.id_bits = std::bit_width(static_cast<unsigned>(en.W));
  en.key = arena.alloc<std::uint32_t>(en.block_bytes / 4 + 1);
  en.readers = arena.alloc<std::uint32_t>(vcount);
  const std::uint32_t width = static_cast<std::uint32_t>(en.R + en.V);
  en.outcome = arena.alloc<std::uint32_t>(width ? width : 1);
  ws.visited.reset(pack_key(en, root));
  ws.outcomes.reset(width);

  visit(en, 0);

  // Unpack the deduplicated outcomes into the caller-facing sorted set (cold
  // path: one node per *distinct* outcome).
  std::set<Outcome> outcomes;
  for (std::uint32_t i = 0; i < ws.outcomes.size(); ++i) {
    const std::uint32_t* v = ws.outcomes.entry(i);
    Outcome o(width);
    for (std::uint32_t j = 0; j < width; ++j) {
      o[j] = static_cast<std::int32_t>(v[j]);
    }
    outcomes.insert(std::move(o));
  }
  return outcomes;
}

EnumArenaStats enumeration_arena_stats() {
  const EnumWorkspace& ws = workspace();
  const ArenaStats s = ws.arena.stats();
  EnumArenaStats out;
  out.reserved_bytes = s.reserved_bytes;
  out.high_water_bytes = s.high_water_bytes;
  out.visited_bytes = ws.visited.reserved_bytes();
  out.enumerations = ws.enumerations;
  out.states = ws.states;
  out.memo_hits = ws.memo_hits;
  out.leaves = ws.leaves;
  return out;
}

}  // namespace wmm::sim
