// Zero-cost-when-disabled scoped-span profiler.
//
// A span (`WMM_PROFILE_SPAN(Phase::X)`) measures the *real* (host) time a
// simulator code path takes — as opposed to the Chrome trace sink, which
// records *simulated* time.  When profiling is off (the default), a span is
// one relaxed atomic bool load and a branch; nothing else runs, so the hot
// paths carry the instrumentation permanently.  When on:
//
//  - each span feeds a per-phase latency histogram `prof.<phase>` in the
//    process-global HistogramRegistry (inclusive duration, ns);
//  - per-phase totals (count, inclusive ns, self ns) accumulate in the
//    Profiler for the `profile` JSONL record and BENCH_sim.json phase
//    shares.  Spans nest: a thread-local span stack attributes each parent's
//    self time as inclusive minus children, so shares sum sensibly;
//  - spans of >= 1 us are forwarded to the installed TraceSink as complete
//    slices under a dedicated "profiler (real time)" trace process, letting
//    one Perfetto load show simulated timelines next to host-time hot-loop
//    attribution.  (The floor keeps nanosecond-scale step spans from
//    flooding the sink's event caps.)
//
// Everything recorded here is wall-clock and scheduling-dependent, so none
// of it ever touches the deterministic counter registry: the `profile` and
// `histograms` records are excluded from byte-identity comparisons exactly
// like `throughput` (docs/schema.md), which is what keeps `--profile` runs
// bit-identical across --threads in the identity-checked record set.
//
// Compile-time kill switch: building with -DWMM_PROFILE_DISABLED compiles
// every WMM_PROFILE_SPAN to nothing.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "obs/histogram.h"

namespace wmm::obs {

// Instrumented phases.  One histogram and one totals slot per phase; names
// are stable identifiers used in JSONL records and BENCH_sim.json.
enum class Phase : std::uint8_t {
  MachineRun,   // sim.run        one Machine::run invocation
  MachineStep,  // sim.step       one SimThread::step dispatch
  SbDrain,      // sim.sb-drain   store-buffer push/drain + invq bookkeeping
  Coherence,    // sim.coherence  directory/bus traffic for a shared access
  OpEnumerate,  // op.enumerate   operational outcome-set enumeration
  AxCheck,      // ax.check       axiomatic_outcomes on SC, TSO, ARMv8
  AxPowerCheck, // ax.power       axiomatic_outcomes on POWER7
  PoolTask,     // pool.task      one pool task body (workers and helpers)
  PoolWave,     // pool.wave      one par_map fan-out, submit to last merge
};
inline constexpr std::size_t kNumPhases = 9;

const char* phase_name(Phase p);

namespace detail {
extern std::atomic<bool> g_profile_enabled;
}  // namespace detail

// The master switch.  Flipping it is not synchronised with in-flight spans:
// a span that observed "enabled" at construction records normally even if
// profiling is disabled before it closes.  Drivers toggle once around a run.
inline bool profile_enabled() {
  return detail::g_profile_enabled.load(std::memory_order_relaxed);
}
void set_profile_enabled(bool enabled);

// Monotonic host time in nanoseconds (steady_clock).
std::uint64_t profile_now_ns();

struct PhaseTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  // inclusive (children counted)
  std::uint64_t self_ns = 0;   // exclusive (children subtracted)
};

using PhaseSnapshot = std::array<PhaseTotals, kNumPhases>;

// `after - before`, fieldwise and saturating (for windowed attribution).
PhaseSnapshot phase_delta(const PhaseSnapshot& before,
                          const PhaseSnapshot& after);

class Profiler {
 public:
  // Called by closing spans (hot when enabled; never called when disabled).
  void record(Phase phase, std::uint64_t start_ns, std::uint64_t dur_ns,
              std::uint64_t self_ns);

  PhaseSnapshot snapshot() const;

  // Zeroes phase totals (the per-phase histograms are reset separately via
  // histograms().reset_values()).
  void reset();

 private:
  struct Slot {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> self_ns{0};
  };
  Slot slots_[kNumPhases];
};

Profiler& profiler();

// Scheduling-dependent pool metrics (src/par/pool.cpp feeds these).  They
// live beside the profiler — not in the counter registry — because steal
// counts, queue depths, and busy times depend on timing, and the counters
// record must stay bit-identical across thread counts.  Reported in the
// `profile` JSONL record's "pool" section.
struct PoolStats {
  std::atomic<std::uint64_t> tasks{0};        // tasks executed (all pools)
  std::atomic<std::uint64_t> steals{0};       // tasks taken from another deque
  std::atomic<std::uint64_t> waves{0};        // par_map fan-outs completed
  std::atomic<std::int64_t> queue_depth{0};   // tasks submitted, not yet run
  std::atomic<std::uint64_t> queue_depth_hwm{0};
  std::atomic<std::uint64_t> worker_busy_ns{0};  // task-body ns, all workers

  struct Snapshot {
    std::uint64_t tasks = 0;
    std::uint64_t steals = 0;
    std::uint64_t waves = 0;
    std::int64_t queue_depth = 0;
    std::uint64_t queue_depth_hwm = 0;
    std::uint64_t worker_busy_ns = 0;
  };
  Snapshot snapshot() const;
  void reset();

  void on_submit();   // queue-depth gauge up (+ high-water mark)
  void on_dequeue(bool stolen);  // gauge down, steal accounting
};

PoolStats& pool_stats();

#ifndef WMM_PROFILE_DISABLED

// RAII span.  Cheap to construct when profiling is off; when on, maintains
// the thread-local nesting stack for self-time attribution.
class ProfileSpan {
 public:
  explicit ProfileSpan(Phase phase) : phase_(phase) {
    if (!profile_enabled()) return;
    active_ = true;
    parent_ = t_current_;
    t_current_ = this;
    start_ns_ = profile_now_ns();
  }
  ~ProfileSpan() {
    if (active_) finish();
  }

  ProfileSpan(const ProfileSpan&) = delete;
  ProfileSpan& operator=(const ProfileSpan&) = delete;

 private:
  void finish();

  Phase phase_;
  bool active_ = false;
  std::uint64_t start_ns_ = 0;
  std::uint64_t child_ns_ = 0;
  ProfileSpan* parent_ = nullptr;
  // Constant-initialised inline thread_local: every TU sees the definition,
  // so access is a plain TLS slot with no wrapper call (as counters.h's
  // cache_).
  static inline constinit thread_local ProfileSpan* t_current_ = nullptr;
};

#define WMM_PROFILE_SPAN_CAT2(a, b) a##b
#define WMM_PROFILE_SPAN_CAT(a, b) WMM_PROFILE_SPAN_CAT2(a, b)
#define WMM_PROFILE_SPAN(phase) \
  ::wmm::obs::ProfileSpan WMM_PROFILE_SPAN_CAT(wmm_profile_span_, \
                                               __LINE__)(phase)

#else  // WMM_PROFILE_DISABLED

#define WMM_PROFILE_SPAN(phase) \
  do {                          \
  } while (false)

#endif  // WMM_PROFILE_DISABLED

}  // namespace wmm::obs
