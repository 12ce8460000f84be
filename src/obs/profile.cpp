#include "obs/profile.h"

#include <chrono>
#include <string>

#include "obs/trace.h"

namespace wmm::obs {

namespace detail {
std::atomic<bool> g_profile_enabled{false};
}  // namespace detail

namespace {

// Real-time profiler spans share the Chrome trace with simulated-time
// machine timelines; a dedicated pid far above any machine id keeps the two
// time bases in visibly separate tracks.
constexpr std::uint32_t kProfilerTracePid = 0xfffffffeu;
// Spans shorter than this stay out of the trace sink (histograms still see
// them): per-step spans are tens of ns and would trip the sink's event caps
// within one wave.
constexpr std::uint64_t kTraceMinSpanNs = 1000;

// ns origin for trace timestamps, latched on first enable so span ts values
// stay small enough for the double-precision microsecond axis.
std::atomic<std::uint64_t> g_epoch_ns{0};

std::uint32_t thread_trace_tid() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

struct PhaseInfo {
  const char* name;
  HistogramId histogram;
};

// Lazily registers the per-phase histograms on first use (cold).
const PhaseInfo& phase_info(Phase p) {
  static const std::array<PhaseInfo, kNumPhases> table = [] {
    constexpr const char* names[kNumPhases] = {
        "sim.run",      "sim.step",  "sim.sb-drain",
        "sim.coherence", "op.enumerate", "ax.check",
        "ax.power",     "pool.task", "pool.wave",
    };
    std::array<PhaseInfo, kNumPhases> t{};
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      t[i] = {names[i],
              histograms().register_histogram(std::string("prof.") + names[i])};
    }
    return t;
  }();
  return table[static_cast<std::size_t>(p)];
}

}  // namespace

const char* phase_name(Phase p) { return phase_info(p).name; }

void set_profile_enabled(bool enabled) {
  if (enabled) {
    // Resolve phase names/histogram ids and the epoch before any hot-path
    // span runs, so first-use registration never happens under a span.
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      phase_info(static_cast<Phase>(i));
    }
    std::uint64_t expected = 0;
    g_epoch_ns.compare_exchange_strong(expected, profile_now_ns(),
                                       std::memory_order_relaxed);
  }
  detail::g_profile_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t profile_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

PhaseSnapshot phase_delta(const PhaseSnapshot& before,
                          const PhaseSnapshot& after) {
  const auto sub = [](std::uint64_t a, std::uint64_t b) {
    return a > b ? a - b : 0;
  };
  PhaseSnapshot out{};
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    out[i].count = sub(after[i].count, before[i].count);
    out[i].total_ns = sub(after[i].total_ns, before[i].total_ns);
    out[i].self_ns = sub(after[i].self_ns, before[i].self_ns);
  }
  return out;
}

void Profiler::record(Phase phase, std::uint64_t start_ns,
                      std::uint64_t dur_ns, std::uint64_t self_ns) {
  Slot& s = slots_[static_cast<std::size_t>(phase)];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.total_ns.fetch_add(dur_ns, std::memory_order_relaxed);
  s.self_ns.fetch_add(self_ns, std::memory_order_relaxed);
  const PhaseInfo& info = phase_info(phase);
  histograms().record(info.histogram, dur_ns);
  if (dur_ns >= kTraceMinSpanNs) {
    if (TraceSink* t = trace()) {
      const std::uint64_t epoch = g_epoch_ns.load(std::memory_order_relaxed);
      t->complete(info.name, "profile", kProfilerTracePid, thread_trace_tid(),
                  static_cast<double>(start_ns - epoch),
                  static_cast<double>(dur_ns));
    }
  }
}

PhaseSnapshot Profiler::snapshot() const {
  PhaseSnapshot out{};
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    out[i].count = slots_[i].count.load(std::memory_order_relaxed);
    out[i].total_ns = slots_[i].total_ns.load(std::memory_order_relaxed);
    out[i].self_ns = slots_[i].self_ns.load(std::memory_order_relaxed);
  }
  return out;
}

void Profiler::reset() {
  for (Slot& s : slots_) {
    s.count.store(0, std::memory_order_relaxed);
    s.total_ns.store(0, std::memory_order_relaxed);
    s.self_ns.store(0, std::memory_order_relaxed);
  }
}

Profiler& profiler() {
  static Profiler p;
  return p;
}

PoolStats::Snapshot PoolStats::snapshot() const {
  Snapshot s;
  s.tasks = tasks.load(std::memory_order_relaxed);
  s.steals = steals.load(std::memory_order_relaxed);
  s.waves = waves.load(std::memory_order_relaxed);
  s.queue_depth = queue_depth.load(std::memory_order_relaxed);
  s.queue_depth_hwm = queue_depth_hwm.load(std::memory_order_relaxed);
  s.worker_busy_ns = worker_busy_ns.load(std::memory_order_relaxed);
  return s;
}

void PoolStats::reset() {
  tasks.store(0, std::memory_order_relaxed);
  steals.store(0, std::memory_order_relaxed);
  waves.store(0, std::memory_order_relaxed);
  queue_depth.store(0, std::memory_order_relaxed);
  queue_depth_hwm.store(0, std::memory_order_relaxed);
  worker_busy_ns.store(0, std::memory_order_relaxed);
}

void PoolStats::on_submit() {
  const std::int64_t depth =
      queue_depth.fetch_add(1, std::memory_order_relaxed) + 1;
  if (depth > 0) {
    const std::uint64_t d = static_cast<std::uint64_t>(depth);
    std::uint64_t cur = queue_depth_hwm.load(std::memory_order_relaxed);
    while (cur < d && !queue_depth_hwm.compare_exchange_weak(
                          cur, d, std::memory_order_relaxed)) {
    }
  }
}

void PoolStats::on_dequeue(bool stolen) {
  queue_depth.fetch_sub(1, std::memory_order_relaxed);
  if (stolen) steals.fetch_add(1, std::memory_order_relaxed);
}

PoolStats& pool_stats() {
  static PoolStats s;
  return s;
}

#ifndef WMM_PROFILE_DISABLED

void ProfileSpan::finish() {
  const std::uint64_t end_ns = profile_now_ns();
  const std::uint64_t dur_ns = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  const std::uint64_t self_ns = dur_ns > child_ns_ ? dur_ns - child_ns_ : 0;
  t_current_ = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += dur_ns;
  profiler().record(phase_, start_ns_, dur_ns, self_ns);
}

#endif  // WMM_PROFILE_DISABLED

}  // namespace wmm::obs
