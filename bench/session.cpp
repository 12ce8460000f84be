#include "session.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <streambuf>

#include "bench_util.h"
#include "cache/store.h"
#include "core/report.h"
#include "obs/histogram.h"
#include "obs/profile.h"
#include "obs/record.h"
#include "par/pool.h"

namespace wmm::bench {

namespace {

// The session the terminate handler flushes.  Sessions are constructed in
// main() and not shared across threads; the handler is best-effort.
Session* g_active_session = nullptr;

// An uncaught exception calls std::terminate *without* unwinding, so the
// Session destructor never runs and the whole report would be lost.  The
// chained handler finalizes the active session (file writes persist through
// the subsequent abort) and then defers to the previous handler.
std::terminate_handler g_previous_terminate = nullptr;

[[noreturn]] void terminate_with_flush() {
  if (Session* s = g_active_session) {
    g_active_session = nullptr;
    s->set_extra("aborted", "true");
    s->finalize();
  }
  if (g_previous_terminate) g_previous_terminate();
  std::abort();
}

void install_terminate_handler() {
  static const bool once = [] {
    g_previous_terminate = std::set_terminate(&terminate_with_flush);
    return true;
  }();
  (void)once;
}

// Discards everything written to it (--quiet).
class NullBuffer : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
};

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

Session::Session(int argc, char** argv, std::string title,
                 std::string paper_ref, std::vector<FlagSpec> extra_flags,
                 core::RunOptions run_options)
    : binary_(argc > 0 ? basename_of(argv[0]) : "bench"),
      title_(std::move(title)),
      paper_ref_(std::move(paper_ref)),
      run_options_(run_options),
      flags_(parse_flags(argc, argv, title_, extra_flags)),
      start_seconds_(monotonic_seconds()) {
  for (int i = 0; i < argc; ++i) {
    if (i > 0) argv_joined_ += ' ';
    argv_joined_ += argv[i];
  }
  if (flags_.quiet) {
    static NullBuffer null_buffer;
    null_out_ = std::make_unique<std::ostream>(&null_buffer);
    out_ = null_out_.get();
  } else {
    out_ = &std::cout;
  }
  if (!flags_.trace_path.empty()) {
    trace_ = std::make_unique<obs::TraceSink>();
    obs::set_trace(trace_.get());
  }
  if (flags_.profile || flags_.histograms) {
    // Both flags run the span profiler (histograms are fed by spans); each
    // flag gates only its own JSONL record.
    obs::set_profile_enabled(true);
  }
  if (!flags_.cache_dir.empty()) {
    cache::CacheConfig cc;
    cc.root = flags_.cache_dir;
    cc.max_bytes =
        static_cast<std::uint64_t>(flags_.cache_max_mb) * 1024 * 1024;
    cache_ = std::make_unique<cache::ResultCache>(cc);
  }
  counters_before_ = obs::counters().snapshot(/*include_zero=*/false);
  g_active_session = this;
  install_terminate_handler();
  if (!flags_.quiet) print_header(title_, paper_ref_);
}

void Session::set_extra(const std::string& key, const std::string& value) {
  extra_[key] = value;
}

void Session::record_run(const std::string& context,
                         const core::RunResult& result) {
  record_lines_.push_back(
      obs::run_line(context, result, run_options_.cv_warn_threshold));
}

void Session::record_comparison(const std::string& context,
                                const std::string& benchmark,
                                const std::string& base,
                                const std::string& test,
                                const core::Comparison& cmp) {
  record_lines_.push_back(
      obs::comparison_line(context, benchmark, base, test, cmp));
}

void Session::record_sweep(const std::string& context,
                           const core::SweepResult& sweep) {
  record_lines_.push_back(obs::sweep_line(context, sweep));
}

void Session::record_throughput(const obs::Throughput& t) {
  record_lines_.push_back(obs::throughput_line(t));
}

void Session::record_litmus(const obs::LitmusVerdict& v) {
  record_lines_.push_back(obs::litmus_line(v));
}

void Session::record_raw(const std::string& json_line) {
  record_lines_.push_back(json_line);
}

int Session::threads() const {
  return flags_.threads > 0 ? flags_.threads : par::default_threads();
}

double Session::elapsed_seconds() const {
  return monotonic_seconds() - start_seconds_;
}

void Session::finalize() {
  if (finalized_) return;
  finalized_ = true;
  if (g_active_session == this) g_active_session = nullptr;

  const double wall_clock_s = monotonic_seconds() - start_seconds_;
  const std::vector<obs::CounterRegistry::Entry> deltas = obs::snapshot_delta(
      counters_before_, obs::counters().snapshot(/*include_zero=*/false));
  if (flags_.profile || flags_.histograms) {
    obs::set_profile_enabled(false);
  }

  if (!flags_.json_path.empty()) {
    std::ofstream os(flags_.json_path);
    if (!os) {
      std::fprintf(stderr, "%s: cannot write %s\n", binary_.c_str(),
                   flags_.json_path.c_str());
    } else {
      obs::Manifest m;
      m.binary = binary_;
      m.title = title_;
      m.paper_ref = paper_ref_;
      m.argv = argv_joined_;
      m.run_options = run_options_;
      m.wall_clock_s = wall_clock_s;
      m.extra = extra_;
      os << obs::manifest_line(m) << '\n';
      for (const std::string& line : record_lines_) os << line << '\n';
      os << obs::counters_line(deltas) << '\n';
      if (cache_) {
        const cache::CacheStats cs = cache_->stats();
        const cache::ResultCache::Usage usage = cache_->usage();
        obs::CacheActivity ca;
        ca.root = flags_.cache_dir;
        ca.schema_hash = cache_->schema();
        ca.hits = cs.hits;
        ca.misses = cs.misses;
        ca.writes = cs.writes;
        ca.evictions = cs.evictions;
        ca.corrupt = cs.corrupt;
        ca.entries = usage.entries;
        ca.bytes = usage.bytes;
        os << obs::cache_line(ca) << '\n';
      }
      if (flags_.histograms) {
        os << obs::histograms_line(obs::histograms().snapshot()) << '\n';
      }
      if (flags_.profile) {
        os << obs::profile_line(obs::profiler().snapshot(),
                                obs::pool_stats().snapshot())
           << '\n';
      }
      os.flush();
    }
  }

  if (trace_) {
    obs::set_trace(nullptr);
    std::ofstream os(flags_.trace_path);
    if (!os) {
      std::fprintf(stderr, "%s: cannot write %s\n", binary_.c_str(),
                   flags_.trace_path.c_str());
    } else {
      trace_->write(os);
      os.flush();
    }
    if (trace_->truncated()) {
      std::fprintf(stderr,
                   "%s: trace truncated at %zu events (caps keep memory "
                   "bounded)\n",
                   binary_.c_str(), trace_->event_count());
    }
  }

  if (flags_.counters) {
    core::Table table({"counter", "value"});
    for (const obs::CounterRegistry::Entry& e : deltas) {
      table.add_row({e.name + (e.is_gauge ? " (hwm)" : ""),
                     std::to_string(e.value)});
    }
    std::cout << "\nsimulator event counters (this run):\n";
    table.print(std::cout);
    std::cout.flush();
  }
}

Session::~Session() { finalize(); }

}  // namespace wmm::bench
