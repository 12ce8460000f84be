// Shared pieces of the perfbench driver: run options, the result every
// workload fills, timing helpers and the output checks that are common to
// all workloads (simulated-statistics identity against ref/identity.txt).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string ref_dir = "perfbench/ref";
};

// What one run reports.  `metrics` holds end-to-end metrics when the run is
// untraced and per-layer metrics when it is traced; main() fills every name
// the workload leaves out with 0 (the layer does no work on this workload).
struct Result {
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  // human-readable lines, printed first

  void check(bool ok) {
    attempted += 1;
    if (!ok) failed += 1;
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);  // nearest-rank
double mean(const std::vector<double>& v);
double sum(const std::vector<double>& v);

// Host seconds of the reps of one timed phase, each rep split into parts
// that do the same work in every rep (one architecture, one chunk of
// programs).
struct RepTimes {
  std::vector<std::vector<double>> parts;  // [rep][part]

  std::size_t count() const { return parts.size(); }
  std::vector<double> totals() const;
  // Sum over parts of each part's median over the reps: the host seconds of
  // one rep, with a burst of host interference in one part of one rep voted
  // out.
  double wall_s() const;
  // "rep seconds: min / median / max over n reps", for the log.
  std::string summary() const;
};

// Runs `rep(i, parts)` for i = 0, 1, ... until `seconds` have passed (at
// least one rep; the last rep may overrun).  A rep appends the host seconds
// of each of its parts to `parts`; one that appends nothing is timed whole.
// The fixed host reference loop is timed once before the first rep.
RepTimes timed_reps(
    double seconds,
    const std::function<void(int, std::vector<double>& parts)>& rep);

// Median per-call host seconds of `setup`, called in batches sized so one
// batch takes at least a few milliseconds; at least `min_samples` batches
// and roughly `budget_s` seconds in all, rotating over the usable CPUs.
double measure_setup(const std::function<void()>& setup, int min_samples,
                     double budget_s);

// Fixed memory-bound reference loop (an L2-sized table walk); its time
// separates host drift from program change.
double host_reference_seconds();
// Every host reference time taken so far in this process.
const std::vector<double>& host_reference_samples();

// Pins the calling thread, and the threads it starts, to `count` usable
// CPUs starting at the `slot`-th (cyclically) until destroyed, then restores
// the previous mask.  Parts rotate their slot so a run samples every CPU:
// on a shared host one CPU can be steadily slower than the others, and a
// process that happened to land there would shift a whole run.
class ScopedCpus {
 public:
  ScopedCpus(std::size_t slot, int count);
  ~ScopedCpus();
  ScopedCpus(const ScopedCpus&) = delete;
  ScopedCpus& operator=(const ScopedCpus&) = delete;

 private:
  std::vector<unsigned char> saved_;  // the previous cpu_set_t, as bytes
};

// Process CPU seconds (user + system) and peak resident set size.
double process_cpu_seconds();
double peak_rss_mb();

// Runs `fn` and returns the nonzero `sim.*` counters it moved
// (obs::snapshot_delta: counters as differences, gauges as absolute values).
using CounterTotals = std::map<std::string, std::uint64_t>;
CounterTotals sim_counters_during(const std::function<void()>& fn);

// Simulated-statistics identity: the `sim.*` counter totals of one rep, plus
// the named extra values, must equal the workload's lines in
// ref/identity.txt.  Mismatches are reported on stderr in the file's own
// format so a deliberate change can re-record them.
bool identity_matches(const Options& options, const CounterTotals& counters,
                      const std::map<std::string, double>& extra = {});

// Workloads.
Result run_fig05_sweep(const Options& options);
Result run_litmus_family(const Options& options);
Result run_fuzz_diff(const Options& options);

}  // namespace perfbench
