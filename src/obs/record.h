// Structured run records: one JSON object per line (JSONL).
//
// A report file starts with a manifest record describing the producing
// binary, build, and environment, followed by run/comparison/sweep records
// in emission order and (optionally) a final counters record with the
// simulator event counters accumulated over the whole run.  report_diff
// consumes these files; validate_record checks the schema both there and in
// the golden-schema tests.
//
// Schema v1.1 record types and required keys (v1 plus `histograms` and
// `profile`; v1 files remain valid):
//   manifest   : type, schema, binary, title, paper_ref, argv, git_sha,
//                compiler, timestamp, wall_clock_s, run_options
//   run        : type, context, name, n, mean, geomean, stddev, min, max,
//                ci95, cv, noisy, raw_times
//   comparison : type, context, benchmark, base, test, value, min, max,
//                ci95, significant
//   sweep      : type, context, benchmark, code_path, points, fit
//   sites      : type, platform, arch, injected_slots, sites (each entry:
//                id, slot, counter, lowering{arm,power,x86,sc},
//                injection{nops,loop_iterations,stack_spill})
//   counters   : type, values
//   throughput : type, context, threads, programs, outcomes, wall_s,
//                programs_per_s, outcomes_per_s, cache_hits, cache_misses,
//                cache_hit_rate
//   litmus     : type, name, dialect, source, operational{sc,tso,arm,power},
//                axiomatic{sc,tso,arm,power}, agree, expect_ok
//   histograms : type, values (each entry: count, sum, min, max, p50, p90,
//                p99, buckets as [bucket_index, count] pairs)       [v1.1]
//   profile    : type, phases (each entry: count, total_ns, self_ns),
//                pool{tasks, steals, waves, queue_depth,
//                queue_depth_hwm, worker_busy_ns}                   [v1.1]
//   cache      : type, root, schema_hash, hits, misses, writes,
//                evictions, corrupt, entries, bytes, hit_rate       [v1.1]
//   synth      : type, name, arch, mode, cost_model, slots, feasible,
//                assignment, cost_ns, ranked (each entry: assignment,
//                cost_ns), candidates, oracle_queries, pruned_correct,
//                pruned_incorrect                                   [v1.2]
//
// throughput, histograms, profile, and cache records carry wall-clock or
// storage-state measurements, so (like the manifest) they are
// excluded from byte-identity comparisons between runs; every other record
// type is deterministic for a fixed seed and configuration, independent of
// --threads and of a warm result cache.  synth records are identity-excluded
// like profile/throughput — their cost numbers depend on the cost-model
// configuration under study — but report_diff still compares the *recovered
// assignment* (name/arch/mode/cost_model -> assignment, feasible) exactly.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/harness.h"
#include "core/stats.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/profile.h"

namespace wmm::obs {

// Version written by manifest_line.  validate_record accepts any version in
// [kMinSchemaVersion, kSchemaVersion]: 1.1 added the histograms/profile
// records and 1.2 the synth record, neither changing any earlier record, so
// committed v1/v1.1 baselines stay valid.
inline constexpr double kSchemaVersion = 1.2;
inline constexpr double kMinSchemaVersion = 1.0;

struct Manifest {
  std::string binary;
  std::string title;
  std::string paper_ref;
  std::string argv;  // space-joined command line
  core::RunOptions run_options;
  double wall_clock_s = 0.0;
  // Free-form extra fields (e.g. "arch", "seed") appended as strings.
  std::map<std::string, std::string> extra;
};

// Build metadata baked in at compile time / taken at run time.
std::string build_git_sha();
std::string build_compiler();
std::string current_timestamp_utc();  // ISO 8601, second resolution

std::string manifest_line(const Manifest& m);

// `noisy` is cv > cv_warn_threshold (see RunOptions); the threshold used is
// recorded in the manifest's run_options.
std::string run_line(const std::string& context, const core::RunResult& result,
                     double cv_warn_threshold);

std::string comparison_line(const std::string& context,
                            const std::string& benchmark,
                            const std::string& base, const std::string& test,
                            const core::Comparison& cmp);

std::string sweep_line(const std::string& context,
                       const core::SweepResult& sweep);

std::string counters_line(const std::vector<CounterRegistry::Entry>& entries);

// Work-rate summary for a parallel driver.  `programs` counts the units
// processed (fuzzed programs, or measured sweep cells for the fig/tab
// binaries); cache fields are zero when the driver has no memo cache.
struct Throughput {
  std::string context;
  int threads = 0;
  long long programs = 0;
  long long outcomes = 0;
  double wall_s = 0.0;
  long long cache_hits = 0;
  long long cache_misses = 0;
};

std::string throughput_line(const Throughput& t);

// Cross-oracle verdicts for one `.litmus` test (bench/litmus_run).  The
// operational executor and the axiomatic oracles (single-axiom for
// sc/tso/arm, Herding-Cats for power) each answer "is the final-state
// condition reachable?" per architecture; `agree` is all four pairs
// matching, `expect_ok` that any wmm-expect directive matched the
// operational verdicts (true when the file carries none).  Deterministic
// for a fixed input, independent of --threads.
struct LitmusVerdict {
  std::string name;
  std::string dialect;  // "X86" or "AArch64"
  std::string source;   // "file", "suite", "family", or "fuzz"
  bool op_sc = false, op_tso = false, op_arm = false, op_power = false;
  bool ax_sc = false, ax_tso = false, ax_arm = false, ax_power = false;
  bool agree = false;
  bool expect_ok = true;
};

std::string litmus_line(const LitmusVerdict& v);

// End-of-run summary of a persistent result store (cache/store.h).  Plain
// integers rather than cache types so wmm_obs stays below wmm_cache in the
// link order.  Storage-state data: identity-excluded.
struct CacheActivity {
  std::string root;              // store directory
  std::uint64_t schema_hash = 0; // engine fingerprint entries are keyed by
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t entries = 0;     // on-disk entry count after the run
  std::uint64_t bytes = 0;       // on-disk bytes after the run
};

std::string cache_line(const CacheActivity& c);

// One fence-synthesis answer (bench/fence_synth):
// which assignment of fence instructions to the program's slots forbids the
// forbidden outcomes at minimal cost.  `assignment` is the slot-wise
// instruction list ("lwsync;isync", "none;none" when no fence is needed),
// "empty" for a slot-less program, or "infeasible"; `ranked` lists every correct assignment in ascending cost
// order when the full ranking was requested.  Cost-model-dependent data:
// identity-excluded, but the recovered assignment itself is diffed by
// report_diff.
struct SynthRecord {
  std::string name;        // litmus program name
  std::string arch;        // arch_name
  std::string mode;        // "exact" | "greedy"
  std::string cost_model;  // "vitro" | "vivo"
  int slots = 0;
  bool feasible = false;
  std::string assignment;
  double cost_ns = 0.0;
  std::vector<std::pair<std::string, double>> ranked;  // assignment -> cost
  std::uint64_t candidates = 0;
  std::uint64_t oracle_queries = 0;
  std::uint64_t pruned_correct = 0;
  std::uint64_t pruned_incorrect = 0;
};

std::string synth_line(const SynthRecord& r);

// Latency-histogram summaries (typically histograms().snapshot()).  Values
// are keyed by histogram name; buckets are emitted sparsely as
// [bucket_index, count] pairs.  Wall-clock data: identity-excluded.
std::string histograms_line(const std::vector<HistogramSnapshot>& hists);

// Profiler phase totals plus the scheduling-dependent pool metrics.  Phases
// with a zero count are omitted.  Wall-clock data: identity-excluded.
std::string profile_line(const PhaseSnapshot& phases,
                         const PoolStats::Snapshot& pool);

// Validates one parsed record against the schema above.  Returns an empty
// string when valid, otherwise a description of the first problem.
std::string validate_record(const JsonValue& record);

}  // namespace wmm::obs
