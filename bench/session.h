// Bench-binary session: flag parsing, report output stream, and structured
// observability (JSONL records, Chrome trace, counters table) in one object.
//
// A binary constructs a Session first thing in main(); the session parses the
// common flags (plus any binary-specific FlagSpecs), prints the usual header
// unless --quiet, installs a process-wide trace sink when --trace is given,
// and snapshots the counter registry.  Results are recorded as they are
// produced; finalize() (idempotent, called by the destructor) writes the
// JSONL report — manifest first, then the records in emission order, then a
// counters record with the whole-run deltas, then `histograms`/`profile`
// records under --histograms/--profile — serialises the trace, and prints
// the counters table on --counters.
//
// Abnormal exits: an exception that escapes main() reaches std::terminate
// without unwinding, so the destructor alone would lose the report and the
// trace.  The first Session constructed installs a chained terminate handler
// that finalizes the active session (manifest gains "aborted":"true", the
// counters record still carries the deltas accumulated so far) before the
// previous handler aborts the process.
#pragma once

#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/harness.h"
#include "flags.h"
#include "obs/counters.h"
#include "obs/record.h"
#include "obs/trace.h"

namespace wmm::cache {
class ResultCache;
}  // namespace wmm::cache

namespace wmm::bench {

class Session {
 public:
  // Parses flags (may exit for --help / bad flags) and prints the header.
  Session(int argc, char** argv, std::string title, std::string paper_ref,
          std::vector<FlagSpec> extra_flags = {},
          core::RunOptions run_options = core::RunOptions{2, 6});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const CommonFlags& flags() const { return flags_; }

  // The human-readable report stream: std::cout, or a null stream under
  // --quiet.
  std::ostream& out() { return *out_; }

  // Extra manifest fields (e.g. "arch", "seed"); set before destruction.
  void set_extra(const std::string& key, const std::string& value);

  // Structured records, appended to the JSONL report in call order.
  void record_run(const std::string& context, const core::RunResult& result);
  void record_comparison(const std::string& context,
                         const std::string& benchmark, const std::string& base,
                         const std::string& test, const core::Comparison& cmp);
  void record_sweep(const std::string& context, const core::SweepResult& sweep);
  void record_throughput(const obs::Throughput& t);
  void record_litmus(const obs::LitmusVerdict& v);

  // Appends one pre-serialised JSONL record verbatim (no trailing newline),
  // for record types without a dedicated method (fence_synth's `synth`
  // records).
  void record_raw(const std::string& json_line);

  // The persistent result store opened for --cache=DIR, or nullptr when the
  // flag is absent.  Owned by the session; finalize() appends a `cache`
  // record with its end-of-run activity.
  cache::ResultCache* cache() const { return cache_.get(); }

  // Worker threads resolved from --threads (0 = hardware concurrency).
  int threads() const;

  // Seconds since the session started (monotonic).
  double elapsed_seconds() const;

  // Writes the JSONL report and the trace file and prints the counters
  // table.  Idempotent: the second and later calls do nothing, so the
  // destructor is a no-op after an explicit or terminate-handler call.
  void finalize();

 private:
  std::string binary_;
  std::string title_;
  std::string paper_ref_;
  std::string argv_joined_;
  core::RunOptions run_options_;
  CommonFlags flags_;
  std::map<std::string, std::string> extra_;
  std::vector<std::string> record_lines_;
  std::vector<obs::CounterRegistry::Entry> counters_before_;
  std::unique_ptr<obs::TraceSink> trace_;
  std::unique_ptr<cache::ResultCache> cache_;
  std::ostream* out_ = nullptr;
  std::unique_ptr<std::ostream> null_out_;
  double start_seconds_ = 0.0;
  bool finalized_ = false;
};

}  // namespace wmm::bench
