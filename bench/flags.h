// Tiny command-line flag parser shared by the bench binaries.
//
// Every binary accepts the common observability flags (--json, --trace,
// --counters, --quiet) plus --help; a binary with its own options passes
// them as FlagSpecs so they appear in --help output and parse uniformly.
// Flags are --name=VALUE (or bare --name for booleans); anything else is
// collected as a positional argument.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace wmm::bench {

struct FlagSpec {
  std::string name;        // including the leading dashes, e.g. "--arch"
  std::string value_name;  // e.g. "N"; empty for boolean flags
  std::string help;
  // Called with the flag's value ("" for booleans); returns false to reject.
  std::function<bool(const std::string& value)> apply;
};

struct CommonFlags {
  std::string json_path;   // --json=FILE : JSONL run records
  std::string trace_path;  // --trace=FILE: Chrome trace-event timeline
  bool counters = false;   // --counters  : print simulator counters at exit
  bool profile = false;    // --profile   : hot-loop profiler spans; emits a
                           //               `profile` record (and feeds --trace)
  bool histograms = false;  // --histograms: latency histograms; emits a
                            //               `histograms` record
  bool quiet = false;      // --quiet     : suppress the human-readable report
  int threads = 0;         // --threads=N : worker threads (0 = hardware
                           //               concurrency; 1 = sequential)
  std::string cache_dir;   // --cache=DIR : persistent content-addressed
                           //               result store (cache/store.h);
                           //               empty = caching off
  int cache_max_mb = 256;  // --cache-max-mb=N : store size bound before LRU
                           //               eviction kicks in
  std::vector<std::string> positional;
};

// Strict parse of an unsigned numeric flag value: decimal, 0x-hex or
// 0-octal, with no sign, whitespace or trailing characters and no overflow.
// Returns false (leaving `value` untouched) for anything else, so a FlagSpec
// can return the result and let parse_flags print its diagnostic.
bool parse_u64(const std::string& text, std::uint64_t& value);

// Prints the --help text for `title` with the common and extra flags.
void print_usage(std::ostream& os, const std::string& program,
                 const std::string& title, const std::vector<FlagSpec>& extra);

// Parses argv.  --help prints usage and exits 0; an unknown --flag or a
// rejected value prints a diagnostic and exits 2.
CommonFlags parse_flags(int argc, char** argv, const std::string& title,
                        const std::vector<FlagSpec>& extra = {});

}  // namespace wmm::bench
