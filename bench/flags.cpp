#include "flags.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iostream>

#include "platform/platform.h"
#include "sim/arch.h"

namespace wmm::bench {

namespace {

// --list-sites: enumerate every registered platform's instrumentation sites
// (id, lowering per arch, current injection) as JSONL `sites` records (see
// docs/schema.md) and exit.  Shared by every bench binary through this
// parser, so any binary can answer "what code paths can I instrument?".
[[noreturn]] void list_sites() {
  platform::register_builtin_platforms();
  for (const std::string& name : platform::platform_names()) {
    const auto p = platform::make_platform(name, sim::Arch::ARMV8);
    std::cout << platform::sites_record_line(*p) << "\n";
  }
  std::exit(0);
}

}  // namespace

bool parse_u64(const std::string& text, std::uint64_t& value) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(text.c_str(), &end, 0);
  if (errno == ERANGE || *end != '\0') return false;
  value = n;
  return true;
}

namespace {

struct FlagHelp {
  std::string left;
  std::string help;
};

std::vector<FlagHelp> help_rows(const std::vector<FlagSpec>& extra) {
  std::vector<FlagHelp> rows;
  for (const FlagSpec& s : extra) {
    const std::string left =
        s.value_name.empty() ? s.name : s.name + "=" + s.value_name;
    rows.push_back({left, s.help});
  }
  rows.push_back({"--json=FILE", "write JSONL run records (manifest, runs, counters)"});
  rows.push_back({"--trace=FILE", "write a Chrome trace-event timeline (Perfetto-loadable)"});
  rows.push_back({"--counters", "print the simulator event counters at exit"});
  rows.push_back({"--profile",
                  "enable hot-loop profiler spans; adds a `profile` record to "
                  "--json and real-time spans to --trace"});
  rows.push_back({"--histograms",
                  "enable latency histograms; adds a `histograms` record to "
                  "--json"});
  rows.push_back({"--threads=N",
                  "worker threads for parallel drivers (default: hardware "
                  "concurrency; 1 = sequential; output is identical either "
                  "way)"});
  rows.push_back({"--cache=DIR",
                  "persistent content-addressed result store: warm re-runs "
                  "skip simulation for already-answered cells (records stay "
                  "byte-identical; counters/throughput differ)"});
  rows.push_back({"--cache-max-mb=N",
                  "result-store size bound in MiB before least-recently-used "
                  "entries are evicted (default 256)"});
  rows.push_back({"--quiet", "suppress the human-readable report"});
  rows.push_back({"--list-sites",
                  "print each platform's instrumentation sites as JSONL "
                  "`sites` records and exit"});
  rows.push_back({"--help", "show this help"});
  return rows;
}

}  // namespace

void print_usage(std::ostream& os, const std::string& program,
                 const std::string& title, const std::vector<FlagSpec>& extra) {
  os << title << "\n\nusage: " << program << " [options]\n\noptions:\n";
  const std::vector<FlagHelp> rows = help_rows(extra);
  std::size_t width = 0;
  for (const FlagHelp& r : rows) width = std::max(width, r.left.size());
  for (const FlagHelp& r : rows) {
    os << "  " << r.left << std::string(width - r.left.size() + 2, ' ')
       << r.help << "\n";
  }
}

CommonFlags parse_flags(int argc, char** argv, const std::string& title,
                        const std::vector<FlagSpec>& extra) {
  CommonFlags out;
  const std::string program = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout, program, title, extra);
      std::exit(0);
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (name == "--json") {
      out.json_path = value;
    } else if (name == "--trace") {
      out.trace_path = value;
    } else if (name == "--counters") {
      out.counters = true;
    } else if (name == "--profile") {
      out.profile = true;
    } else if (name == "--histograms") {
      out.histograms = true;
    } else if (name == "--threads") {
      char* end = nullptr;
      const long n = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || n < 1 || n > 4096) {
        std::cerr << program << ": bad value for --threads: '" << value
                  << "'\n";
        std::exit(2);
      }
      out.threads = static_cast<int>(n);
    } else if (name == "--cache") {
      if (value.empty()) {
        std::cerr << program << ": --cache needs a directory (--cache=DIR)\n";
        std::exit(2);
      }
      out.cache_dir = value;
    } else if (name == "--cache-max-mb") {
      char* end = nullptr;
      const long n = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || n < 1 || n > 1048576) {
        std::cerr << program << ": bad value for --cache-max-mb: '" << value
                  << "'\n";
        std::exit(2);
      }
      out.cache_max_mb = static_cast<int>(n);
    } else if (name == "--quiet") {
      out.quiet = true;
    } else if (name == "--list-sites") {
      list_sites();
    } else {
      bool matched = false;
      for (const FlagSpec& s : extra) {
        if (s.name != name) continue;
        matched = true;
        if (!s.apply || !s.apply(value)) {
          std::cerr << program << ": bad value for " << name << ": '" << value
                    << "'\n";
          std::exit(2);
        }
        break;
      }
      if (!matched) {
        if (arg.rfind("--", 0) == 0) {
          std::cerr << program << ": unknown flag " << name
                    << " (try --help)\n";
          std::exit(2);
        }
        out.positional.push_back(arg);
      }
    }
  }
  return out;
}

}  // namespace wmm::bench
