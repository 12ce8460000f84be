// perfbench: the repository benchmark.  Runs one named workload for a fixed
// time, checks every output, and prints one JSON result as its last line:
//
//   perfbench --workload <fig05-sweep|litmus-family|fuzz-diff> --seed <n>
//             --seconds <s> --trace <0|1> [--ref-dir DIR] [--git-sha SHA]
//
// --trace 0 reports the end-to-end metrics; --trace 1 first repeats the
// untraced phase, then a traced phase, and reports the per-layer metrics.
// perfbench/run.py builds this binary from source and runs it; see
// perfbench/README.md for the workloads and metrics.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <algorithm>
#include <set>
#include <span>
#include <string>

#include "bench.h"

namespace {

using perfbench::Options;
using perfbench::Result;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks).
constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}};

constexpr MetricSpec kPerLayer[] = {
    {"trace.wall_s", "s"},
    {"trace.workers", "count"},
    {"trace.remainder_s", "s"},
    {"obs.trace_overhead", "ratio"},
    {"obs.host_ref_s", "s"},
    {"platform.cells", "count"},
    {"platform.cell_busy_p50_s", "s"},
    {"platform.cell_busy_max_s", "s"},
    {"core.run_once_calls", "count"},
    {"core.run_once_s", "s"},
    {"core.run_once_p50_us", "us"},
    {"core.run_once_p99_us", "us"},
    {"core.calibration_s", "s"},
    {"core.fit_other_s", "s"},
    {"core.run_once_inflation", "ratio"},
    {"core.k_err_vs_paper", "ratio"},
    {"sim.simulated_s", "s"},
    {"sim.host_per_simulated", "ratio"},
    {"par.cpu_s", "s"},
    {"par.scaling", "ratio"},
    {"sim.machine.runs", "count"},
    {"sim.sb.stores", "count"},
    {"sim.coherence.misses", "count"},
    {"sim.invq.drains", "count"},
    {"sim.branch.executed", "count"},
    {"sim.enumerate.sc_s", "s"},
    {"sim.enumerate.tso_s", "s"},
    {"sim.enumerate.arm_s", "s"},
    {"sim.enumerate.power_s", "s"},
    {"sim.enumerate.power_p50_ms", "ms"},
    {"sim.enumerate.power_p95_ms", "ms"},
    {"sim.axiomatic.sc_s", "s"},
    {"sim.axiomatic.tso_s", "s"},
    {"sim.axiomatic.arm_s", "s"},
    {"sim.axiomatic_power_s", "s"},
    {"sim.generate_families_s", "s"},
    {"sim.generate_litmus_s", "s"},
    {"sim.fuzz.canonical_key_s", "s"},
    {"sim.fuzz.memo_hit_ratio", "ratio"},
    {"sim.outcomes", "count"},
};

struct WorkloadSpec {
  const char* name;
  int workers;
  Result (*run)(const Options&);
};

constexpr WorkloadSpec kWorkloads[] = {
    {"fig05-sweep", 2, perfbench::run_fig05_sweep},
    {"litmus-family", 1, perfbench::run_litmus_family},
    {"fuzz-diff", 1, perfbench::run_fuzz_diff},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <fig05-sweep|litmus-family|"
               "fuzz-diff> --seed <n> --seconds <s> --trace <0|1> "
               "[--ref-dir DIR] [--git-sha SHA] [--list-metrics]\n";
  std::exit(2);
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string git_sha = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const MetricSpec& m : kEndToEnd) std::cout << "end_to_end " << m.name << ' ' << m.unit << '\n';
      for (const MetricSpec& m : kPerLayer) std::cout << "per_layer " << m.name << ' ' << m.unit << '\n';
      return 0;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--ref-dir") {
      options.ref_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace need valid values");
  }
  const WorkloadSpec* workload = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (!workload) usage("unknown workload '" + options.workload + "'");

  // A worker count above the usable hardware threads measures
  // oversubscription, not the program.
  const int cpus = usable_cpus();
  if (workload->workers > cpus) {
    std::cerr << "perfbench: " << workload->name << " needs "
              << workload->workers << " workers but only " << cpus
              << " hardware threads are usable; refusing to run\n";
    return 3;
  }

  Result result;
  try {
    result = workload->run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload->name << " failed: " << e.what()
              << '\n';
    return 1;
  }

  const double host_ref = perfbench::median(perfbench::host_reference_samples());
  if (options.trace) result.metrics["obs.host_ref_s"] = host_ref;

  std::set<std::string> known;
  std::string metrics;
  for (const MetricSpec& m : options.trace ? std::span<const MetricSpec>(kPerLayer)
                                                   : std::span<const MetricSpec>(kEndToEnd)) {
    known.insert(m.name);
    double v = result.metrics.count(m.name) ? result.metrics.at(m.name) : 0.0;
    if (!std::isfinite(v)) {
      std::cerr << "perfbench: metric " << m.name << " is not finite\n";
      return 1;
    }
    metrics += std::string(metrics.empty() ? "" : ", ") + '"' + m.name +
               "\": {\"value\": " + number(v) + ", \"unit\": \"" + m.unit + "\"}";
  }
  for (const auto& [name, value] : result.metrics) {
    if (!known.count(name)) {
      std::cerr << "perfbench: metric " << name << " is not declared\n";
      return 1;
    }
  }

  for (const std::string& note : result.notes) std::cout << note << '\n';
  const double fail_ratio = static_cast<double>(result.failed) /
                            static_cast<double>(std::max(1LL, result.attempted));
  std::cout << "fail_ratio " << number(fail_ratio) << " ratio (" << result.failed
            << " of " << result.attempted << " items failed their check)\n";
  std::cout << "{\"provenance\": {\"workload\": \"" << workload->name
            << "\", \"seed\": " << options.seed << ", \"seconds\": "
            << number(options.seconds) << ", \"trace\": " << options.trace
            << ", \"workers\": " << workload->workers << ", \"nproc\": " << cpus
            << ", \"compiler\": \"" << __VERSION__ << "\", \"git_sha\": \""
            << git_sha << "\", \"obs.host_ref_s\": " << number(host_ref)
            << "}}\n";
  std::cout << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": "
            << result.failed << ", \"metrics\": {" << metrics << "}}"
            << std::endl;
  return 0;
}
