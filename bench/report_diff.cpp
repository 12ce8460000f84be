// Compares two JSONL benchmark reports (as written by the bench binaries'
// --json flag) and exits non-zero on regression:
//
//   report_diff BASE.jsonl TEST.jsonl [--tol-k=F] [--tol-rel=F]
//               [--tol-counter=F] [--quiet]
//   report_diff --validate FILE.jsonl
//   report_diff --bench BASE_BENCH.json TEST_BENCH.json
//               [--tol-bench-rate=F] [--tol-bench-lat=F]
//
// Records are matched by identity — sweeps by (context, benchmark,
// code_path), comparisons by (context, benchmark, base, test), runs by
// (context, name), synth records by (name, arch, mode, cost_model) with the
// recovered assignment compared exactly (no tolerance; costs are ignored),
// counters by name — and their headline numbers compared
// within relative tolerances: fitted sensitivity k within --tol-k (default
// 10%), relative-performance values within --tol-rel (default 5%), counter
// values within --tol-counter (default 25%; counters drift with sampling
// noise only when run counts differ, so deterministic same-seed reports diff
// to zero).
//
// Exit codes:
//   0  reports match within tolerances
//   1  value drift beyond tolerance, or a counter missing from TEST
//   2  usage error
//   3  mismatched record sets: the sweep/comparison/run identities (the
//      sites and benchmarks covered) differ between the two reports, so a
//      value diff would compare different experiments.  Counters are exempt:
//      counters only in TEST are reported but tolerated (new experiments).
//
// Wall-clock record types — manifest, throughput, histograms, profile,
// cache — are schema-validated but never matched or compared: they are
// excluded from the identity sets (exit 3) and from value diffs alike,
// because their numbers vary run to run (and warm-vs-cold cache) by
// construction.
//
// --validate instead schema-checks every line of one file (exit 1 on the
// first invalid record).
//
// --bench compares two BENCH_sim.json perf-trajectory documents (written by
// bench/perf_trajectory).  Workloads are matched by (name, engine, threads);
// a workload present in only one document is a set mismatch (exit 3).  The
// checks are one-sided — only a throughput *drop* (programs_per_s below
// base * (1 - --tol-bench-rate), default 0.50) or a latency *rise* (a phase
// p99 above base * (1 + --tol-bench-lat), default 1.00) fails — so a faster
// build always passes.  Every failure names the workload, the metric, and
// the tolerance it broke.  Defaults are deliberately generous: the gate
// exists to catch order-of-magnitude regressions through CI jitter, not to
// benchmark precisely.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "flags.h"
#include "obs/record.h"

namespace {

using namespace wmm;

struct Report {
  std::map<std::string, double> sweeps;       // key -> fit.k
  std::map<std::string, double> comparisons;  // key -> value
  std::map<std::string, double> runs;         // key -> geomean
  std::map<std::string, double> counters;     // name -> value
  std::map<std::string, std::string> synths;  // key -> recovered assignment
  int records = 0;
};

double num(const obs::JsonValue& v, const char* key) {
  const obs::JsonValue* f = v.find(key);
  return f && f->is_number() ? f->number : 0.0;
}

std::string str(const obs::JsonValue& v, const char* key) {
  const obs::JsonValue* f = v.find(key);
  return f && f->is_string() ? f->string : std::string();
}

// Reads and schema-validates one report.  Returns nullopt (with a diagnostic
// on stderr) on parse or schema errors.
std::optional<Report> load(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "report_diff: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  Report r;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string error;
    const std::optional<obs::JsonValue> v = obs::parse_json(line, &error);
    if (!v) {
      std::fprintf(stderr, "%s:%d: JSON error: %s\n", path.c_str(), lineno,
                   error.c_str());
      return std::nullopt;
    }
    const std::string problem = obs::validate_record(*v);
    if (!problem.empty()) {
      std::fprintf(stderr, "%s:%d: invalid record: %s\n", path.c_str(), lineno,
                   problem.c_str());
      return std::nullopt;
    }
    ++r.records;
    const std::string type = str(*v, "type");
    // Wall-clock records (manifest, throughput, histograms, profile, cache)
    // are validated above but deliberately not bucketed: they never
    // participate in identity-set checks or value diffs.
    if (type == "sweep") {
      const std::string key = str(*v, "context") + "/" + str(*v, "benchmark") +
                              "/" + str(*v, "code_path");
      const obs::JsonValue* fit = v->find("fit");
      r.sweeps[key] = fit ? num(*fit, "k") : 0.0;
    } else if (type == "comparison") {
      const std::string key = str(*v, "context") + "/" + str(*v, "benchmark") +
                              "/" + str(*v, "base") + " -> " + str(*v, "test");
      r.comparisons[key] = num(*v, "value");
    } else if (type == "run") {
      r.runs[str(*v, "context") + "/" + str(*v, "name")] = num(*v, "geomean");
    } else if (type == "synth") {
      // synth cost numbers are cost-model data (identity-excluded), but the
      // *recovered assignment* is deterministic for a fixed problem: a
      // change there means the synthesizer now picks different fences.
      const std::string key = str(*v, "name") + "/" + str(*v, "arch") + "/" +
                              str(*v, "mode") + "/" + str(*v, "cost_model");
      const obs::JsonValue* feasible = v->find("feasible");
      const bool ok = feasible && feasible->is_bool() && feasible->boolean;
      r.synths[key] = (ok ? "" : "infeasible:") + str(*v, "assignment");
    } else if (type == "counters") {
      const obs::JsonValue* values = v->find("values");
      if (values) {
        for (const auto& [name, value] : values->object) {
          if (value.is_number()) r.counters[name] = value.number;
        }
      }
    }
  }
  return r;
}

// Relative deviation of b from a, symmetric in scale and safe at zero.
double rel_delta(double a, double b) {
  const double denom = std::max(std::abs(a), std::abs(b));
  return denom > 0.0 ? std::abs(a - b) / denom : 0.0;
}

struct DiffStats {
  int matched = 0;
  int failures = 0;
  int missing = 0;
  int extra = 0;
  int base_only = 0;  // identity mismatches: sweep/comparison/run records
  int test_only = 0;  // present in one report but not the other
  double worst = 0.0;
};

// `identity` marks the sections whose keys name the experiment itself
// (sweeps, comparisons, runs): a key present in only one report there means
// the reports cover different sites/benchmarks and the diff is meaningless,
// which is reported as a set mismatch (exit 3) rather than value drift.
void diff_section(const char* what, const std::map<std::string, double>& base,
                  const std::map<std::string, double>& test, double tol,
                  bool quiet, bool identity, DiffStats& stats) {
  for (const auto& [key, base_value] : base) {
    const auto it = test.find(key);
    if (it == test.end()) {
      if (identity) {
        std::fprintf(stderr, "MISMATCH %s %s (only in base)\n", what,
                     key.c_str());
        ++stats.base_only;
      } else {
        std::fprintf(stderr, "MISSING  %s %s (present only in base)\n", what,
                     key.c_str());
        ++stats.missing;
        ++stats.failures;
      }
      continue;
    }
    const double d = rel_delta(base_value, it->second);
    stats.worst = std::max(stats.worst, d);
    ++stats.matched;
    if (d > tol) {
      std::fprintf(stderr, "DRIFT    %s %s: %g -> %g (%.1f%% > %.1f%%)\n",
                   what, key.c_str(), base_value, it->second, d * 100.0,
                   tol * 100.0);
      ++stats.failures;
    } else if (!quiet && d > 0.0) {
      std::printf("ok       %s %s: %.2f%% within %.0f%%\n", what, key.c_str(),
                  d * 100.0, tol * 100.0);
    }
  }
  for (const auto& [key, value] : test) {
    if (!base.count(key)) {
      if (identity) {
        std::fprintf(stderr, "MISMATCH %s %s (only in test)\n", what,
                     key.c_str());
        ++stats.test_only;
      } else {
        if (!quiet) {
          std::printf("extra    %s %s (only in test)\n", what, key.c_str());
        }
        ++stats.extra;
      }
    }
  }
}

// Exact string comparison of recovered synth assignments: any difference is
// a failure (there is no tolerance on which fences a fix uses), and a key
// present in only one report is an identity mismatch like the other
// experiment-naming sections.
void diff_assignments(const std::map<std::string, std::string>& base,
                      const std::map<std::string, std::string>& test,
                      bool quiet, DiffStats& stats) {
  for (const auto& [key, base_value] : base) {
    const auto it = test.find(key);
    if (it == test.end()) {
      std::fprintf(stderr, "MISMATCH synth %s (only in base)\n", key.c_str());
      ++stats.base_only;
      continue;
    }
    ++stats.matched;
    if (base_value != it->second) {
      std::fprintf(stderr, "ASSIGN   synth %s: %s -> %s\n", key.c_str(),
                   base_value.c_str(), it->second.c_str());
      ++stats.failures;
    } else if (!quiet) {
      std::printf("ok       synth %s: %s\n", key.c_str(), base_value.c_str());
    }
  }
  for (const auto& [key, value] : test) {
    if (!base.count(key)) {
      std::fprintf(stderr, "MISMATCH synth %s (only in test)\n", key.c_str());
      ++stats.test_only;
    }
  }
}

int validate_file(const std::string& path) {
  const std::optional<Report> r = load(path);
  if (!r) return 1;
  std::printf("%s: %d records, schema valid\n", path.c_str(), r->records);
  return 0;
}

// --- --bench mode: BENCH_sim.json perf-trajectory gate ----------------------

struct BenchWorkload {
  double programs_per_s = 0.0;
  std::map<std::string, double> phase_p99;  // phase name -> p99 ns
};

// Workloads keyed "name/engine/tN".
std::optional<std::map<std::string, BenchWorkload>> load_bench(
    const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "report_diff: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  std::string error;
  const std::optional<obs::JsonValue> doc = obs::parse_json(text, &error);
  if (!doc) {
    std::fprintf(stderr, "%s: JSON error: %s\n", path.c_str(), error.c_str());
    return std::nullopt;
  }
  const obs::JsonValue* workloads = doc->find("workloads");
  if (!workloads || !workloads->is_array()) {
    std::fprintf(stderr, "%s: not a BENCH document (no 'workloads' array)\n",
                 path.c_str());
    return std::nullopt;
  }
  std::map<std::string, BenchWorkload> out;
  for (const obs::JsonValue& w : workloads->array) {
    if (!w.is_object()) {
      std::fprintf(stderr, "%s: workload entry is not an object\n",
                   path.c_str());
      return std::nullopt;
    }
    const std::string key = str(w, "name") + "/" + str(w, "engine") + "/t" +
                            std::to_string(static_cast<long long>(
                                num(w, "threads")));
    BenchWorkload& b = out[key];
    b.programs_per_s = num(w, "programs_per_s");
    if (const obs::JsonValue* phases = w.find("phases");
        phases && phases->is_object()) {
      for (const auto& [phase, v] : phases->object) {
        if (v.is_object()) b.phase_p99[phase] = num(v, "p99");
      }
    }
  }
  return out;
}

int bench_diff(const std::string& base_path, const std::string& test_path,
               double tol_rate, double tol_lat, bool quiet) {
  const auto base = load_bench(base_path);
  const auto test = load_bench(test_path);
  if (!base || !test) return 1;

  // Workload-set drift is a matrix change, not value drift: report the full
  // symmetric difference of workload keys so the failure names exactly which
  // rows appeared or disappeared (exit 3, see docs/schema.md).
  std::vector<std::string> only_base;
  std::vector<std::string> only_test;
  for (const auto& [key, w] : *base) {
    if (!test->count(key)) only_base.push_back(key);
  }
  for (const auto& [key, w] : *test) {
    if (!base->count(key)) only_test.push_back(key);
  }
  if (!only_base.empty() || !only_test.empty()) {
    const auto join = [](const std::vector<std::string>& keys) {
      std::string out;
      for (const std::string& k : keys) {
        if (!out.empty()) out += ", ";
        out += k;
      }
      return out;
    };
    if (!only_base.empty()) {
      std::fprintf(stderr, "MISMATCH workloads only in base: %s\n",
                   join(only_base).c_str());
    }
    if (!only_test.empty()) {
      std::fprintf(stderr, "MISMATCH workloads only in test: %s\n",
                   join(only_test).c_str());
    }
    std::fprintf(stderr,
                 "report_diff: mismatched workload sets (%zu difference(s)) "
                 "-- the BENCH documents cover different matrices, values "
                 "were not compared\n",
                 only_base.size() + only_test.size());
    return 3;
  }

  int matched = 0;
  int failures = 0;
  for (const auto& [key, b] : *base) {
    const BenchWorkload& t = test->at(key);
    ++matched;
    // Throughput gate, one-sided: only a drop beyond tolerance fails.
    if (b.programs_per_s > 0.0 &&
        t.programs_per_s < b.programs_per_s * (1.0 - tol_rate)) {
      std::fprintf(stderr,
                   "BENCH REGRESSION %s metric=programs_per_s base=%g test=%g "
                   "(-%.1f%% exceeds tolerance %.0f%%)\n",
                   key.c_str(), b.programs_per_s, t.programs_per_s,
                   (1.0 - t.programs_per_s / b.programs_per_s) * 100.0,
                   tol_rate * 100.0);
      ++failures;
    } else if (!quiet) {
      std::printf("ok       %s programs_per_s %g -> %g (tol %.0f%%)\n",
                  key.c_str(), b.programs_per_s, t.programs_per_s,
                  tol_rate * 100.0);
    }
    // Latency gate, one-sided: only a p99 rise beyond tolerance fails.
    // Phases present in just one document are structural differences in the
    // harness, reported but tolerated (e.g. a phase newly instrumented).
    for (const auto& [phase, base_p99] : b.phase_p99) {
      const auto it = t.phase_p99.find(phase);
      if (it == t.phase_p99.end()) {
        if (!quiet) {
          std::printf("note     %s phase %s only in base\n", key.c_str(),
                      phase.c_str());
        }
        continue;
      }
      if (base_p99 > 0.0 && it->second > base_p99 * (1.0 + tol_lat)) {
        std::fprintf(stderr,
                     "BENCH REGRESSION %s metric=phase.%s.p99 base=%gns "
                     "test=%gns (+%.1f%% exceeds tolerance %.0f%%)\n",
                     key.c_str(), phase.c_str(), base_p99, it->second,
                     (it->second / base_p99 - 1.0) * 100.0, tol_lat * 100.0);
        ++failures;
      }
    }
  }
  std::printf("report_diff --bench: %d workload(s) matched, %d regression(s)\n",
              matched, failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  double tol_k = 0.10;
  double tol_rel = 0.05;
  double tol_counter = 0.25;
  double tol_bench_rate = 0.50;
  double tol_bench_lat = 1.00;
  bool validate = false;
  bool bench = false;
  const auto tol_flag = [](double& target) {
    return [&target](const std::string& v) {
      char* end = nullptr;
      target = std::strtod(v.c_str(), &end);
      return end && *end == '\0' && target >= 0.0;
    };
  };
  const std::vector<bench::FlagSpec> specs = {
      {"--tol-k", "F", "relative tolerance on fitted k (default 0.10)",
       tol_flag(tol_k)},
      {"--tol-rel", "F",
       "relative tolerance on comparison/run values (default 0.05)",
       tol_flag(tol_rel)},
      {"--tol-counter", "F",
       "relative tolerance on event counters (default 0.25)",
       tol_flag(tol_counter)},
      {"--validate", "", "schema-check a single report and exit",
       [&](const std::string&) { return validate = true; }},
      {"--bench", "",
       "compare two BENCH_sim.json perf-trajectory documents (one-sided "
       "throughput/latency gate)",
       [&](const std::string&) { return bench = true; }},
      {"--tol-bench-rate", "F",
       "--bench: tolerated programs_per_s drop (default 0.50 = 50%)",
       tol_flag(tol_bench_rate)},
      {"--tol-bench-lat", "F",
       "--bench: tolerated phase-p99 rise (default 1.00 = 2x)",
       tol_flag(tol_bench_lat)},
  };
  const bench::CommonFlags flags = bench::parse_flags(
      argc, argv, "report_diff: compare two JSONL benchmark reports", specs);

  if (validate) {
    if (flags.positional.size() != 1) {
      std::fprintf(stderr, "usage: report_diff --validate FILE.jsonl\n");
      return 2;
    }
    return validate_file(flags.positional[0]);
  }
  if (bench) {
    if (flags.positional.size() != 2) {
      std::fprintf(stderr,
                   "usage: report_diff --bench BASE_BENCH.json "
                   "TEST_BENCH.json\n");
      return 2;
    }
    return bench_diff(flags.positional[0], flags.positional[1], tol_bench_rate,
                      tol_bench_lat, flags.quiet);
  }
  if (flags.positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: report_diff BASE.jsonl TEST.jsonl (see --help)\n");
    return 2;
  }

  const std::optional<Report> base = load(flags.positional[0]);
  const std::optional<Report> test = load(flags.positional[1]);
  if (!base || !test) return 1;

  DiffStats stats;
  diff_section("sweep.k", base->sweeps, test->sweeps, tol_k, flags.quiet,
               /*identity=*/true, stats);
  diff_section("comparison", base->comparisons, test->comparisons, tol_rel,
               flags.quiet, /*identity=*/true, stats);
  diff_section("run", base->runs, test->runs, tol_rel, flags.quiet,
               /*identity=*/true, stats);
  diff_section("counter", base->counters, test->counters, tol_counter,
               flags.quiet, /*identity=*/false, stats);
  diff_assignments(base->synths, test->synths, flags.quiet, stats);

  std::printf(
      "report_diff: %d matched, %d failures (%d missing), %d extra, worst "
      "drift %.2f%%\n",
      stats.matched, stats.failures, stats.missing, stats.extra,
      stats.worst * 100.0);
  if (stats.base_only + stats.test_only > 0) {
    std::fprintf(stderr,
                 "report_diff: mismatched record sets: %d record(s) only in "
                 "base, %d only in test -- the reports cover different "
                 "sites/benchmarks, values were not compared\n",
                 stats.base_only, stats.test_only);
    return 3;
  }
  return stats.failures == 0 ? 0 : 1;
}
