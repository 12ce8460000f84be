// perf_trajectory: the repo's tracked simulator-performance record.
//
// Runs a pinned workload matrix — a fixed-seed fuzz corpus and the
// deterministic litmus-family corpus through all three outcome engines
// (operational enumeration, single-axiom axiomatic, Herding-Cats POWER),
// plus the Figure-5 JVM workload suite through the timing simulator (the
// Machine hot loop: sim.run/sim.step/sim.sb-drain/sim.coherence phases) — at
// 1 and 8 worker threads, with the span profiler on, and writes
// BENCH_sim.json: a machine manifest, litmus-programs/sec per cell, and
// per-phase time shares and percentile latencies from the profiler
// histograms.  `report_diff --bench` gates CI on the committed baseline.
//
// Every input is pinned (seeds, program counts, engine options), so two runs
// on the same machine differ only by wall-clock noise; each cell runs
// --repeats times (default 2) and reports the fastest repeat, which damps
// the worst of CI-runner jitter.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/histogram.h"
#include "obs/profile.h"
#include "obs/record.h"
#include "session.h"
#include "sim/axiomatic.h"
#include "sim/fuzz.h"
#include "sim/litmus_family.h"
#include "sim/memory_model.h"
#include "sim/rng.h"

namespace {

using namespace wmm;

constexpr std::uint64_t kSeed = 0x5eedbe2016ULL;

// One engine = one way to turn a litmus program into an outcome set.
struct Engine {
  const char* name;
  std::function<std::size_t(const sim::LitmusTest&)> run;  // -> |outcomes|
};

std::vector<Engine> engines() {
  return {
      {"operational",
       [](const sim::LitmusTest& t) {
         return sim::enumerate_outcomes(t, sim::Arch::ARMV8).size();
       }},
      {"axiomatic",
       [](const sim::LitmusTest& t) {
         return sim::axiomatic_outcomes(t, sim::Arch::ARMV8, {}).size();
       }},
      {"hc-power",
       [](const sim::LitmusTest& t) {
         return sim::axiomatic_outcomes(t, sim::Arch::POWER7, {}).size();
       }},
  };
}

// One corpus = a deterministic program list.  The fuzz corpus is shaped per
// engine family (POWER-shaped programs for the POWER oracle, whose candidate
// enumeration is exponential in write/observer pairs) exactly like the fuzz
// CI gate; the family corpus is the diy7-style cycle enumeration.
std::vector<sim::LitmusTest> fuzz_corpus(int count, sim::Arch shape) {
  const sim::FuzzConfig config = sim::FuzzConfig::for_arch(shape);
  std::vector<sim::LitmusTest> tests;
  tests.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    tests.push_back(sim::generate_litmus(
        sim::hash_combine(kSeed, static_cast<std::uint64_t>(i)), config));
  }
  return tests;
}

std::vector<sim::LitmusTest> family_corpus(std::size_t limit) {
  sim::FamilyOptions options;
  options.limit = limit;
  std::vector<sim::LitmusTest> tests;
  for (sim::FamilyProgram& p : sim::generate_families(options)) {
    tests.push_back(std::move(p.test));
  }
  return tests;
}

struct PhaseReport {
  std::string name;
  obs::PhaseTotals totals;
  double share = 0.0;  // self time / sum of self times this cell
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
};

struct Cell {
  std::string corpus;
  std::string engine;
  int threads = 0;
  std::size_t programs = 0;
  std::size_t outcomes = 0;
  double wall_s = 0.0;  // fastest repeat
  std::vector<PhaseReport> phases;
};

// Runs one (corpus, engine, threads) cell --repeats times and keeps the
// fastest repeat's wall clock and profile.  The profiler registries are
// process-global, so they are reset before each repeat to scope the phase
// attribution to this cell.  `run_item(i)` processes one of `n` work items
// and returns its outcome count.
Cell run_cell(const std::string& corpus_name, const std::string& engine_name,
              std::size_t n, const std::function<std::size_t(int)>& run_item,
              int threads, int repeats) {
  Cell cell;
  cell.corpus = corpus_name;
  cell.engine = engine_name;
  cell.threads = threads;
  cell.programs = n;
  for (int rep = 0; rep < std::max(1, repeats); ++rep) {
    obs::profiler().reset();
    obs::histograms().reset_values();
    obs::pool_stats().reset();
    const std::uint64_t start = obs::profile_now_ns();
    const std::vector<std::size_t> outcome_counts =
        bench::par_index_map(n, threads, run_item);
    const double wall_s =
        static_cast<double>(obs::profile_now_ns() - start) * 1e-9;
    if (rep > 0 && wall_s >= cell.wall_s) continue;
    cell.wall_s = wall_s;
    cell.outcomes = 0;
    for (std::size_t n : outcome_counts) cell.outcomes += n;
    cell.phases.clear();
    const obs::PhaseSnapshot phases = obs::profiler().snapshot();
    std::uint64_t self_sum = 0;
    for (const obs::PhaseTotals& t : phases) self_sum += t.self_ns;
    for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
      if (phases[i].count == 0) continue;
      PhaseReport r;
      r.name = obs::phase_name(static_cast<obs::Phase>(i));
      r.totals = phases[i];
      r.share = self_sum > 0 ? static_cast<double>(phases[i].self_ns) /
                                   static_cast<double>(self_sum)
                             : 0.0;
      const obs::HistogramSnapshot h =
          obs::histograms().snapshot_one("prof." + r.name);
      r.p50 = h.p50();
      r.p90 = h.p90();
      r.p99 = h.p99();
      cell.phases.push_back(std::move(r));
    }
  }
  return cell;
}

std::string bench_document(const std::vector<Cell>& cells, int repeats,
                           int fuzz_count, std::size_t family_count) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", obs::kSchemaVersion);
  w.key("generated").begin_object();
  w.kv("binary", "perf_trajectory");
  w.kv("git_sha", obs::build_git_sha());
  w.kv("compiler", obs::build_compiler());
  w.kv("timestamp", obs::current_timestamp_utc());
  w.kv("hardware_threads",
       static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.kv("repeats", repeats);
  w.kv("fuzz_count", fuzz_count);
  w.kv("family_count", static_cast<std::uint64_t>(family_count));
  w.kv("seed", static_cast<std::uint64_t>(kSeed));
  w.end_object();
  w.key("workloads").begin_array();
  for (const Cell& c : cells) {
    w.begin_object();
    w.kv("name", c.corpus);
    w.kv("engine", c.engine);
    w.kv("threads", c.threads);
    w.kv("programs", static_cast<std::uint64_t>(c.programs));
    w.kv("outcomes", static_cast<std::uint64_t>(c.outcomes));
    w.kv("wall_s", c.wall_s);
    w.kv("programs_per_s",
         c.wall_s > 0.0 ? static_cast<double>(c.programs) / c.wall_s : 0.0);
    w.key("phases").begin_object();
    for (const PhaseReport& p : c.phases) {
      w.key(p.name).begin_object();
      w.kv("count", p.totals.count);
      w.kv("total_ns", p.totals.total_ns);
      w.kv("self_ns", p.totals.self_ns);
      w.kv("share", p.share);
      w.kv("p50", p.p50);
      w.kv("p90", p.p90);
      w.kv("p99", p.p99);
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

void report_cell(bench::Session& session, const Cell& cell) {
  session.out() << "  " << cell.corpus << " x " << cell.engine << " @ t"
                << cell.threads << ": " << cell.programs << " programs in "
                << cell.wall_s << " s\n";
  obs::Throughput t;
  t.context = "perf/" + cell.corpus + "/" + cell.engine + "/t" +
              std::to_string(cell.threads);
  t.threads = cell.threads;
  t.programs = static_cast<long long>(cell.programs);
  t.outcomes = static_cast<long long>(cell.outcomes);
  t.wall_s = cell.wall_s;
  session.record_throughput(t);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_sim.json";
  int fuzz_count = 160;
  int family_limit = 160;
  int repeats = 2;
  const auto int_flag = [](int& target, int lo, int hi) {
    return [&target, lo, hi](const std::string& v) {
      char* end = nullptr;
      const long n = std::strtol(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || n < lo || n > hi) return false;
      target = static_cast<int>(n);
      return true;
    };
  };
  const std::vector<bench::FlagSpec> specs = {
      {"--out", "FILE", "output path (default BENCH_sim.json)",
       [&](const std::string& v) {
         out_path = v;
         return !v.empty();
       }},
      {"--fuzz-count", "N", "fuzz programs per corpus (default 160)",
       int_flag(fuzz_count, 1, 1000000)},
      {"--family-limit", "N", "litmus-family programs (default 160)",
       int_flag(family_limit, 1, 1000000)},
      {"--repeats", "N", "repeats per cell, fastest kept (default 2)",
       int_flag(repeats, 1, 100)},
  };
  bench::Session session(
      argc, argv, "perf_trajectory: pinned simulator perf matrix -> BENCH_sim.json",
      /*paper_ref=*/"", specs);

  // The matrix needs the profiler regardless of --profile (the percentile
  // latencies come from the span histograms).
  obs::set_profile_enabled(true);

  const std::vector<sim::LitmusTest> family =
      family_corpus(static_cast<std::size_t>(family_limit));
  const std::vector<Engine> all_engines = engines();
  const int thread_matrix[] = {1, 8};

  std::vector<Cell> cells;
  for (const Engine& engine : all_engines) {
    // POWER-shaped fuzz programs for the POWER oracle, ARM-shaped otherwise.
    const std::vector<sim::LitmusTest> fuzz = fuzz_corpus(
        fuzz_count, std::string(engine.name) == "hc-power" ? sim::Arch::POWER7
                                                           : sim::Arch::ARMV8);
    for (int threads : thread_matrix) {
      for (const auto* corpus : {&fuzz, &family}) {
        const std::string corpus_name = corpus == &fuzz ? "fuzz" : "family";
        const std::vector<sim::LitmusTest>& tests = *corpus;
        const Cell cell = run_cell(
            corpus_name, engine.name, tests.size(),
            [&](int i) {
              return engine.run(tests[static_cast<std::size_t>(i)]);
            },
            threads, repeats);
        report_cell(session, cell);
        cells.push_back(cell);
      }
    }
  }

  // Timing-simulator row: the Figure-5 JVM workloads through the Machine hot
  // loop (each profile run a few times so an 8-thread wave has work).
  {
    const std::vector<workloads::JvmWorkloadProfile>& profiles =
        workloads::jvm_profiles();
    const jvm::JvmConfig config = bench::jvm_base(sim::Arch::ARMV8);
    const std::size_t runs_per_profile = 4;
    const std::size_t n = profiles.size() * runs_per_profile;
    for (int threads : thread_matrix) {
      const Cell cell = run_cell(
          "jvm-suite", "timing-sim", n,
          [&](int i) {
            const auto& profile =
                profiles[static_cast<std::size_t>(i) % profiles.size()];
            workloads::run_jvm_workload(
                profile, config,
                sim::hash_combine(kSeed, static_cast<std::uint64_t>(i)));
            return std::size_t{1};
          },
          threads, repeats);
      report_cell(session, cell);
      cells.push_back(cell);
    }
  }

  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "perf_trajectory: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  os << bench_document(cells, repeats, fuzz_count, family.size()) << "\n";
  os.flush();
  session.out() << "wrote " << cells.size() << " workload cells to "
                << out_path << "\n";
  return 0;
}
