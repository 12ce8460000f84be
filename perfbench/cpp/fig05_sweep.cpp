// fig05-sweep: core::SensitivityStudy::sweeps on the jvm platform exactly as
// fig05_openjdk_sweep runs it — 8 benchmarks x {ARMv8, POWER7}, cost sizes
// 2^0..2^8, 2 warm-ups + 6 samples — on 2 workers.  Inputs are the paper's,
// so the seed is unused.
//
// Output check: every cell's sweep points and fitted k must equal
// ref/fig05.txt (a copy of bench/baselines/fig05.jsonl), and each rep's
// `sim.*` counter totals must equal ref/identity.txt.
//
// Trace: a forwarding platform::Platform is handed to the study.  It times
// calibration() and make_benchmark() and returns a timing core::Benchmark
// wrapper, so every run_once is charged to its (arch, benchmark) cell from
// outside the library.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>

#include "bench.h"
#include "platform/platform.h"
#include "platform/study.h"

namespace perfbench {
namespace {

using namespace wmm;

constexpr int kWorkers = 2;
constexpr sim::Arch kArches[] = {sim::Arch::ARMV8, sim::Arch::POWER7};

struct RefCell {
  std::string arch;
  std::string benchmark;
  double k_paper = 0.0;  // EXPERIMENTS.md Figure 5, paper column
  core::SweepResult sweep;
};

std::vector<RefCell> read_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<RefCell> cells;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    RefCell cell;
    std::string k_paper, k;
    std::size_t n = 0;
    fields >> cell.arch >> cell.benchmark >> k_paper >> k >> n;
    cell.k_paper = std::strtod(k_paper.c_str(), nullptr);
    cell.sweep.fit.k = std::strtod(k.c_str(), nullptr);
    for (std::size_t i = 0; i < n; ++i) {
      std::string cost, rel;
      fields >> cost >> rel;
      cell.sweep.points.push_back({std::strtod(cost.c_str(), nullptr),
                                   std::strtod(rel.c_str(), nullptr)});
    }
    if (!fields) throw std::runtime_error("malformed line in " + path);
    cells.push_back(std::move(cell));
  }
  return cells;
}

struct Inputs {
  std::vector<std::unique_ptr<platform::Platform>> platforms;  // kArches order
  core::SweepStudyConfig config;
  std::vector<RefCell> ref;
};

Inputs set_up(const Options& options) {
  platform::register_builtin_platforms();
  Inputs in;
  for (sim::Arch arch : kArches) {
    in.platforms.push_back(platform::make_platform("jvm", arch));
  }
  in.config.code_paths = {{"all-barriers", {}}};
  in.config.max_exponent = 8;
  in.config.runs = core::RunOptions{2, 6};
  in.ref = read_reference(options.ref_dir + "/fig05.txt");
  return in;
}

// --- Tracing wrappers ---------------------------------------------------------

// Everything charged to one (arch, benchmark) sweep cell.
struct CellTrace {
  std::mutex mutex;  // guards the fields below
  Clock::time_point first{};
  Clock::time_point last{};
  double calibration_s = 0.0;
  std::vector<double> run_once_s;    // host seconds per call
  std::vector<double> simulated_ns;  // what each call returned

  double busy_s() const {
    return std::chrono::duration<double>(last - first).count();
  }
  void touch(Clock::time_point start, Clock::time_point end) {
    if (first == Clock::time_point{} || start < first) first = start;
    if (end > last) last = end;
  }
};

// The cells of one traced study run.  calibration() carries no benchmark
// name, so its time waits on its thread until that thread's next
// make_benchmark() names the cell.
class Tracer {
 public:
  CellTrace& cell(int arch, const std::string& benchmark) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<CellTrace>& slot = cells_[{arch, benchmark}];
    if (!slot) slot = std::make_unique<CellTrace>();
    return *slot;
  }
  const std::map<std::pair<int, std::string>, std::unique_ptr<CellTrace>>&
  cells() const {
    return cells_;
  }

 private:
  std::mutex mutex_;  // guards cells_
  std::map<std::pair<int, std::string>, std::unique_ptr<CellTrace>> cells_;
};

struct PendingCalibration {
  Clock::time_point start{};
  double seconds = 0.0;
  bool set = false;
};
thread_local PendingCalibration t_pending;

class TimingBenchmark final : public core::Benchmark {
 public:
  TimingBenchmark(core::BenchmarkPtr inner, CellTrace& cell)
      : inner_(std::move(inner)), cell_(cell) {}

  std::string name() const override { return inner_->name(); }

  double run_once(std::uint64_t sample_index) override {
    const Clock::time_point start = Clock::now();
    const double ns = inner_->run_once(sample_index);
    const Clock::time_point end = Clock::now();
    std::lock_guard<std::mutex> lock(cell_.mutex);
    cell_.run_once_s.push_back(std::chrono::duration<double>(end - start).count());
    cell_.simulated_ns.push_back(ns);
    cell_.touch(start, end);
    return ns;
  }

 private:
  core::BenchmarkPtr inner_;
  CellTrace& cell_;
};

class TracingPlatform final : public platform::Platform {
 public:
  TracingPlatform(platform::Platform& inner, Tracer& tracer, int arch_index)
      : inner_(inner), tracer_(tracer), arch_index_(arch_index) {}

  std::string name() const override { return inner_.name(); }
  sim::Arch arch() const override { return inner_.arch(); }
  const std::vector<platform::InstrumentationSite>& sites() const override {
    return inner_.sites();
  }
  sim::FenceKind lowering(const std::string& site_id,
                          sim::Arch target) const override {
    return inner_.lowering(site_id, target);
  }
  core::Injection injection(const std::string& site_id) const override {
    return inner_.injection(site_id);
  }
  void set_injection(const std::string& site_id,
                     const core::Injection& injection) override {
    inner_.set_injection(site_id, injection);
  }
  platform::SitePolicy policy() const override { return inner_.policy(); }
  std::vector<std::string> benchmarks() const override {
    return inner_.benchmarks();
  }
  std::vector<std::string> strategies() const override {
    return inner_.strategies();
  }

  core::BenchmarkPtr make_benchmark(
      const platform::BenchmarkRequest& request) const override {
    const Clock::time_point start = Clock::now();
    core::BenchmarkPtr benchmark = inner_.make_benchmark(request);
    const Clock::time_point end = Clock::now();
    CellTrace& cell = tracer_.cell(arch_index_, request.benchmark);
    {
      std::lock_guard<std::mutex> lock(cell.mutex);
      cell.touch(start, end);
      if (t_pending.set) {
        cell.calibration_s += t_pending.seconds;
        cell.touch(t_pending.start, end);
        t_pending.set = false;
      }
    }
    return std::make_unique<TimingBenchmark>(std::move(benchmark), cell);
  }

  core::CostFunctionCalibration calibration(unsigned max_exponent) const override {
    const Clock::time_point start = Clock::now();
    core::CostFunctionCalibration cal = inner_.calibration(max_exponent);
    t_pending = {start, seconds_since(start), true};
    return cal;
  }

 private:
  platform::Platform& inner_;
  Tracer& tracer_;
  int arch_index_;
};

// --- Reps ----------------------------------------------------------------------

// Rep `rep`: the whole Figure 5 study on both architectures.  The host
// seconds of each architecture's sweeps() call go to `part_s`.
std::vector<core::SweepResult> run_study(const Inputs& in, int workers,
                                         int rep, Tracer* tracer,
                                         std::vector<double>& part_s) {
  std::vector<core::SweepResult> out;
  for (std::size_t a = 0; a < in.platforms.size(); ++a) {
    // The study's pool threads inherit this mask.
    const ScopedCpus pin(static_cast<std::size_t>(rep) + a, workers);
    const Clock::time_point start = Clock::now();
    std::unique_ptr<TracingPlatform> traced;
    const platform::Platform* target = in.platforms[a].get();
    if (tracer) {
      traced = std::make_unique<TracingPlatform>(*in.platforms[a], *tracer,
                                                 static_cast<int>(a));
      target = traced.get();
    }
    core::SensitivityStudy study(*target, workers);
    std::vector<core::SweepResult> sweeps = study.sweeps(in.config);
    part_s.push_back(seconds_since(start));
    for (core::SweepResult& sweep : sweeps) out.push_back(std::move(sweep));
  }
  return out;
}

bool same_sweep(const core::SweepResult& got, const core::SweepResult& want) {
  if (got.fit.k != want.fit.k || got.points.size() != want.points.size()) {
    return false;
  }
  for (std::size_t i = 0; i < got.points.size(); ++i) {
    if (got.points[i].cost_ns != want.points[i].cost_ns ||
        got.points[i].rel_perf != want.points[i].rel_perf) {
      return false;
    }
  }
  return true;
}

// One item per cell: sweep points and fitted k equal to the reference.
void check_cells(const Inputs& in, const std::vector<core::SweepResult>& got,
                 Result& result) {
  for (std::size_t i = 0; i < in.ref.size(); ++i) {
    const bool ok = i < got.size() && got[i].benchmark == in.ref[i].benchmark &&
                    same_sweep(got[i], in.ref[i].sweep);
    if (!ok) {
      std::cerr << "perfbench: fig05 cell " << in.ref[i].arch << '/'
                << in.ref[i].benchmark << " differs from the reference\n";
    }
    result.check(ok);
  }
  if (got.size() != in.ref.size()) result.check(false);
}

double k_error_vs_paper(const Inputs& in,
                        const std::vector<core::SweepResult>& got) {
  std::vector<double> err;
  for (std::size_t i = 0; i < in.ref.size() && i < got.size(); ++i) {
    err.push_back(std::fabs(got[i].fit.k - in.ref[i].k_paper) / in.ref[i].k_paper);
  }
  return mean(err);
}

struct TracedRep {
  double wall_s = 0.0;
  double cells = 0.0;
  std::vector<double> busy_s;
  std::vector<double> call_s;
  double run_once_s = 0.0;
  double calibration_s = 0.0;
  double fit_other_s = 0.0;
  double simulated_ns = 0.0;
  CounterTotals counters;
};

TracedRep traced_rep(const Inputs& in, int workers, int index,
                     const Options& options, std::vector<double>& part_s,
                     Result& result) {
  Tracer tracer;
  TracedRep rep;
  std::vector<core::SweepResult> sweeps;
  rep.counters = sim_counters_during(
      [&] { sweeps = run_study(in, workers, index, &tracer, part_s); });
  rep.wall_s = sum(part_s);
  check_cells(in, sweeps, result);

  // Sum simulated time in a fixed order so the total repeats bit for bit.
  std::vector<double> simulated;
  for (const auto& [key, cell] : tracer.cells()) {
    rep.cells += 1;
    const double busy = cell->busy_s();
    const double run_once = sum(cell->run_once_s);
    rep.busy_s.push_back(busy);
    rep.call_s.insert(rep.call_s.end(), cell->run_once_s.begin(),
                      cell->run_once_s.end());
    rep.run_once_s += run_once;
    rep.calibration_s += cell->calibration_s;
    rep.fit_other_s += busy - run_once - cell->calibration_s;
    std::vector<double> ns = cell->simulated_ns;
    std::sort(ns.begin(), ns.end());
    simulated.push_back(sum(ns));
  }
  rep.simulated_ns = sum(simulated);
  result.check(identity_matches(options, rep.counters,
                                {{"simulated_ns", rep.simulated_ns}}));
  return rep;
}

}  // namespace

Result run_fig05_sweep(const Options& options) {
  Result result;
  const double setup_s = measure_setup([&] { set_up(options); }, 15, 0.5);
  const Inputs in = set_up(options);

  // Untraced timed phase.
  std::vector<core::SweepResult> first;
  double cpu_s = 0.0;
  const RepTimes walls = timed_reps(options.seconds, [&](int i, auto& parts) {
    std::vector<core::SweepResult> sweeps;
    const double cpu0 = process_cpu_seconds();
    const CounterTotals counters = sim_counters_during(
        [&] { sweeps = run_study(in, kWorkers, i, nullptr, parts); });
    cpu_s += process_cpu_seconds() - cpu0;
    check_cells(in, sweeps, result);
    result.check(identity_matches(options, counters));
    if (i == 0) first = std::move(sweeps);
  });
  const double wall_s = walls.wall_s();
  char note[256];
  std::snprintf(note, sizeof note,
                "fig05-sweep: %zu reps of 16 cells (8 benchmarks x 2 arches, "
                "9 sizes, 2+6 runs) on %d workers",
                walls.count(), kWorkers);
  result.notes.push_back(note);
  result.notes.push_back(walls.summary());

  if (!options.trace) {
    result.metrics["wall_s"] = wall_s;
    result.metrics["setup_s"] = setup_s;
    result.metrics["peak_rss_mb"] = peak_rss_mb();
    return result;
  }

  // Traced phase on 2 workers, then one traced pass on 1 worker.
  std::vector<TracedRep> reps;
  const RepTimes traced = timed_reps(options.seconds, [&](int i, auto& parts) {
    reps.push_back(traced_rep(in, kWorkers, i, options, parts, result));
  });
  std::vector<double> one_parts;
  const TracedRep one = traced_rep(in, 1, 0, options, one_parts, result);

  auto per_rep = [&](double TracedRep::*field) {
    std::vector<double> v;
    for (const TracedRep& r : reps) v.push_back(r.*field);
    return v;
  };
  std::vector<double> busy, calls;
  for (const TracedRep& r : reps) {
    busy.insert(busy.end(), r.busy_s.begin(), r.busy_s.end());
    calls.insert(calls.end(), r.call_s.begin(), r.call_s.end());
  }
  const double traced_wall = mean(per_rep(&TracedRep::wall_s));
  const double run_once_s = mean(per_rep(&TracedRep::run_once_s));
  const double calibration_s = mean(per_rep(&TracedRep::calibration_s));
  const double fit_other_s = mean(per_rep(&TracedRep::fit_other_s));
  const double simulated_s = reps.front().simulated_ns * 1e-9;
  const double per_call_2w = sum(calls) / static_cast<double>(calls.size());
  const double per_call_1w =
      sum(one.call_s) / static_cast<double>(one.call_s.size());

  auto& m = result.metrics;
  m["trace.wall_s"] = traced_wall;
  m["trace.workers"] = kWorkers;
  // Worker time outside every cell: pool waits, the per-arch wave barrier
  // and each cell's final fit.  layers + remainder = workers x wall.
  m["trace.remainder_s"] =
      kWorkers * traced_wall - run_once_s - calibration_s - fit_other_s;
  m["obs.trace_overhead"] = traced.wall_s() / wall_s - 1.0;
  m["platform.cells"] = reps.front().cells;
  m["platform.cell_busy_p50_s"] = median(busy);
  m["platform.cell_busy_max_s"] = quantile(busy, 1.0);
  m["core.run_once_calls"] = static_cast<double>(reps.front().call_s.size());
  m["core.run_once_s"] = run_once_s;
  m["core.run_once_p50_us"] = median(calls) * 1e6;
  m["core.run_once_p99_us"] = quantile(calls, 0.99) * 1e6;
  m["core.calibration_s"] = calibration_s;
  m["core.fit_other_s"] = fit_other_s;
  m["core.run_once_inflation"] = per_call_2w / per_call_1w;
  m["core.k_err_vs_paper"] = k_error_vs_paper(in, first);
  m["sim.simulated_s"] = simulated_s;
  m["sim.host_per_simulated"] = run_once_s / simulated_s;
  m["par.cpu_s"] = cpu_s / static_cast<double>(walls.count());
  m["par.scaling"] = one.wall_s / traced.wall_s();
  const CounterTotals& counters = reps.front().counters;
  for (const char* name : {"sim.machine.runs", "sim.sb.stores",
                           "sim.coherence.misses", "sim.invq.drains",
                           "sim.branch.executed"}) {
    const auto it = counters.find(name);
    m[name] = it == counters.end() ? 0.0 : static_cast<double>(it->second);
  }
  return result;
}

}  // namespace perfbench
