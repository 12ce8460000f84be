#include <sched.h>
#include <sys/resource.h>

#include <cstring>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "obs/counters.h"

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q == 0.5 && v.size() % 2 == 0) {
    return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
  }
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

std::vector<double> RepTimes::totals() const {
  std::vector<double> out;
  for (const std::vector<double>& rep : parts) out.push_back(sum(rep));
  return out;
}

double RepTimes::wall_s() const {
  double total = 0.0;
  for (std::size_t k = 0; k < parts.front().size(); ++k) {
    std::vector<double> part;
    for (const std::vector<double>& rep : parts) part.push_back(rep.at(k));
    total += median(part);
  }
  return total;
}

std::string RepTimes::summary() const {
  const std::vector<double> t = totals();
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "rep seconds: min %.4f / median %.4f / max %.4f over %zu reps",
                quantile(t, 0.0), median(t), quantile(t, 1.0), t.size());
  return buf;
}

RepTimes timed_reps(
    double seconds,
    const std::function<void(int, std::vector<double>& parts)>& rep) {
  host_reference_seconds();
  RepTimes times;
  const Clock::time_point phase = Clock::now();
  for (int i = 0; i == 0 || seconds_since(phase) < seconds; ++i) {
    std::vector<double> parts;
    const Clock::time_point start = Clock::now();
    rep(i, parts);
    if (parts.empty()) parts.push_back(seconds_since(start));
    times.parts.push_back(std::move(parts));
  }
  return times;
}

double measure_setup(const std::function<void()>& setup, int min_samples,
                     double budget_s) {
  // One untimed call pays the process's first-use costs (registries, page
  // faults); the batches then time the steady per-set-up cost.
  Clock::time_point start = Clock::now();
  setup();
  const double first = std::max(seconds_since(start), 1e-9);
  const int batch = std::max(1, static_cast<int>(2e-3 / first));
  std::vector<double> per_call;
  const Clock::time_point phase = Clock::now();
  while (static_cast<int>(per_call.size()) < min_samples ||
         (seconds_since(phase) < budget_s && per_call.size() < 400)) {
    const ScopedCpus pin(per_call.size(), 1);
    start = Clock::now();
    for (int i = 0; i < batch; ++i) setup();
    per_call.push_back(seconds_since(start) / batch);
  }
  return median(per_call);
}

namespace {
std::vector<double> g_host_ref;
}  // namespace

double host_reference_seconds() {
  // L2-sized (1 MiB) table walked by a multiplicative-hash index stream:
  // fixed work, no dependence on the program under test.  Allocated per call
  // and unmapped on return, so it does not inflate peak_rss_mb.
  std::vector<std::uint32_t> table(1u << 18, 1u);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < (1 << 22); ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::uint32_t& slot = table[(x >> 40) & (table.size() - 1)];
    acc += slot;
    slot = static_cast<std::uint32_t>(acc);
  }
  const double t = seconds_since(start);
  if (acc == 42) std::fputc(' ', stderr);  // keeps the loop observable
  g_host_ref.push_back(t);
  return t;
}

const std::vector<double>& host_reference_samples() { return g_host_ref; }

namespace {

std::vector<int> usable_cpu_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

}  // namespace

ScopedCpus::ScopedCpus(std::size_t slot, int count) {
  static const std::vector<int> cpus = usable_cpu_list();
  cpu_set_t old;
  CPU_ZERO(&old);
  if (cpus.empty() || sched_getaffinity(0, sizeof old, &old) != 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int i = 0; i < count; ++i) {
    CPU_SET(cpus[(slot + static_cast<std::size_t>(i)) % cpus.size()], &set);
  }
  if (sched_setaffinity(0, sizeof set, &set) != 0) return;
  saved_.resize(sizeof old);
  std::memcpy(saved_.data(), &old, sizeof old);
}

ScopedCpus::~ScopedCpus() {
  if (saved_.empty()) return;
  cpu_set_t old;
  std::memcpy(&old, saved_.data(), sizeof old);
  sched_setaffinity(0, sizeof old, &old);
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss over execve,
  // so a child would report its launcher's footprint when that is larger.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

CounterTotals sim_counters_during(const std::function<void()>& fn) {
  const auto before = wmm::obs::counters().snapshot();
  fn();
  const auto after = wmm::obs::counters().snapshot();
  CounterTotals out;
  for (const auto& e : wmm::obs::snapshot_delta(before, after)) {
    if (e.value != 0 && e.name.rfind("sim.", 0) == 0) out[e.name] = e.value;
  }
  return out;
}

bool identity_matches(const Options& options, const CounterTotals& counters,
                      const std::map<std::string, double>& extra) {
  CounterTotals want_counters;
  std::map<std::string, double> want_values;
  std::ifstream in(options.ref_dir + "/identity.txt");
  if (!in) {
    std::cerr << "perfbench: cannot read " << options.ref_dir
              << "/identity.txt\n";
    return false;
  }
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::string workload, kind, name, value;
    if (!(fields >> workload >> kind >> name >> value) || workload[0] == '#' ||
        workload != options.workload) {
      continue;
    }
    if (kind == "counter") want_counters[name] = std::stoull(value);
    if (kind == "value") want_values[name] = std::strtod(value.c_str(), nullptr);
  }

  bool ok = counters == want_counters;
  for (const auto& [name, value] : extra) {
    const auto it = want_values.find(name);
    ok = ok && it != want_values.end() && it->second == value;
  }
  if (!ok) {
    std::cerr << "perfbench: simulated statistics differ from "
              << options.ref_dir << "/identity.txt; observed:\n";
    for (const auto& [name, value] : counters) {
      std::cerr << options.workload << " counter " << name << ' ' << value
                << '\n';
    }
    char buf[64];
    for (const auto& [name, value] : extra) {
      std::snprintf(buf, sizeof buf, "%.17g", value);
      std::cerr << options.workload << " value " << name << ' ' << buf << '\n';
    }
  }
  return ok;
}

}  // namespace perfbench
