#include "sim/fuzz.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "cache/store.h"
#include "obs/counters.h"
#include "par/deterministic_map.h"
#include "par/pool.h"
#include "sim/axiomatic_power.h"
#include "sim/rng.h"

namespace wmm::sim {

namespace {

bool fz_is_access(const LitmusInstr& in) { return in.type != AccessType::Fence; }
bool fz_is_read(const LitmusInstr& in) { return in.type == AccessType::Read; }

std::string var_name(int var) {
  static const char* kNames[] = {"x", "y", "z", "u"};
  if (var >= 0 && var < 4) return kNames[var];
  return std::string("v") + std::to_string(var);
}

std::string instr_string(const LitmusInstr& in) {
  std::ostringstream os;
  if (in.type == AccessType::Fence) {
    os << "F " << fence_name(in.fence);
    return os.str();
  }
  if (fz_is_read(in)) {
    os << "R r" << in.reg << "<-" << var_name(in.var);
    if (in.acquire) os << " (acq)";
  } else {
    os << "W " << var_name(in.var) << "=" << in.value;
    if (in.release) os << " (rel)";
  }
  if (in.addr_dep >= 0) os << " (addr<-r" << in.addr_dep << ")";
  if (in.data_dep >= 0) os << " (data<-r" << in.data_dep << ")";
  if (in.ctrl_dep >= 0) os << " (ctrl<-r" << in.ctrl_dep << ")";
  return os.str();
}

}  // namespace

FuzzConfig FuzzConfig::for_arch(Arch arch) {
  FuzzConfig c;
  if (allows_early_forwarding(arch)) {
    // POWER programs stay small for two reasons.  The axiomatic oracle's
    // search prunes only the rf × co choices (each read's possible sources
    // times each location's coherence permutations) that close a cycle, so
    // its worst case still grows with them, and on POWER a candidate that
    // reaches OBSERVATION may try every orientation of its obligations.
    // And these shapes define the fixed-seed POWER corpora (CI's, the
    // teeth counts, perfbench's fuzz-diff inputs): changing a limit changes
    // every one of them.
    c.max_threads = 3;
    c.max_instrs_per_thread = 3;
    c.max_total_instrs = 6;
    c.max_total_writes = 3;
  }
  return c;
}

FuzzConfig FuzzConfig::power_teeth_sb() {
  FuzzConfig c = for_arch(Arch::POWER7);
  c.min_instrs_per_thread = 2;
  c.fence_probability = 0.5;
  c.dep_probability = 0.6;
  c.acquire_release_probability = 0.35;
  c.fence_alphabet = {FenceKind::LwSync, FenceKind::HwSync};
  c.max_vars = 2;
  return c;
}

FuzzConfig FuzzConfig::power_teeth_wrc() {
  FuzzConfig c = for_arch(Arch::POWER7);
  c.min_threads = 3;
  c.fence_probability = 0.4;
  c.dep_probability = 0.7;
  c.acquire_release_probability = 0.4;
  c.fence_alphabet = {FenceKind::LwSync, FenceKind::HwSync};
  c.max_vars = 2;
  return c;
}

LitmusTest generate_litmus(std::uint64_t seed, const FuzzConfig& config) {
  Rng rng(splitmix64(seed ^ 0xf022e85a11babe11ULL));
  LitmusTest test;
  {
    std::ostringstream name;
    name << "fuzz-0x" << std::hex << seed;
    test.name = name.str();
  }

  const int num_threads =
      config.min_threads +
      static_cast<int>(rng.next_below(static_cast<std::uint64_t>(
          config.max_threads - config.min_threads + 1)));
  test.num_vars = 1 + static_cast<int>(rng.next_below(
                          static_cast<std::uint64_t>(config.max_vars)));

  // Per-thread instruction budget, trimmed to the global cap.
  std::vector<int> sizes(static_cast<std::size_t>(num_threads));
  int total = 0;
  for (int& s : sizes) {
    s = config.min_instrs_per_thread +
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(
            config.max_instrs_per_thread - config.min_instrs_per_thread + 1)));
    total += s;
  }
  for (std::size_t t = sizes.size(); total > config.max_total_instrs && t > 0;) {
    --t;
    const int spare = std::min(total - config.max_total_instrs,
                               sizes[t] - config.min_instrs_per_thread);
    sizes[t] -= spare;
    total -= spare;
  }

  int writes_left = config.max_total_writes;
  int next_reg = 0;
  std::vector<int> values(static_cast<std::size_t>(test.num_vars), 0);

  for (int t = 0; t < num_threads; ++t) {
    LitmusThread thread;
    std::vector<int> earlier_read_regs;
    bool has_access = false;
    for (int i = 0; i < sizes[static_cast<std::size_t>(t)]; ++i) {
      LitmusInstr in;
      const bool last_slot_needs_access =
          !has_access && i + 1 == sizes[static_cast<std::size_t>(t)];
      if (!last_slot_needs_access && rng.next_bool(config.fence_probability) &&
          !config.fence_alphabet.empty()) {
        in = LitmusInstr::barrier(config.fence_alphabet[rng.next_below(
            config.fence_alphabet.size())]);
      } else {
        const int var =
            static_cast<int>(rng.next_below(static_cast<std::uint64_t>(test.num_vars)));
        if (writes_left > 0 && rng.next_bool(0.5)) {
          --writes_left;
          // Distinct values per location keep reads-from choices identifiable
          // in printed outcomes.
          in = LitmusInstr::write(var, ++values[static_cast<std::size_t>(var)]);
          if (rng.next_bool(config.acquire_release_probability)) {
            in.release = true;
          }
        } else {
          in = LitmusInstr::read(next_reg++, var);
          if (rng.next_bool(config.acquire_release_probability)) {
            in.acquire = true;
          }
        }
        // Dependency on an earlier read of this thread.
        if (!earlier_read_regs.empty() && rng.next_bool(config.dep_probability)) {
          const int src = earlier_read_regs[rng.next_below(earlier_read_regs.size())];
          const std::uint64_t kind = rng.next_below(3);
          if (fz_is_read(in)) {
            // Reads carry address or control dependencies.
            if (kind < 2) {
              in.addr_dep = src;
            } else {
              in.ctrl_dep = src;
            }
          } else {
            if (kind == 0) {
              in.addr_dep = src;
            } else if (kind == 1) {
              in.data_dep = src;
            } else {
              in.ctrl_dep = src;
            }
          }
        }
        if (fz_is_read(in)) earlier_read_regs.push_back(in.reg);
        has_access = true;
      }
      thread.instrs.push_back(in);
    }
    test.threads.push_back(std::move(thread));
  }
  test.num_regs = next_reg;
  return test;
}

std::string format_litmus(const LitmusTest& test) {
  std::ostringstream os;
  os << test.name << "  (vars=" << test.num_vars << " regs=" << test.num_regs
     << ")\n";
  for (std::size_t t = 0; t < test.threads.size(); ++t) {
    os << "  T" << t << ":";
    if (test.threads[t].instrs.empty()) os << "  (empty)";
    for (const LitmusInstr& in : test.threads[t].instrs) {
      os << "  " << instr_string(in) << ";";
    }
    os << "\n";
  }
  return os.str();
}

std::string format_outcome(const LitmusTest& test, const Outcome& outcome) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (int r = 0; r < test.num_regs &&
                  static_cast<std::size_t>(r) < outcome.size();
       ++r) {
    if (!first) os << ", ";
    first = false;
    os << "r" << r << "=" << outcome[static_cast<std::size_t>(r)];
  }
  for (int v = 0; v < test.num_vars; ++v) {
    const std::size_t i = static_cast<std::size_t>(test.num_regs + v);
    if (i >= outcome.size()) break;
    if (!first) os << ", ";
    first = false;
    os << var_name(v) << "=" << outcome[i];
  }
  os << "}";
  return os.str();
}

std::string Divergence::report() const {
  std::ostringstream os;
  os << "CONFORMANCE DIVERGENCE on " << arch_name(arch) << " (" << axiom
     << " check)\n";
  os << "  witness outcome " << format_outcome(shrunk, outcome)
     << ": operational=" << (operational_allowed ? "allowed" : "forbidden")
     << " axiomatic=" << (axiomatic_allowed ? "allowed" : "forbidden") << "\n";
  os << "  shrunk program:\n";
  std::istringstream prog(format_litmus(shrunk));
  for (std::string line; std::getline(prog, line);) {
    os << "    " << line << "\n";
  }
  if (seed != 0) {
    os << "  replay: fuzz_conformance --arch=" << arch_name(arch)
       << " --replay=0x" << std::hex << seed << std::dec << "\n";
  }
  return os.str();
}

namespace {

// check_conformance with the operational outcome set already in hand; the
// corpus driver enumerates it once per program (for outcome accounting) and
// reuses it here instead of paying for a second interleaving enumeration.
std::optional<Divergence> check_against_operational(
    const LitmusTest& test, Arch arch, const AxiomaticOptions& options,
    const std::set<Outcome>& operational) {
  Divergence d;
  d.arch = arch;
  d.original = test;
  d.shrunk = test;

  // Exact outcome-set equality on every architecture; on POWER7 a missing
  // operational outcome also names the axiom that forbade it.
  const std::set<Outcome> axiomatic = axiomatic_outcomes(test, arch, options);
  if (operational == axiomatic) return std::nullopt;
  const bool power = arch == Arch::POWER7;
  for (const Outcome& o : operational) {
    if (!axiomatic.count(o)) {
      d.axiom = power ? std::string("power-hc-exact/") +
                            power_axiom_name(
                                power_forbidding_axiom(test, o, options))
                      : "exact";
      d.outcome = o;
      d.operational_allowed = true;
      d.axiomatic_allowed = false;
      return d;
    }
  }
  for (const Outcome& o : axiomatic) {
    if (!operational.count(o)) {
      d.axiom = power ? "power-hc-exact" : "exact";
      d.outcome = o;
      d.operational_allowed = false;
      d.axiomatic_allowed = true;
      return d;
    }
  }
  return std::nullopt;  // unreachable
}

}  // namespace

std::optional<Divergence> check_conformance(const LitmusTest& test, Arch arch,
                                            const AxiomaticOptions& options) {
  return check_against_operational(test, arch, options,
                                   enumerate_outcomes(test, arch));
}

namespace {

// Remove references to registers that no longer have a defining read, then
// compact register and variable numbering; drops empty threads.
LitmusTest normalize(const LitmusTest& test) {
  LitmusTest out = test;
  out.threads.erase(
      std::remove_if(out.threads.begin(), out.threads.end(),
                     [](const LitmusThread& t) { return t.instrs.empty(); }),
      out.threads.end());

  std::vector<bool> reg_defined;
  std::vector<bool> var_used;
  auto note = [](std::vector<bool>& v, int i) {
    if (i < 0) return;
    if (static_cast<std::size_t>(i) >= v.size()) v.resize(static_cast<std::size_t>(i) + 1, false);
    v[static_cast<std::size_t>(i)] = true;
  };
  for (const LitmusThread& t : out.threads) {
    for (const LitmusInstr& in : t.instrs) {
      if (fz_is_read(in)) note(reg_defined, in.reg);
      if (fz_is_access(in)) note(var_used, in.var);
    }
  }
  auto defined = [&](int reg) {
    return reg >= 0 && static_cast<std::size_t>(reg) < reg_defined.size() &&
           reg_defined[static_cast<std::size_t>(reg)];
  };

  // Dependencies may only reference reads of the *same* thread; clear any
  // that went dangling (the executor would ignore them, but keeping them
  // makes shrunk programs confusing to read).
  for (LitmusThread& t : out.threads) {
    std::vector<bool> local(reg_defined.size(), false);
    for (LitmusInstr& in : t.instrs) {
      auto fix = [&](int& dep) {
        if (dep >= 0 && (!defined(dep) ||
                         static_cast<std::size_t>(dep) >= local.size() ||
                         !local[static_cast<std::size_t>(dep)])) {
          dep = -1;
        }
      };
      fix(in.addr_dep);
      fix(in.data_dep);
      fix(in.ctrl_dep);
      if (fz_is_read(in) && in.reg >= 0) local[static_cast<std::size_t>(in.reg)] = true;
    }
  }

  // Compact numbering.
  std::vector<int> reg_map(reg_defined.size(), -1);
  int next_reg = 0;
  for (std::size_t r = 0; r < reg_defined.size(); ++r) {
    if (reg_defined[r]) reg_map[r] = next_reg++;
  }
  std::vector<int> var_map(var_used.size(), -1);
  int next_var = 0;
  for (std::size_t v = 0; v < var_used.size(); ++v) {
    if (var_used[v]) var_map[v] = next_var++;
  }
  for (LitmusThread& t : out.threads) {
    for (LitmusInstr& in : t.instrs) {
      auto remap = [](const std::vector<int>& map, int& i) {
        if (i >= 0 && static_cast<std::size_t>(i) < map.size()) i = map[static_cast<std::size_t>(i)];
      };
      remap(reg_map, in.reg);
      remap(var_map, in.var);
      remap(reg_map, in.addr_dep);
      remap(reg_map, in.data_dep);
      remap(reg_map, in.ctrl_dep);
    }
  }
  out.num_regs = next_reg;
  out.num_vars = next_var;
  return out;
}

}  // namespace

LitmusTest shrink_divergent(const LitmusTest& test, Arch arch,
                            const AxiomaticOptions& options) {
  auto still_diverges = [&](const LitmusTest& t) {
    if (t.threads.empty()) return false;
    return check_conformance(t, arch, options).has_value();
  };
  LitmusTest current = normalize(test);
  if (!still_diverges(current)) return current;

  bool progress = true;
  while (progress) {
    progress = false;

    // Drop whole threads.
    for (std::size_t t = 0; t < current.threads.size() && current.threads.size() > 1; ++t) {
      LitmusTest candidate = current;
      candidate.threads.erase(candidate.threads.begin() + static_cast<std::ptrdiff_t>(t));
      candidate = normalize(candidate);
      if (still_diverges(candidate)) {
        current = candidate;
        progress = true;
        --t;
      }
    }

    // Drop single instructions.
    for (std::size_t t = 0; t < current.threads.size(); ++t) {
      for (std::size_t i = 0; i < current.threads[t].instrs.size(); ++i) {
        LitmusTest candidate = current;
        candidate.threads[t].instrs.erase(
            candidate.threads[t].instrs.begin() + static_cast<std::ptrdiff_t>(i));
        candidate = normalize(candidate);
        if (still_diverges(candidate)) {
          current = candidate;
          progress = true;
          if (i > 0) --i;
        }
      }
    }

    // Strip annotations (dependencies, acquire/release) one at a time.
    for (std::size_t t = 0; t < current.threads.size(); ++t) {
      for (std::size_t i = 0; i < current.threads[t].instrs.size(); ++i) {
        const LitmusInstr& in = current.threads[t].instrs[i];
        for (int field = 0; field < 5; ++field) {
          LitmusTest candidate = current;
          LitmusInstr& ci = candidate.threads[t].instrs[i];
          bool changed = false;
          switch (field) {
            case 0: changed = ci.addr_dep >= 0; ci.addr_dep = -1; break;
            case 1: changed = ci.data_dep >= 0; ci.data_dep = -1; break;
            case 2: changed = ci.ctrl_dep >= 0; ci.ctrl_dep = -1; break;
            case 3: changed = ci.acquire; ci.acquire = false; break;
            case 4: changed = ci.release; ci.release = false; break;
          }
          if (!changed) continue;
          candidate = normalize(candidate);
          if (still_diverges(candidate)) {
            current = candidate;
            progress = true;
          }
        }
        (void)in;
      }
    }
  }
  return current;
}

std::string canonical_program_key(const LitmusTest& test) {
  const std::size_t nt = test.threads.size();
  std::vector<int> perm(nt);
  std::iota(perm.begin(), perm.end(), 0);

  // Encode one thread ordering with encounter-order renumbering.  Fields are
  // raw bytes (all values are tiny); -1 maps to 0xff.
  const auto encode = [&](const std::vector<int>& order) {
    std::string enc;
    std::vector<int> var_map(static_cast<std::size_t>(test.num_vars), -1);
    std::vector<int> reg_map(static_cast<std::size_t>(test.num_regs), -1);
    // Per original variable: written values in encounter order.
    std::vector<std::vector<int>> val_seen(
        static_cast<std::size_t>(test.num_vars));
    int next_var = 0;
    int next_reg = 0;
    const auto byte = [&enc](int v) {
      enc.push_back(v < 0 ? static_cast<char>(0xff) : static_cast<char>(v));
    };
    const auto map_reg = [&](int reg) {
      if (reg < 0) return -1;
      int& m = reg_map[static_cast<std::size_t>(reg)];
      if (m < 0) m = next_reg++;
      return m;
    };
    for (int t : order) {
      for (const LitmusInstr& in :
           test.threads[static_cast<std::size_t>(t)].instrs) {
        if (in.type == AccessType::Fence) {
          byte(0x40 + static_cast<int>(in.fence));
          continue;
        }
        int& vm = var_map[static_cast<std::size_t>(in.var)];
        if (vm < 0) vm = next_var++;
        if (in.type == AccessType::Write) {
          std::vector<int>& seen = val_seen[static_cast<std::size_t>(in.var)];
          auto it = std::find(seen.begin(), seen.end(), in.value);
          if (it == seen.end()) {
            seen.push_back(in.value);
            it = seen.end() - 1;
          }
          byte(0x01);
          byte(vm);
          byte(1 + static_cast<int>(it - seen.begin()));
          byte(in.release ? 1 : 0);
        } else {
          byte(0x02);
          byte(vm);
          byte(map_reg(in.reg));
          byte(in.acquire ? 1 : 0);
        }
        byte(map_reg(in.addr_dep));
        byte(map_reg(in.data_dep));
        byte(map_reg(in.ctrl_dep));
      }
      byte(0x3f);  // thread separator
    }
    return enc;
  };

  std::string best = encode(perm);
  while (std::next_permutation(perm.begin(), perm.end())) {
    std::string enc = encode(perm);
    if (enc < best) best = std::move(enc);
  }
  return best;
}

namespace {

// The in-memory memo reports through the same `cache.*` counter names the
// persistent store uses (cache/store.cpp), so report_diff sees one coherent
// hit-rate surface: `cache.hit` counts programs answered without simulation
// (memo or store), `cache.miss` programs that were fully cross-checked.
struct MemoCounters {
  obs::CounterId hits;
  obs::CounterId misses;
};

const MemoCounters& memo_counters() {
  static const MemoCounters ids = {
      obs::counters().register_counter("cache.hit"),
      obs::counters().register_counter("cache.miss"),
  };
  return ids;
}

// Fully shrink and re-derive the witness for a divergence found at `seed`,
// mirroring the sequential driver's reporting.
Divergence finish_divergence(Divergence d, std::uint64_t seed,
                             const LitmusTest& test, Arch arch,
                             const AxiomaticOptions& options) {
  d.seed = seed;
  d.shrunk = shrink_divergent(test, arch, options);
  if (std::optional<Divergence> ds = check_conformance(d.shrunk, arch, options)) {
    d.outcome = ds->outcome;
    d.operational_allowed = ds->operational_allowed;
    d.axiomatic_allowed = ds->axiomatic_allowed;
    d.axiom = ds->axiom;
  }
  return d;
}

}  // namespace

std::string fuzz_cache_prefix(Arch arch, const FuzzConfig& config,
                              const AxiomaticOptions& options) {
  std::ostringstream os;
  os << arch_name(arch) << '|' << config.min_threads << ','
     << config.max_threads << ',' << config.min_instrs_per_thread << ','
     << config.max_instrs_per_thread << ',' << config.max_total_instrs << ','
     << config.max_total_writes << ',' << config.max_vars << ','
     << config.fence_probability << ',' << config.dep_probability << ','
     << config.acquire_release_probability << ",f";
  for (const FenceKind f : config.fence_alphabet) {
    os << static_cast<int>(f) << '.';
  }
  os << '|' << options.drop_tso_store_load_fence
     << options.drop_dependency_order << options.drop_same_location_order
     << options.drop_acquire_release << options.power.lwsync_is_sync
     << options.power.drop_b_cumulativity << options.power.drop_observation
     << '|';
  return os.str();
}

FuzzReport run_conformance_corpus(Arch arch, std::uint64_t base_seed, int count,
                                  const FuzzConfig& config,
                                  const AxiomaticOptions& options,
                                  const FuzzRunOptions& run) {
  FuzzReport report;
  report.arch = arch;
  report.base_seed = base_seed;

  par::Pool pool(std::max(1, run.threads));
  // Canonical key -> operational outcome count of a *conformant* program.
  // Divergent programs are never inserted, so a hit always means conformant.
  std::unordered_map<std::string, long long> memo;
  const int chunk_size = std::max(1, run.chunk_size);
  // The persistent store sits behind the in-memory memo: consulted once per
  // unseen canonical key (in seed order, on the driver thread), and fed back
  // into the memo so repeats within the run never touch disk again.
  cache::ResultCache* const store = run.memoize ? run.cache : nullptr;
  const std::string store_prefix =
      store ? fuzz_cache_prefix(arch, config, options) : std::string();

  // One generated seed within the current wave.
  struct Item {
    std::uint64_t seed = 0;
    LitmusTest test;
    std::string key;
    int work = -1;            // index into the wave's work list; -1 = memo hit
    long long outcomes = 0;   // filled from the memo for hits
  };
  // Cross-check result for one unique program of the wave.
  struct WorkResult {
    long long outcomes = 0;
    std::optional<Divergence> divergence;
  };

  for (int start = 0; start < count;) {
    const int end = std::min(count, start + chunk_size);

    // Generate and canonicalise the wave in parallel: both are pure
    // functions of the seed.  Then scan it in seed order on this thread:
    // consult the memo and dedupe unseen keys.  Only unique cache misses
    // become parallel work, so the fan-out pattern is a pure function of the
    // seed sequence (never of the thread count).
    std::vector<int> indices(static_cast<std::size_t>(end - start));
    std::iota(indices.begin(), indices.end(), start);
    std::vector<Item> items = par::par_map(pool, indices, [&](const int& i) {
      Item item;
      item.seed = hash_combine(base_seed, static_cast<std::uint64_t>(i));
      item.test = generate_litmus(item.seed, config);
      if (run.memoize) item.key = canonical_program_key(item.test);
      return item;
    });
    std::vector<int> work;  // item index of each unique miss
    std::unordered_map<std::string, int> wave_work;
    for (std::size_t n = 0; n < items.size(); ++n) {
      Item& item = items[n];
      if (run.memoize) {
        const auto hit = memo.find(item.key);
        if (hit != memo.end()) {
          item.outcomes = hit->second;
          report.memo_hits += 1;
          continue;
        }
        const auto dup = wave_work.find(item.key);
        if (dup != wave_work.end()) {
          item.work = dup->second;
          report.memo_hits += 1;
          continue;
        }
        if (store) {
          if (const std::optional<std::string> v =
                  store->get("fuzz", store_prefix + item.key)) {
            item.outcomes = std::strtoll(v->c_str(), nullptr, 10);
            memo.emplace(item.key, item.outcomes);
            report.memo_hits += 1;
            report.store_hits += 1;
            continue;
          }
        }
        wave_work.emplace(item.key, static_cast<int>(work.size()));
      }
      report.memo_misses += 1;
      item.work = static_cast<int>(work.size());
      work.push_back(static_cast<int>(n));
    }

    const std::vector<WorkResult> results =
        par::par_map(pool, work, [&](const int& item_index) {
          const Item& item = items[static_cast<std::size_t>(item_index)];
          WorkResult r;
          const std::set<Outcome> operational =
              enumerate_outcomes(item.test, arch);
          r.outcomes = static_cast<long long>(operational.size());
          r.divergence =
              check_against_operational(item.test, arch, options, operational);
          return r;
        });

    // Merge in seed order.  Shrinking (rare) runs here on the driver thread,
    // so divergence reports are produced in seed order too.
    bool stopped = false;
    for (const Item& item : items) {
      report.programs += 1;
      if (item.work < 0) {
        report.outcomes_checked += item.outcomes;  // memo hit: conformant
        continue;
      }
      const WorkResult& r = results[static_cast<std::size_t>(item.work)];
      // The outcome-set size is isomorphism-invariant, so a wave duplicate
      // can take the representative's count.
      report.outcomes_checked += r.outcomes;
      const bool own_result =
          work[static_cast<std::size_t>(item.work)] ==
          static_cast<int>(&item - items.data());
      if (!r.divergence.has_value()) {
        if (run.memoize && own_result) {
          memo.emplace(item.key, r.outcomes);
          if (store) {
            store->put("fuzz", store_prefix + item.key,
                       std::to_string(r.outcomes));
          }
        }
        continue;
      }
      std::optional<Divergence> d;
      if (own_result) {
        d = r.divergence;
      } else {
        // Wave duplicate of a divergent program: recompute on *this* seed's
        // program so the report shows its exact shape.
        d = check_conformance(item.test, arch, options);
        if (!d.has_value()) continue;  // unreachable for true isomorphs
      }
      report.divergences.push_back(
          finish_divergence(std::move(*d), item.seed, item.test, arch, options));
      if (static_cast<int>(report.divergences.size()) >= run.max_divergences) {
        stopped = true;
        break;
      }
    }
    if (stopped) break;
    start = end;
  }

  // Store hits/misses were already counted by ResultCache::get; the driver
  // adds only what the store did not see (memo-only hits, and misses when no
  // store is attached) so `cache.hit`/`cache.miss` never double count.
  const MemoCounters& ids = memo_counters();
  obs::counters().add(
      ids.hits, static_cast<std::uint64_t>(report.memo_hits - report.store_hits));
  if (!store) {
    obs::counters().add(ids.misses,
                        static_cast<std::uint64_t>(report.memo_misses));
  }
  return report;
}

FuzzReport run_conformance_corpus(Arch arch, std::uint64_t base_seed, int count,
                                  const FuzzConfig& config,
                                  const AxiomaticOptions& options,
                                  int max_divergences) {
  FuzzReport report;
  report.arch = arch;
  report.base_seed = base_seed;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed =
        hash_combine(base_seed, static_cast<std::uint64_t>(i));
    const LitmusTest test = generate_litmus(seed, config);
    report.programs += 1;
    const std::set<Outcome> operational = enumerate_outcomes(test, arch);
    report.outcomes_checked += static_cast<long long>(operational.size());
    std::optional<Divergence> d =
        check_against_operational(test, arch, options, operational);
    if (d.has_value()) {
      report.divergences.push_back(
          finish_divergence(std::move(*d), seed, test, arch, options));
      if (static_cast<int>(report.divergences.size()) >= max_divergences) break;
    }
  }
  return report;
}

FuzzReport run_conformance_corpus(Arch arch, std::uint64_t base_seed,
                                  int count) {
  return run_conformance_corpus(arch, base_seed, count,
                                FuzzConfig::for_arch(arch));
}

}  // namespace wmm::sim
