#include "synth/search.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>

#include "cache/store.h"
#include "obs/json.h"
#include "sim/arch.h"

namespace wmm::synth {

const char* search_mode_name(SearchMode mode) {
  return mode == SearchMode::Exact ? "exact" : "greedy";
}

std::optional<SearchMode> search_mode_from_name(const std::string& name) {
  if (name == "exact") return SearchMode::Exact;
  if (name == "greedy") return SearchMode::Greedy;
  return std::nullopt;
}

std::optional<CostModel> cost_model_from_name(const std::string& name) {
  if (name == "vitro") return CostModel::InVitro;
  if (name == "vivo") return CostModel::InVivo;
  return std::nullopt;
}

namespace {

std::optional<sim::FenceKind> fence_kind_from_name(const std::string& name) {
  for (std::size_t i = 0; i < sim::kNumFenceKinds; ++i) {
    const sim::FenceKind kind = static_cast<sim::FenceKind>(i);
    if (name == sim::fence_name(kind)) return kind;
  }
  return std::nullopt;
}

// Canonical encoding of a litmus program for the cache key.  The name is
// deliberately excluded so structurally identical programs share entries.
std::string encode_test(const sim::LitmusTest& test) {
  std::string out = "v" + std::to_string(test.num_vars) + "r" +
                    std::to_string(test.num_regs);
  for (const sim::LitmusThread& thread : test.threads) {
    out += "|";
    for (const sim::LitmusInstr& i : thread.instrs) {
      switch (i.type) {
        case sim::AccessType::Read:
          out += "R" + std::to_string(i.reg) + "," + std::to_string(i.var);
          break;
        case sim::AccessType::Write:
          out += "W" + std::to_string(i.var) + "=" + std::to_string(i.value);
          break;
        case sim::AccessType::Fence:
          out += "F" + std::to_string(static_cast<int>(i.fence));
          break;
      }
      if (i.addr_dep >= 0) out += "a" + std::to_string(i.addr_dep);
      if (i.data_dep >= 0) out += "d" + std::to_string(i.data_dep);
      if (i.ctrl_dep >= 0) out += "c" + std::to_string(i.ctrl_dep);
      if (i.acquire) out += "q";
      if (i.release) out += "l";
      out += ";";
    }
  }
  return out;
}

void write_kinds(obs::JsonWriter& w, const std::vector<sim::FenceKind>& kinds) {
  w.begin_array();
  for (sim::FenceKind k : kinds) w.value(sim::fence_name(k));
  w.end_array();
}

std::optional<std::vector<sim::FenceKind>> read_kinds(
    const obs::JsonValue& v) {
  if (!v.is_array()) return std::nullopt;
  std::vector<sim::FenceKind> kinds;
  for (const obs::JsonValue& e : v.array) {
    if (!e.is_string()) return std::nullopt;
    const std::optional<sim::FenceKind> k = fence_kind_from_name(e.string);
    if (!k) return std::nullopt;
    kinds.push_back(*k);
  }
  return kinds;
}

SynthResult run_exact(const SynthProblem& problem, const SynthOptions& options,
                      SynthOracle& oracle) {
  SynthResult result;
  struct Candidate {
    Assignment assignment;
    double cost_ns;
    std::string name;
  };
  // Materialise the whole lattice with costs (menus are tiny: the largest
  // golden problem is 4^3 = 64 candidates), then walk it cheapest-first.
  std::vector<Candidate> candidates;
  std::vector<std::size_t> index(problem.slots.size(), 0);
  for (;;) {
    Candidate c;
    c.assignment.kinds.reserve(problem.slots.size());
    for (std::size_t i = 0; i < problem.slots.size(); ++i) {
      c.assignment.kinds.push_back(problem.slots[i].menu[index[i]]);
    }
    c.cost_ns = assignment_cost_ns(problem, c.assignment, options.cost);
    c.name = c.assignment.name();
    candidates.push_back(std::move(c));
    std::size_t carry = 0;
    while (carry < index.size() &&
           ++index[carry] == problem.slots[carry].menu.size()) {
      index[carry] = 0;
      ++carry;
    }
    if (carry == index.size()) break;
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.cost_ns != b.cost_ns ? a.cost_ns < b.cost_ns
                                            : a.name < b.name;
            });

  std::vector<Assignment> known_correct;
  std::vector<Assignment> known_incorrect;
  for (const Candidate& c : candidates) {
    ++result.stats.candidates;
    bool verdict;
    if (std::any_of(known_correct.begin(), known_correct.end(),
                    [&](const Assignment& k) { return k.leq(c.assignment); })) {
      verdict = true;
      ++result.stats.pruned_correct;
    } else if (std::any_of(
                   known_incorrect.begin(), known_incorrect.end(),
                   [&](const Assignment& k) { return c.assignment.leq(k); })) {
      verdict = false;
      ++result.stats.pruned_incorrect;
    } else {
      verdict = oracle.correct(c.assignment);
      (verdict ? known_correct : known_incorrect).push_back(c.assignment);
    }
    if (verdict) {
      result.ranked.push_back({c.assignment, c.cost_ns});
      if (!options.rank_all) break;
    }
  }
  if (!result.ranked.empty()) {
    result.feasible = true;
    result.best = result.ranked.front().assignment;
    result.cost_ns = result.ranked.front().cost_ns;
  }
  return result;
}

SynthResult run_greedy(const SynthProblem& problem,
                       const SynthOptions& options, SynthOracle& oracle) {
  SynthResult result;
  Assignment a;
  a.kinds.reserve(problem.slots.size());
  for (const Slot& s : problem.slots) a.kinds.push_back(s.menu.back());
  ++result.stats.candidates;
  // The all-strongest assignment is the lattice top (every menu ends with a
  // full barrier, or the slot has only None), so top-incorrect == infeasible.
  if (!oracle.correct(a)) return result;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < problem.slots.size(); ++i) {
      const std::vector<sim::FenceKind>& menu = problem.slots[i].menu;
      for (sim::FenceKind weaker : menu) {
        if (weaker == a.kinds[i]) break;  // reached the current choice
        Assignment trial = a;
        trial.kinds[i] = weaker;
        ++result.stats.candidates;
        if (oracle.correct(trial)) {
          a = std::move(trial);
          changed = true;
          break;
        }
      }
    }
  }
  result.feasible = true;
  result.best = a;
  result.cost_ns = assignment_cost_ns(problem, a, options.cost);
  result.ranked.push_back({std::move(a), result.cost_ns});
  return result;
}

}  // namespace

std::string serialize_result(const SynthResult& result) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("v", 1);
  w.kv("feasible", result.feasible);
  w.key("best");
  write_kinds(w, result.best.kinds);
  w.kv("cost_ns", result.cost_ns);
  w.key("ranked").begin_array();
  for (const RankedFix& r : result.ranked) {
    w.begin_object();
    w.key("kinds");
    write_kinds(w, r.assignment.kinds);
    w.kv("cost_ns", r.cost_ns);
    w.end_object();
  }
  w.end_array();
  w.kv("candidates", result.stats.candidates);
  w.kv("oracle_queries", result.stats.oracle_queries);
  w.kv("pruned_correct", result.stats.pruned_correct);
  w.kv("pruned_incorrect", result.stats.pruned_incorrect);
  w.end_object();
  return w.take();
}

std::optional<SynthResult> parse_result(const std::string& text) {
  const std::optional<obs::JsonValue> v = obs::parse_json(text);
  if (!v || !v->is_object()) return std::nullopt;
  const obs::JsonValue* version = v->find("v");
  if (!version || !version->is_number() || version->number != 1.0) {
    return std::nullopt;
  }
  SynthResult r;
  const obs::JsonValue* feasible = v->find("feasible");
  const obs::JsonValue* best = v->find("best");
  const obs::JsonValue* cost = v->find("cost_ns");
  const obs::JsonValue* ranked = v->find("ranked");
  if (!feasible || !feasible->is_bool() || !best || !cost ||
      !cost->is_number() || !ranked || !ranked->is_array()) {
    return std::nullopt;
  }
  r.feasible = feasible->boolean;
  const std::optional<std::vector<sim::FenceKind>> best_kinds =
      read_kinds(*best);
  if (!best_kinds) return std::nullopt;
  r.best.kinds = *best_kinds;
  r.cost_ns = cost->number;
  for (const obs::JsonValue& e : ranked->array) {
    const obs::JsonValue* kinds = e.find("kinds");
    const obs::JsonValue* c = e.find("cost_ns");
    if (!kinds || !c || !c->is_number()) return std::nullopt;
    const std::optional<std::vector<sim::FenceKind>> ks = read_kinds(*kinds);
    if (!ks) return std::nullopt;
    r.ranked.push_back({Assignment{*ks}, c->number});
  }
  const auto u64 = [&](const char* key, std::uint64_t* out) {
    const obs::JsonValue* f = v->find(key);
    if (!f || !f->is_number()) return false;
    *out = static_cast<std::uint64_t>(f->number);
    return true;
  };
  if (!u64("candidates", &r.stats.candidates) ||
      !u64("oracle_queries", &r.stats.oracle_queries) ||
      !u64("pruned_correct", &r.stats.pruned_correct) ||
      !u64("pruned_incorrect", &r.stats.pruned_incorrect)) {
    return std::nullopt;
  }
  return r;
}

std::string problem_cache_key(const SynthProblem& problem,
                              const SynthOptions& options) {
  std::string key = "synth-v1|";
  key += sim::arch_name(problem.arch);
  key += "|";
  key += encode_test(problem.skeleton);
  key += "|slots=";
  for (const Slot& s : problem.slots) {
    key += "t" + std::to_string(s.ref.tid) + "i" + std::to_string(s.ref.idx) +
           ":";
    key += site_idiom_name(s.idiom);
    key += "[";
    for (sim::FenceKind k : s.menu) {
      key += std::to_string(static_cast<int>(k)) + ",";
    }
    key += "]";
  }
  key += "|forbidden=";
  for (const sim::Outcome& o : problem.forbidden) {
    for (int x : o) key += std::to_string(x) + ",";
    key += ";";
  }
  key += "|mode=";
  key += search_mode_name(options.mode);
  if (options.rank_all) key += "+rank_all";
  key += "|cost=";
  key += cost_options_key(options.cost);
  return key;
}

SynthResult synthesize(const SynthProblem& problem,
                       const SynthOptions& options) {
  const std::string key =
      options.cache ? problem_cache_key(problem, options) : std::string();
  if (options.cache) {
    if (const std::optional<std::string> hit =
            options.cache->get("synth", key)) {
      if (std::optional<SynthResult> cached = parse_result(*hit)) {
        cached->stats.cache_hit = true;
        return *cached;
      }
    }
  }
  SynthOracle oracle(problem);
  SynthResult result = options.mode == SearchMode::Exact
                           ? run_exact(problem, options, oracle)
                           : run_greedy(problem, options, oracle);
  result.stats.oracle_queries = oracle.queries();
  if (options.cache) options.cache->put("synth", key, serialize_result(result));
  return result;
}

obs::SynthRecord synth_record(const sim::LitmusTest& test, sim::Arch arch,
                              SynthOptions options, cache::ResultCache* store) {
  options.cache = store;
  const SynthProblem problem =
      make_problem(test, arch, sc_forbidden_outcomes(test, arch));
  const SynthResult r = synthesize(problem, options);
  obs::SynthRecord rec;
  rec.name = test.name;
  rec.arch = sim::arch_name(arch);
  rec.mode = search_mode_name(options.mode);
  rec.cost_model = cost_model_name(options.cost.model);
  rec.slots = static_cast<int>(problem.slots.size());
  rec.feasible = r.feasible;
  rec.assignment = r.feasible ? r.best.name() : "infeasible";
  rec.cost_ns = r.cost_ns;
  for (const RankedFix& f : r.ranked) {
    rec.ranked.emplace_back(f.assignment.name(), f.cost_ns);
  }
  rec.candidates = r.stats.candidates;
  rec.oracle_queries = r.stats.oracle_queries;
  rec.pruned_correct = r.stats.pruned_correct;
  rec.pruned_incorrect = r.stats.pruned_incorrect;
  return rec;
}

}  // namespace wmm::synth
