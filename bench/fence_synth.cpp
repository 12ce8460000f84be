// Minimal-cost fence synthesis over the litmus corpus — the inverted cost
// model, driven end to end (docs/synthesis.md).
//
// For each selected litmus program and architecture the engine inserts a
// mutable fence slot between every pair of consecutive instructions, asks
// the axiomatic oracle which assignments forbid the outcomes the
// architecture admits but SC does not, and returns the cheapest correct
// assignment under the selected cost model (`synth` record per program).
// The default corpus is the five classic shapes (MP, SB, LB, ISA2, WRC);
// --suite synthesizes over the whole built-in suite.
//
// --validate operationalizes the paper's claim: it ranks *every* correct
// fix of MP on POWER twice — once by in-vitro fence timings (idle core,
// lwsync 5.9 ns < isync 9.0 ns) and once in vivo with the reader slot under
// store-buffer pressure, where lwsync's drain coupling makes the ctrl+isync
// idiom the cheaper reader-side fix — and fails (exit 1) unless at least
// one pair of fixes changes order between the two rankings.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "session.h"
#include "sim/litmus.h"
#include "synth/search.h"

namespace {

using namespace wmm;

constexpr const char* kGoldenNames[] = {"MP", "SB", "LB", "ISA2",
                                        "WRC+data+addr"};

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : csv) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::vector<sim::Arch> parse_arches(const std::string& value) {
  if (value == "all") {
    return {sim::Arch::ARMV8, sim::Arch::POWER7, sim::Arch::X86_TSO};
  }
  for (sim::Arch a : {sim::Arch::ARMV8, sim::Arch::POWER7, sim::Arch::X86_TSO,
                      sim::Arch::SC}) {
    if (value == sim::arch_name(a)) return {a};
  }
  return {};
}

std::string fmt_ns(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", ns);
  return buf;
}

// Ranks every correct fix of MP on POWER under both cost models (reader
// slot under `reader_stores` of private-store pressure in vivo) and prints
// the first adjacent-order flip.  Returns true when a flip exists.
bool run_validation(bench::Session& session, unsigned reader_stores) {
  const sim::LitmusTest mp = sim::make_mp().test;
  synth::SynthOptions vitro;
  vitro.mode = synth::SearchMode::Exact;
  vitro.rank_all = true;
  vitro.cost.model = synth::CostModel::InVitro;

  synth::SynthOptions vivo = vitro;
  vivo.cost.model = synth::CostModel::InVivo;
  // MP slots in thread order: slot 0 between the writer's two stores, slot 1
  // between the reader's two loads.  The pressure belongs to the reader's
  // code path, so it is replayed identically for every candidate.
  vivo.cost.contexts = {{}, {reader_stores, 0, 0.0}};

  const obs::SynthRecord in_vitro =
      synth::synth_record(mp, sim::Arch::POWER7, vitro, session.cache());
  const obs::SynthRecord in_vivo =
      synth::synth_record(mp, sim::Arch::POWER7, vivo, session.cache());
  session.record_raw(obs::synth_line(in_vitro));
  session.record_raw(obs::synth_line(in_vivo));

  auto print_ranking = [&](const char* label, const obs::SynthRecord& r) {
    session.out() << "  " << label << ":\n";
    for (const auto& [assignment, cost_ns] : r.ranked) {
      session.out() << "    " << assignment << "  (" << fmt_ns(cost_ns)
                    << " ns)\n";
    }
  };
  session.out() << "validation: MP on power, every correct fix ranked\n";
  print_ranking("in vitro (idle core)", in_vitro);
  session.out() << "  in vivo: reader slot preceded by " << reader_stores
                << " private stores\n";
  print_ranking("in vivo", in_vivo);

  // A flip is a pair of fixes whose relative order differs between the two
  // rankings.  Ties can't fake one: both lists are sorted by (cost, name),
  // so equal-cost pairs keep the same relative order in both.
  std::vector<std::string> vivo_order;
  for (const auto& [assignment, cost_ns] : in_vivo.ranked) {
    vivo_order.push_back(assignment);
  }
  auto vivo_rank = [&](const std::string& a) {
    return std::find(vivo_order.begin(), vivo_order.end(), a) -
           vivo_order.begin();
  };
  for (std::size_t i = 0; i < in_vitro.ranked.size(); ++i) {
    for (std::size_t j = i + 1; j < in_vitro.ranked.size(); ++j) {
      const std::string& a = in_vitro.ranked[i].first;
      const std::string& b = in_vitro.ranked[j].first;
      if (vivo_rank(a) > vivo_rank(b)) {
        session.out() << "  flip: in vitro ranks [" << a << "] < [" << b
                      << "], in vivo ranks [" << b << "] < [" << a << "]\n";
        return true;
      }
    }
  }
  session.out() << "  no ranking flip found\n";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string arch_flag = "all";
  std::string mode_flag = "exact";
  std::string cost_flag = "vitro";
  std::string names_flag;
  bool use_suite = false;
  bool rank_all = false;
  bool validate = false;
  const std::vector<bench::FlagSpec> specs = {
      {"--arch", "A", "architecture: arm, power, x86, sc, or all",
       [&](const std::string& v) {
         arch_flag = v;
         return !parse_arches(v).empty();
       }},
      {"--mode", "M", "search mode: exact (cost-minimum) or greedy",
       [&](const std::string& v) {
         mode_flag = v;
         return synth::search_mode_from_name(v).has_value();
       }},
      {"--cost", "C", "cost model: vitro (idle core) or vivo (in context)",
       [&](const std::string& v) {
         cost_flag = v;
         return synth::cost_model_from_name(v).has_value();
       }},
      {"--names", "A,B", "synthesize only the named suite programs",
       [&](const std::string& v) {
         names_flag = v;
         return !v.empty();
       }},
      {"--suite", "", "whole built-in suite instead of the golden five",
       [&](const std::string&) { return use_suite = true; }},
      {"--rank-all", "", "rank every correct assignment, not just the best",
       [&](const std::string&) { return rank_all = true; }},
      {"--validate", "",
       "rank MP-on-POWER fixes in vitro vs in vivo; fail without a flip",
       [&](const std::string&) { return validate = true; }},
  };
  bench::Session session(argc, argv, "Minimal-cost fence synthesis",
                         "PPoPP 2016, sec. 7 (cost model, inverted)", specs);
  session.set_extra("arch", arch_flag);

  std::vector<std::string> names = split_csv(names_flag);
  if (!use_suite && names.empty()) {
    names.assign(std::begin(kGoldenNames), std::end(kGoldenNames));
  }

  synth::SynthOptions options;
  options.mode = *synth::search_mode_from_name(mode_flag);
  options.cost.model = *synth::cost_model_from_name(cost_flag);
  options.rank_all = rank_all;

  session.out() << "mode " << mode_flag << ", cost model " << cost_flag
                << "\n\n";
  for (sim::Arch arch : parse_arches(arch_flag)) {
    session.out() << "== " << sim::arch_name(arch) << " ==\n";
    for (const sim::LitmusCase& c : sim::litmus_suite()) {
      if (!names.empty() && std::find(names.begin(), names.end(),
                                      c.test.name) == names.end()) {
        continue;
      }
      const obs::SynthRecord rec =
          synth::synth_record(c.test, arch, options, session.cache());
      session.record_raw(obs::synth_line(rec));
      session.out() << "  " << rec.name << ": " << rec.assignment;
      if (rec.feasible) {
        session.out() << "  (" << fmt_ns(rec.cost_ns) << " ns, "
                      << rec.oracle_queries << " oracle queries over "
                      << rec.candidates << " candidates)";
      }
      session.out() << "\n";
    }
    session.out() << "\n";
  }

  bool ok = true;
  if (validate) ok = run_validation(session, /*reader_stores=*/16);

  session.finalize();
  return ok ? 0 : 1;
}
