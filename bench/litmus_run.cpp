// Cross-oracle `.litmus` checker (extra deliverable; the herd7-interop
// entry point).
//
// Loads a directory of herd7 `.litmus` files, the built-in hand-written
// suite, or a systematically generated diy7-style family (the default), and
// asks every architecture the herd question — is the final-state condition
// reachable? — of both the operational executor and the axiomatic oracles
// (single-axiom checker for sc/tso/arm, exact Herding-Cats model for power).
// Verdicts fan out across --threads workers through the deterministic
// parallel engine; the JSONL report (one `litmus` record per test, in input
// order) and the exit status are bit-identical for any thread count.
//
// Usage:
//   litmus_run [--litmus-dir=DIR | --suite | --family]
//              [--max-comm-edges=K] [--limit=N] [--export=DIR]
//
//   --litmus-dir=DIR   check every *.litmus file under DIR (sorted)
//   --suite            check the built-in litmus_suite() cases
//   --family           check the generated family corpus (default)
//   --max-comm-edges=K family cycle-size bound (default 4)
//   --limit=N          stop after N programs (0 = all)
//   --export=DIR       also write each checked program back out as
//                      DIR/NNNN-<name>.litmus (printer output; the CI
//                      round-trip gate diffs two exports byte-for-byte)
//
// Exits non-zero on any operational/axiomatic disagreement, wmm-expect
// mismatch, or unparsable input file.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "session.h"
#include "sim/litmus.h"
#include "sim/litmus_family.h"
#include "sim/litmus_format.h"
#include "sim/litmus_verdict.h"

namespace {

using namespace wmm;
namespace fs = std::filesystem;

struct Input {
  sim::LitmusFile file;
  std::string source;  // "file" | "suite" | "family"
};

// Loads every *.litmus under `dir` in filename order.  Exits with a
// diagnostic on the first unreadable or malformed file.
std::vector<Input> load_directory(const std::string& dir) {
  std::vector<fs::path> paths;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".litmus") paths.push_back(entry.path());
  }
  if (ec) {
    std::fprintf(stderr, "litmus_run: cannot read directory %s: %s\n",
                 dir.c_str(), ec.message().c_str());
    std::exit(2);
  }
  std::sort(paths.begin(), paths.end());
  std::vector<Input> inputs;
  for (const fs::path& p : paths) {
    std::ifstream in(p);
    std::stringstream ss;
    ss << in.rdbuf();
    if (!in) {
      std::fprintf(stderr, "litmus_run: cannot read %s\n", p.c_str());
      std::exit(2);
    }
    try {
      inputs.push_back({sim::parse_litmus(ss.str()), "file"});
    } catch (const sim::LitmusParseError& e) {
      std::fprintf(stderr, "%s:%d:%d: %s\n", p.c_str(), e.line(), e.col(),
                   e.detail().c_str());
      std::exit(2);
    }
  }
  return inputs;
}

std::string export_filename(std::size_t index, const std::string& name) {
  std::string safe;
  for (char c : name) {
    safe += (std::isalnum(static_cast<unsigned char>(c)) || c == '+' ||
             c == '.' || c == '-')
                ? c
                : '_';
  }
  char prefix[24];
  std::snprintf(prefix, sizeof prefix, "%04zu-", index);
  return prefix + safe + ".litmus";
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { Family, Suite, Dir };
  Mode mode = Mode::Family;
  std::string dir;
  std::string export_dir;
  sim::FamilyOptions family_options;
  std::size_t limit = 0;

  const std::vector<bench::FlagSpec> specs = {
      {"--litmus-dir", "DIR", "check every *.litmus file under DIR",
       [&](const std::string& v) {
         mode = Mode::Dir;
         dir = v;
         return !v.empty();
       }},
      {"--suite", "", "check the built-in litmus_suite() cases",
       [&](const std::string&) {
         mode = Mode::Suite;
         return true;
       }},
      {"--family", "", "check the generated family corpus (default)",
       [&](const std::string&) {
         mode = Mode::Family;
         return true;
       }},
      {"--max-comm-edges", "K", "family cycle-size bound (default 4)",
       [&](const std::string& v) {
         std::uint64_t k = 0;
         if (!bench::parse_u64(v, k) || k < 2 || k > INT_MAX) return false;
         family_options.max_comm_edges = static_cast<int>(k);
         return true;
       }},
      {"--limit", "N", "stop after N programs (0 = all)",
       [&](const std::string& v) {
         std::uint64_t n = 0;
         if (!bench::parse_u64(v, n)) return false;
         limit = static_cast<std::size_t>(n);
         return true;
       }},
      {"--export", "DIR", "write each checked program to DIR as .litmus",
       [&](const std::string& v) {
         export_dir = v;
         return !v.empty();
       }},
  };
  bench::Session session(argc, argv, "Cross-oracle .litmus checker", "",
                         specs);
  std::ostream& os = session.out();

  std::vector<Input> inputs;
  switch (mode) {
    case Mode::Dir:
      inputs = load_directory(dir);
      session.set_extra("litmus_dir", dir);
      break;
    case Mode::Suite:
      for (const sim::LitmusCase& c : sim::litmus_suite())
        inputs.push_back({sim::to_litmus_file(c), "suite"});
      break;
    case Mode::Family: {
      family_options.limit = limit;
      for (const sim::FamilyProgram& p : generate_families(family_options))
        inputs.push_back({sim::to_litmus_file(p.test, p.witness), "family"});
      break;
    }
  }
  if (limit && inputs.size() > limit) inputs.resize(limit);
  session.set_extra("programs", std::to_string(inputs.size()));

  if (!export_dir.empty()) {
    fs::create_directories(export_dir);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const fs::path path =
          fs::path(export_dir) /
          export_filename(i, inputs[i].file.test.name);
      std::ofstream out(path);
      out << sim::print_litmus(inputs[i].file);
      if (!out) {
        std::fprintf(stderr, "litmus_run: cannot write %s\n", path.c_str());
        return 2;
      }
    }
    os << "exported " << inputs.size() << " tests to " << export_dir << "\n";
  }

  // The herd question per architecture, both oracles, in parallel; under
  // --cache each verdict is keyed by the printed program.
  const std::vector<obs::LitmusVerdict> verdicts = bench::par_index_map(
      inputs.size(), session.threads(), [&](int i) {
        const Input& in = inputs[static_cast<std::size_t>(i)];
        return sim::litmus_verdict(in.file, in.source, session.cache());
      });

  int disagreements = 0;
  int expect_failures = 0;
  for (const obs::LitmusVerdict& v : verdicts) {
    session.record_litmus(v);
    if (!v.agree || !v.expect_ok) {
      os << (v.agree ? "wmm-expect mismatch: " : "oracle disagreement: ")
         << v.name << "  op[sc=" << v.op_sc << " tso=" << v.op_tso
         << " arm=" << v.op_arm << " power=" << v.op_power << "] ax[sc="
         << v.ax_sc << " tso=" << v.ax_tso << " arm=" << v.ax_arm
         << " power=" << v.ax_power << "]\n";
      disagreements += !v.agree;
      expect_failures += !v.expect_ok;
    }
  }
  os << inputs.size() << " tests: " << (inputs.size() ? verdicts.size() : 0)
     << " checked, " << disagreements << " oracle disagreements, "
     << expect_failures << " wmm-expect mismatches\n";

  obs::Throughput tp;
  tp.context = "litmus_run";
  tp.threads = session.threads();
  tp.programs = static_cast<long long>(inputs.size());
  tp.wall_s = session.elapsed_seconds();
  session.record_throughput(tp);
  return disagreements == 0 && expect_failures == 0 ? 0 : 1;
}
