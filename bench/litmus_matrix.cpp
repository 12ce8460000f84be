// Allowed/forbidden litmus outcome matrix across the simulated architecture
// profiles — the semantic ground truth behind the fencing strategies the
// performance experiments evaluate (extra deliverable; validates that the
// simulated machines are genuinely weak).
//
// The power column is the operational executor's verdict; hc-power is the
// independent Herding-Cats axiomatic oracle (axiomatic_power.h) on the same
// outcome.  The two columns must agree — a (!) in either marks a divergence
// from the expected architectural result, and any power/hc-power mismatch is
// counted separately (see docs/models.md for the expected verdicts).
//
// With --litmus-dir=DIR the matrix rows come from external herd7 `.litmus`
// files instead of the built-in suite: each row asks whether the file's
// exists-condition is reachable, and (!) marks divergence from the file's
// wmm-expect directive (when present).  A missing directory, an empty one,
// or a malformed file raises std::invalid_argument before any row is
// printed.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/report.h"
#include "session.h"
#include "sim/axiomatic_power.h"
#include "sim/litmus.h"
#include "sim/litmus_format.h"

namespace {

using namespace wmm;
namespace fs = std::filesystem;

// Parses every *.litmus under `dir` in filename order.  Throws
// std::invalid_argument on an unknown directory, a directory with no
// .litmus files, an unreadable file, or a parse error (with the herd7
// line:col position) — eagerly, so a bad corpus never prints half a matrix.
std::vector<sim::LitmusFile> load_litmus_dir(const std::string& dir) {
  if (!fs::is_directory(dir)) {
    throw std::invalid_argument("litmus_matrix: no such directory: " + dir);
  }
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".litmus") paths.push_back(entry.path());
  }
  if (paths.empty()) {
    throw std::invalid_argument("litmus_matrix: no .litmus files under " +
                                dir);
  }
  std::sort(paths.begin(), paths.end());
  std::vector<sim::LitmusFile> files;
  for (const fs::path& p : paths) {
    std::ifstream in(p);
    std::stringstream ss;
    ss << in.rdbuf();
    if (!in) {
      throw std::invalid_argument("litmus_matrix: cannot read " + p.string());
    }
    try {
      files.push_back(sim::parse_litmus(ss.str()));
    } catch (const sim::LitmusParseError& e) {
      throw std::invalid_argument(p.string() + ":" + std::to_string(e.line()) +
                                  ":" + std::to_string(e.col()) + ": " +
                                  e.detail());
    }
  }
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  std::string litmus_dir;
  const std::vector<bench::FlagSpec> specs = {
      {"--litmus-dir", "DIR",
       "matrix rows from *.litmus files under DIR instead of the suite",
       [&](const std::string& v) {
         litmus_dir = v;
         return !v.empty();
       }},
  };
  bench::Session session(argc, argv,
                         "Litmus outcome matrix (relaxed outcome reachable?)",
                         "", specs);
  std::ostream& os = session.out();
  os << "architectures: sc, x86-tso, armv8 (multi-copy atomic),\n"
     << "power7 (non-multi-copy atomic; hc-power = Herding-Cats oracle)\n\n";

  int divergences = 0;
  int oracle_mismatches = 0;
  core::Table table({"test", "sc", "tso", "arm", "power", "hc-power"});

  if (!litmus_dir.empty()) {
    // External corpus: the herd question per file, (!) against wmm-expect.
    const std::vector<sim::LitmusFile> files = load_litmus_dir(litmus_dir);
    session.set_extra("litmus_dir", litmus_dir);
    for (const sim::LitmusFile& f : files) {
      std::vector<std::string> row{f.test.name};
      bool operational_power = false;
      for (sim::Arch arch : {sim::Arch::SC, sim::Arch::X86_TSO,
                             sim::Arch::ARMV8, sim::Arch::POWER7}) {
        const bool allowed = sim::condition_reachable(
            f, sim::enumerate_outcomes(f.test, arch));
        if (arch == sim::Arch::POWER7) operational_power = allowed;
        std::string cell = allowed ? "allow" : "forbid";
        const auto it = f.expected.find(arch);
        if (it != f.expected.end() && it->second != allowed) {
          cell += " (!)";
          ++divergences;
        }
        row.push_back(cell);
      }
      const bool hc_allowed = sim::condition_reachable(
          f, sim::axiomatic_outcomes(f.test, sim::Arch::POWER7));
      std::string cell = hc_allowed ? "allow" : "forbid";
      const auto it = f.expected.find(sim::Arch::POWER7);
      if ((it != f.expected.end() && it->second != hc_allowed) ||
          hc_allowed != operational_power) {
        cell += " (!)";
        ++divergences;
      }
      if (hc_allowed != operational_power) ++oracle_mismatches;
      row.push_back(std::move(cell));
      table.add_row(std::move(row));
    }
  } else {
    for (const sim::LitmusCase& c : sim::litmus_suite()) {
      std::vector<std::string> row{c.test.name};
      bool operational_power = false;
      for (sim::Arch arch : {sim::Arch::SC, sim::Arch::X86_TSO,
                             sim::Arch::ARMV8, sim::Arch::POWER7}) {
        const bool allowed =
            sim::outcome_allowed(c.test, c.relaxed_outcome, arch);
        if (arch == sim::Arch::POWER7) operational_power = allowed;
        const auto expected = sim::expected_allowed(c, arch);
        std::string cell = allowed ? "allow" : "forbid";
        if (expected.has_value() && *expected != allowed) {
          cell += " (!)";
          ++divergences;
        }
        row.push_back(cell);
      }
      const bool hc_allowed = sim::axiomatic_allowed(
          c.test, c.relaxed_outcome, sim::Arch::POWER7);
      std::string cell = hc_allowed ? "allow" : "forbid";
      if (!hc_allowed) {
        cell += std::string(" [") +
                sim::power_axiom_name(
                    sim::power_forbidding_axiom(c.test, c.relaxed_outcome)) +
                "]";
      }
      const auto expected = sim::expected_allowed(c, sim::Arch::POWER7);
      if ((expected.has_value() && *expected != hc_allowed) ||
          hc_allowed != operational_power) {
        cell += " (!)";
        ++divergences;
      }
      if (hc_allowed != operational_power) ++oracle_mismatches;
      row.push_back(std::move(cell));
      table.add_row(std::move(row));
    }
  }
  table.print(os);
  os << "\n(!) marks divergence from the expected architectural result\n"
     << "[AXIOM] names the Herding-Cats check that forbids the outcome\n";
  session.set_extra("litmus_divergences", std::to_string(divergences));
  session.set_extra("power_oracle_mismatches",
                    std::to_string(oracle_mismatches));
  return oracle_mismatches == 0 ? 0 : 1;
}
