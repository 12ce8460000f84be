// Differential conformance fuzzer driver.
//
// Cross-checks the operational litmus executor against the axiomatic oracle
// over randomly generated programs, printing a per-architecture summary and a
// shrunk reproducer for any divergence.
//
// Usage:
//   fuzz_conformance [--arch=sc|tso|arm|power|all] [--count=N] [--seed=S]
//                    [--replay=SEED] [--max-divergences=N]
//                    [--weaken=tso-wr|deps|poloc|acqrel|
//                             power-lwsync-sync|power-bcumul|power-obs]
//
//   --replay=SEED  regenerate exactly the program of one seed (as printed in
//                  a divergence report), show both models' verdicts, and exit
//                  non-zero if they still disagree.
//   --weaken=...   deliberately weaken one axiomatic constraint (self-test:
//                  the fuzzer must catch the planted bug).  The power-*
//                  spellings weaken the exact Herding-Cats POWER model and
//                  switch POWER to a biased generator shape (and, unless
//                  --count is given, a 5000-program budget) so the rare
//                  witnessing programs appear within the run.
//   --export-litmus=DIR
//                  write each architecture's generated corpus to
//                  DIR/<arch>/NNNN-fuzz-0xSEED.litmus in herd7 syntax, with
//                  the operational per-arch verdicts embedded as a
//                  wmm-expect directive.  litmus_run --litmus-dir re-checks
//                  an exported corpus (the CI round-trip gate), and the
//                  files cross-validate divergences against external herd7.
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "session.h"
#include "sim/fuzz.h"
#include "sim/litmus_format.h"
#include "sim/rng.h"

namespace {

using namespace wmm;

// Returns an empty vector for an unknown spelling (rejected by the flag
// parser).
std::vector<sim::Arch> parse_archs(const std::string& s) {
  if (s == "sc") return {sim::Arch::SC};
  if (s == "tso" || s == "x86") return {sim::Arch::X86_TSO};
  if (s == "arm") return {sim::Arch::ARMV8};
  if (s == "power") return {sim::Arch::POWER7};
  if (s == "all") {
    return {sim::Arch::SC, sim::Arch::X86_TSO, sim::Arch::ARMV8,
            sim::Arch::POWER7};
  }
  return {};
}

// Picks the biased generator shape for a planted POWER weakening: the
// default POWER config almost never emits the witnessing litmus shapes (see
// FuzzConfig::power_teeth_{sb,wrc}), so a --weaken=power-* self-test fuzzes
// with the matching teeth config instead.
sim::FuzzConfig config_for(sim::Arch arch, const sim::AxiomaticOptions& o) {
  if (arch == sim::Arch::POWER7 && o.power.any()) {
    return o.power.lwsync_is_sync ? sim::FuzzConfig::power_teeth_sb()
                                  : sim::FuzzConfig::power_teeth_wrc();
  }
  return sim::FuzzConfig::for_arch(arch);
}

bool parse_weaken(const std::string& s, sim::AxiomaticOptions& o) {
  if (s == "tso-wr") {
    o.drop_tso_store_load_fence = true;
  } else if (s == "deps") {
    o.drop_dependency_order = true;
  } else if (s == "poloc") {
    o.drop_same_location_order = true;
  } else if (s == "acqrel") {
    o.drop_acquire_release = true;
  } else if (s == "power-lwsync-sync") {
    o.power.lwsync_is_sync = true;
  } else if (s == "power-bcumul") {
    o.power.drop_b_cumulativity = true;
  } else if (s == "power-obs") {
    o.power.drop_observation = true;
  } else {
    return false;
  }
  return true;
}

// A strictly parsed flag value in [1, INT_MAX].
bool parse_positive(const std::string& s, int& out) {
  std::uint64_t n = 0;
  if (!bench::parse_u64(s, n) || n == 0 || n > INT_MAX) return false;
  out = static_cast<int>(n);
  return true;
}

// Whether the four-architecture verdict set of `test` is cheap enough to
// compute eagerly.  litmus_run re-checks an exported corpus on every
// architecture with both oracles, and the axiomatic search, which prunes
// only the rf × co choices that close a cycle, still grows in the worst
// case with the writes each read may observe (see FuzzConfig::for_arch).
// The bound mirrors POWER's own generator limits (3 writes visible to 2
// other threads); it also decides which seeds an exported corpus keeps, so
// changing it changes every exported fixed-seed corpus.
bool cheap_to_cross_check(const sim::LitmusTest& test) {
  int writes = 0;
  for (const sim::LitmusThread& t : test.threads) {
    for (const sim::LitmusInstr& in : t.instrs) {
      writes += in.type == sim::AccessType::Write;
    }
  }
  const int other_threads = static_cast<int>(test.threads.size()) - 1;
  return writes * other_threads <= 6;
}

// Writes the corpus one architecture would fuzz (same seeds, same generator
// config) to `dir/<arch>/NNNN-fuzz-0xSEED.litmus`.  The exists-condition
// witnesses the smallest non-SC outcome when the program has one (the
// interesting question), and the wmm-expect directive embeds the operational
// verdict per architecture, so re-importing with litmus_run --litmus-dir
// re-asks every question and fails on drift.  Returns the number of files
// written: programs outside the printable subset or the cross-check budget
// (see cheap_to_cross_check) are skipped, deterministically for any
// --threads since skipping depends only on the seeded program shape.
int export_corpus(const std::string& dir, sim::Arch arch,
                  std::uint64_t base_seed, int count,
                  const sim::FuzzConfig& config, int threads) {
  const std::filesystem::path arch_dir =
      std::filesystem::path(dir) / sim::arch_name(arch);
  std::filesystem::create_directories(arch_dir);
  // Verdict enumeration dominates; fan it out and write in driver order so
  // the on-disk corpus is bit-identical for any thread count.
  const std::vector<std::string> files = bench::par_index_map(
      static_cast<std::size_t>(count), threads, [&](int i) -> std::string {
        const std::uint64_t seed =
            sim::hash_combine(base_seed, static_cast<std::uint64_t>(i));
        const sim::LitmusTest test = sim::generate_litmus(seed, config);
        if (!cheap_to_cross_check(test)) return {};
        if (!sim::printable_as(test, sim::LitmusDialect::X86) &&
            !sim::printable_as(test, sim::LitmusDialect::AArch64)) {
          return {};
        }
        const std::set<sim::Outcome> sc =
            sim::enumerate_outcomes(test, sim::Arch::SC);
        const std::set<sim::Outcome> own = sim::enumerate_outcomes(test, arch);
        sim::Outcome witness;
        for (const sim::Outcome& o : own) {
          if (!sc.count(o)) {
            witness = o;  // smallest relaxed outcome: the herd question proper
            break;
          }
        }
        if (witness.empty()) witness = *own.begin();
        sim::LitmusFile file = sim::to_litmus_file(test, witness);
        auto allowed_on = [&](sim::Arch a) {
          if (a == sim::Arch::SC) return sc.count(witness) != 0;
          if (a == arch) return own.count(witness) != 0;
          return sim::enumerate_outcomes(test, a).count(witness) != 0;
        };
        file.expected[sim::Arch::SC] = allowed_on(sim::Arch::SC);
        file.expected[sim::Arch::X86_TSO] = allowed_on(sim::Arch::X86_TSO);
        file.expected[sim::Arch::ARMV8] = allowed_on(sim::Arch::ARMV8);
        file.expected[sim::Arch::POWER7] = allowed_on(sim::Arch::POWER7);
        return sim::print_litmus(file);
      });
  // Dense output numbering (skips leave no gaps) so `litmus_run
  // --litmus-dir=... --export=...` writes the identical file names and the
  // CI byte-level diff can compare the two directories directly.
  int written = 0;
  for (int i = 0; i < count; ++i) {
    const std::string& text = files[static_cast<std::size_t>(i)];
    if (text.empty()) continue;
    const std::uint64_t seed =
        sim::hash_combine(base_seed, static_cast<std::uint64_t>(i));
    char name[48];
    std::snprintf(name, sizeof name, "%04d-fuzz-0x%llx.litmus", written,
                  static_cast<unsigned long long>(seed));
    const std::filesystem::path path = arch_dir / name;
    std::ofstream out(path);
    out << text;
    if (!out) {
      std::fprintf(stderr, "fuzz_conformance: cannot write %s\n",
                   path.c_str());
      std::exit(2);
    }
    ++written;
  }
  return written;
}

int replay(std::uint64_t seed, const std::vector<sim::Arch>& archs,
           const sim::AxiomaticOptions& options) {
  int failures = 0;
  for (sim::Arch arch : archs) {
    const sim::LitmusTest test =
        sim::generate_litmus(seed, sim::FuzzConfig::for_arch(arch));
    std::printf("== replay seed 0x%llx on %s ==\n",
                static_cast<unsigned long long>(seed), sim::arch_name(arch));
    std::printf("%s", sim::format_litmus(test).c_str());
    if (auto d = sim::check_conformance(test, arch, options)) {
      d->seed = seed;
      d->shrunk = sim::shrink_divergent(test, arch, options);
      if (auto ds = sim::check_conformance(d->shrunk, arch, options)) {
        d->outcome = ds->outcome;
        d->operational_allowed = ds->operational_allowed;
        d->axiomatic_allowed = ds->axiomatic_allowed;
        d->axiom = ds->axiom;
      }
      std::printf("%s", d->report().c_str());
      ++failures;
    } else {
      std::printf("  conformant: operational and axiomatic models agree\n");
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<sim::Arch> archs = parse_archs("all");
  int count = 1000;
  bool count_set = false;
  std::uint64_t base_seed = 0xc0ffee;
  std::uint64_t replay_seed = 0;
  bool do_replay = false;
  int max_divergences = 1;
  std::string export_dir;
  sim::AxiomaticOptions options;

  const std::vector<bench::FlagSpec> specs = {
      {"--arch", "A", "sc|tso|arm|power|all (default all)",
       [&](const std::string& v) {
         archs = parse_archs(v);
         return !archs.empty();
       }},
      {"--count", "N", "programs per architecture (default 1000)",
       [&](const std::string& v) {
         count_set = true;
         return parse_positive(v, count);
       }},
      {"--seed", "S", "base seed for program generation",
       [&](const std::string& v) { return bench::parse_u64(v, base_seed); }},
      {"--replay", "SEED", "replay one seed's program and exit",
       [&](const std::string& v) {
         do_replay = true;
         return bench::parse_u64(v, replay_seed);
       }},
      {"--weaken", "W",
       "plant a bug: tso-wr|deps|poloc|acqrel|power-lwsync-sync|"
       "power-bcumul|power-obs",
       [&](const std::string& v) { return parse_weaken(v, options); }},
      {"--max-divergences", "N", "stop an arch after N divergences (default 1)",
       [&](const std::string& v) { return parse_positive(v, max_divergences); }},
      {"--export-litmus", "DIR",
       "write the corpus to DIR/<arch>/*.litmus in herd7 syntax",
       [&](const std::string& v) {
         export_dir = v;
         return !v.empty();
       }},
  };
  bench::Session session(argc, argv,
                         "Differential litmus conformance fuzzer", "", specs);
  session.set_extra("seed", std::to_string(base_seed));
  session.set_extra("count", std::to_string(count));
  session.set_extra("power_check", "hc-exact");

  const bool has_power =
      std::find(archs.begin(), archs.end(), sim::Arch::POWER7) != archs.end();
  if (has_power) {
    std::printf("POWER check mode: exact Herding-Cats equality\n");
  }

  if (do_replay) return replay(replay_seed, archs, options);

  // A planted POWER bug is only witnessed by rare program shapes; give the
  // biased generator enough room to reach the first catch (see the teeth
  // corpus counts in tests/fuzz_conformance_test.cpp).
  int power_count = count;
  if (!count_set && options.power.any()) power_count = 5000;

  sim::FuzzRunOptions run;
  run.threads = session.threads();
  run.max_divergences = max_divergences;
  // --cache=DIR: answer previously conformant canonical programs from the
  // persistent store, so a warm fixed-seed corpus re-run skips simulation.
  // Stdout stays byte-identical either way.
  run.cache = session.cache();

  if (!export_dir.empty()) {
    int exported = 0;
    for (sim::Arch arch : archs) {
      const bool power = arch == sim::Arch::POWER7;
      exported += export_corpus(export_dir, arch, base_seed,
                                power ? power_count : count,
                                config_for(arch, options), run.threads);
    }
    std::printf("exported %d litmus tests to %s\n", exported,
                export_dir.c_str());
  }

  int failures = 0;
  for (sim::Arch arch : archs) {
    const bool power = arch == sim::Arch::POWER7;
    const double arch_start = session.elapsed_seconds();
    const sim::FuzzReport report = sim::run_conformance_corpus(
        arch, base_seed, power ? power_count : count, config_for(arch, options),
        options, run);
    const double arch_wall = session.elapsed_seconds() - arch_start;
    std::printf("%-8s %6d programs  %9lld outcomes cross-checked  %s\n",
                sim::arch_name(arch), report.programs, report.outcomes_checked,
                report.ok() ? "OK" : "DIVERGED");
    // Rates go to stderr and the JSONL throughput record only: stdout stays
    // byte-identical across thread counts and machines.
    std::fprintf(stderr,
                 "%-8s %.2fs  %.0f programs/s  %.0f outcomes/s  "
                 "memo %lld/%lld hit\n",
                 sim::arch_name(arch), arch_wall,
                 arch_wall > 0 ? report.programs / arch_wall : 0.0,
                 arch_wall > 0 ? report.outcomes_checked / arch_wall : 0.0,
                 report.memo_hits, report.memo_hits + report.memo_misses);
    obs::Throughput t;
    t.context = std::string("fuzz/") + sim::arch_name(arch);
    t.threads = run.threads;
    t.programs = report.programs;
    t.outcomes = report.outcomes_checked;
    t.wall_s = arch_wall;
    t.cache_hits = report.memo_hits;
    t.cache_misses = report.memo_misses;
    session.record_throughput(t);
    for (const sim::Divergence& d : report.divergences) {
      std::printf("%s", d.report().c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
