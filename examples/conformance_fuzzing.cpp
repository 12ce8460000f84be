// Differential conformance fuzzing, end to end: generate a random litmus
// program from a seed, compare the operational executor against the
// independent axiomatic oracle, run a small corpus on every architecture,
// and demonstrate the oracle's teeth by weakening one axiom and watching the
// fuzzer catch it with a shrunk, replayable counterexample.
#include <iostream>

#include "sim/fuzz.h"
#include "sim/memory_model.h"

using namespace wmm;

int main() {
  // Step 1: one seeded program, both semantics side by side.
  std::cout << "step 1: one random program, operational vs axiomatic\n\n";
  const std::uint64_t seed = 0x5eedULL;
  const sim::LitmusTest program =
      sim::generate_litmus(seed, sim::FuzzConfig::for_arch(sim::Arch::ARMV8));
  std::cout << sim::format_litmus(program) << "\n";
  for (sim::Arch arch : {sim::Arch::SC, sim::Arch::X86_TSO, sim::Arch::ARMV8,
                         sim::Arch::POWER7}) {
    const auto operational = sim::enumerate_outcomes(program, arch);
    const auto axiomatic = sim::axiomatic_outcomes(program, arch);
    std::cout << "  " << sim::arch_name(arch) << ": " << operational.size()
              << " operational outcomes, " << axiomatic.size()
              << " axiomatic outcomes"
              << (operational == axiomatic ? " (equal)" : " (DIVERGENT!)")
              << "\n";
  }

  // Step 2: a small fixed-seed corpus on every architecture.
  std::cout << "\nstep 2: 200-program corpora (seed 0xc0ffee)\n\n";
  for (sim::Arch arch : {sim::Arch::SC, sim::Arch::X86_TSO, sim::Arch::ARMV8,
                         sim::Arch::POWER7}) {
    const sim::FuzzReport report =
        sim::run_conformance_corpus(arch, 0xc0ffee, 200);
    std::cout << "  " << sim::arch_name(arch) << ": " << report.programs
              << " programs, " << report.outcomes_checked
              << " outcomes cross-checked, "
              << (report.ok() ? "all conform" : "DIVERGENCE") << "\n";
  }

  // Step 3: teeth.  Drop TSO's mfence-restored store->load order from the
  // axioms; the differential fuzzer must now find a counterexample (the
  // classic SB+mfence shape) and shrink it.
  std::cout << "\nstep 3: weakened oracle (mfence no longer orders W->R)\n\n";
  sim::AxiomaticOptions weakened;
  weakened.drop_tso_store_load_fence = true;
  const sim::FuzzReport caught = sim::run_conformance_corpus(
      sim::Arch::X86_TSO, 0xc0ffee, 2000,
      sim::FuzzConfig::for_arch(sim::Arch::X86_TSO), weakened);
  if (caught.ok()) {
    std::cout << "  weakening NOT caught — oracle has lost its teeth\n";
    return 1;
  }
  std::cout << caught.divergences.front().report() << "\n";
  return 0;
}
