// POWER7 entry points of the axiomatic engine (axiomatic.h), which holds
// the exact Herding-Cats model of the simulated POWER machine: the four
// axioms SC-PER-LOCATION, NO-THIN-AIR, PROPAGATION and OBSERVATION.  This
// header names those axioms and asks which one forbids an outcome; the
// outcome sets themselves come from axiomatic_outcomes(test, Arch::POWER7).
#pragma once

#include <set>

#include "sim/axiomatic.h"

namespace wmm::sim {

// The four Herding-Cats checks, in the order they are applied.  `None`
// means the candidate (or outcome) is allowed.
enum class PowerAxiom {
  None,
  ScPerLocation,
  NoThinAir,
  Propagation,
  Observation,
};

const char* power_axiom_name(PowerAxiom axiom);

// All outcomes admitted by the POWER axioms.
inline std::set<Outcome> power_axiomatic_outcomes(const LitmusTest& test) {
  return axiomatic_outcomes(test, Arch::POWER7);
}

// Which axiom forbids `outcome`?  Returns PowerAxiom::None when the outcome
// is allowed; otherwise the *latest* check reached by any candidate
// execution producing the outcome — i.e. the axiom that did the real work
// (every earlier check passed for at least one candidate).  Used by tests,
// litmus_matrix and the fuzzer's divergence reports to pin each shape to the
// axiom that kills it.
PowerAxiom power_forbidding_axiom(const LitmusTest& test,
                                  const Outcome& outcome,
                                  const AxiomaticOptions& options = {});

}  // namespace wmm::sim
