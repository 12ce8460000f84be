// The cross-oracle verdict for one parsed `.litmus` file: the herd question
// (is the final-state condition reachable?) per architecture, asked of both
// the operational executor and the axiomatic oracles.  bench/litmus_run
// emits one `litmus` record per verdict.
#pragma once

#include <string>

#include "obs/record.h"
#include "sim/litmus_format.h"

namespace wmm::cache {
class ResultCache;
}  // namespace wmm::cache

namespace wmm::sim {

// With a store attached the verdict is keyed by the *printed* program text
// (which embeds the final-state condition and any wmm-expect directives), so
// a warm corpus re-run answers from disk without touching either oracle.
obs::LitmusVerdict litmus_verdict(const LitmusFile& file,
                                  const std::string& source,
                                  cache::ResultCache* store);

}  // namespace wmm::sim
