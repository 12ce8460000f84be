// The fence-synthesis search: minimal-cost assignment over the slot lattice.
//
// Exact mode enumerates the (small, per-slot-menu) assignment lattice in
// ascending cost order and returns the first correct candidate — which is
// therefore a true cost minimum.  Oracle calls are pruned with the lattice's
// monotonicity (correctness is upward-closed):
//
//   * a candidate that dominates a known-correct assignment (slot-wise >=)
//     is correct without asking the oracle (upset pruning);
//   * a candidate dominated by a known-incorrect assignment is incorrect
//     without asking (downset pruning);
//   * only oracle-verified frontier points enter the known sets, so the
//     sets stay small.
//
// Greedy mode starts from the all-strongest assignment (the lattice top,
// which dominates every candidate — so "top incorrect" == "infeasible") and
// repeatedly weakens each slot to the weakest menu entry that keeps the
// whole assignment correct, until a fixpoint.  It needs O(slots * menu)
// oracle calls and returns a correct, minimal-per-slot — but possibly not
// globally minimum-cost — fix.
//
// Results are memoized through cache/store.h under the "synth" domain: the
// key encodes the skeleton program, architecture, forbidden outcomes, slot
// menus, search mode and cost configuration; the value round-trips the full
// SynthResult (shortest-round-trip doubles), so a warm run emits
// byte-identical records without touching either the oracle or the machine.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/record.h"
#include "synth/cost.h"
#include "synth/oracle.h"

namespace wmm::cache {
class ResultCache;
}  // namespace wmm::cache

namespace wmm::synth {

enum class SearchMode : std::uint8_t { Exact, Greedy };

const char* search_mode_name(SearchMode mode);  // "exact" / "greedy"
std::optional<SearchMode> search_mode_from_name(const std::string& name);
std::optional<CostModel> cost_model_from_name(const std::string& name);

struct SynthOptions {
  SearchMode mode = SearchMode::Exact;
  CostOptions cost;
  // Classify every candidate and return all correct assignments ranked by
  // cost (exact mode only; the validation mode needs the full ranking).
  bool rank_all = false;
  cache::ResultCache* cache = nullptr;  // optional "synth"-domain memo
};

struct SynthStats {
  std::uint64_t candidates = 0;        // assignments examined
  std::uint64_t oracle_queries = 0;    // evaluator verdicts computed
  std::uint64_t pruned_correct = 0;    // upset-pruned (dominates a fix)
  std::uint64_t pruned_incorrect = 0;  // downset-pruned (under a failure)
  bool cache_hit = false;              // answered from the result store
};

struct RankedFix {
  Assignment assignment;
  double cost_ns = 0.0;
};

struct SynthResult {
  bool feasible = false;
  Assignment best;      // minimal-cost correct assignment (when feasible)
  double cost_ns = 0.0; // its cost under the requested model
  // Correct assignments in ascending cost order: just `best` normally, every
  // correct candidate under rank_all.
  std::vector<RankedFix> ranked;
  SynthStats stats;
};

SynthResult synthesize(const SynthProblem& problem,
                       const SynthOptions& options);

// Cache round-trip, exposed for the cold/warm byte-identity test.  The
// serialized form uses shortest-round-trip doubles, so
// parse_result(serialize_result(r)) reproduces every field exactly
// (cache_hit excluded — it describes the lookup, not the result).
std::string serialize_result(const SynthResult& result);
std::optional<SynthResult> parse_result(const std::string& text);
std::string problem_cache_key(const SynthProblem& problem,
                              const SynthOptions& options);

// One fence-synthesis answer for `test` on `arch` under the restore-SC
// objective (forbid every outcome the arch admits that SC does not) — the
// single implementation behind bench/fence_synth's `synth` records.
// `options.cache` is overridden by `store` (pass the same pointer or null);
// `options.cost.contexts`, when non-empty, must be sized per slot of
// make_problem's skeleton.
obs::SynthRecord synth_record(const sim::LitmusTest& test, sim::Arch arch,
                              SynthOptions options, cache::ResultCache* store);

}  // namespace wmm::synth
