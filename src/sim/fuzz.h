// Differential conformance fuzzing for the simulated memory models.
//
// A seeded generator produces small random litmus programs (2–4 threads over
// a handful of shared locations, with plain/acquire/release accesses, every
// FenceKind, and address/data/control dependencies).  Each program is run
// through both the operational executor (memory_model.h) and the independent
// axiomatic checker (axiomatic.h); any disagreement is a *divergence*, which
// is automatically shrunk to a minimal program and reported together with the
// generating seed so it replays deterministically:
//
//     build/bench/fuzz_conformance --arch=arm --replay=0x1234abcd
//
// Conformance is exact outcome-set equality on every architecture.  The
// axiomatic side is one candidate-execution engine applying each
// architecture's own axioms: acyclic(ppo ∪ rf ∪ co ∪ fr) on SC, X86_TSO and
// ARMV8, the four Herding-Cats axioms on POWER7.  A POWER7 divergence also
// names the axiom that forbade the outcome (axiomatic_power.h).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/axiomatic.h"
#include "sim/litmus.h"

namespace wmm::cache {
class ResultCache;
}  // namespace wmm::cache

namespace wmm::sim {

// Program-shape bounds for the generator.  The defaults keep both the
// operational search and the axiomatic candidate enumeration tractable;
// POWER gets tighter bounds (see FuzzConfig::for_arch).
struct FuzzConfig {
  int min_threads = 2;
  int max_threads = 4;
  int min_instrs_per_thread = 1;
  int max_instrs_per_thread = 4;
  int max_total_instrs = 8;
  int max_total_writes = 4;
  int max_vars = 3;
  double fence_probability = 0.22;
  double dep_probability = 0.35;
  double acquire_release_probability = 0.12;
  // Fences drawn (uniformly) when a fence slot is generated.  Mixing ISAs is
  // intentional: the executor and checker both give every FenceKind a single
  // cross-architecture semantics.
  std::vector<FenceKind> fence_alphabet = {
      FenceKind::DmbIsh,   FenceKind::DmbIshLd, FenceKind::DmbIshSt,
      FenceKind::DsbSy,    FenceKind::Isb,      FenceKind::CtrlIsb,
      FenceKind::HwSync,   FenceKind::LwSync,   FenceKind::ISync,
      FenceKind::Mfence,   FenceKind::Nop,
  };

  // Per-architecture default shapes (POWER: smaller programs).
  static FuzzConfig for_arch(Arch arch);

  // Biased POWER shapes for exercising the exact model's teeth: the default
  // generator at POWER's size budget almost never emits the store-buffering
  // or write-read-causality shapes that witness a weakened POWER axiom, so
  // the teeth tests (and fuzz_conformance --weaken=power-*) fuzz with these
  // instead.  `power_teeth_sb` biases towards two-thread store-buffering
  // with lwsync/sync fences (catches lwsync_is_sync);  `power_teeth_wrc`
  // towards three-thread causality chains (catches drop_b_cumulativity and
  // drop_observation).
  static FuzzConfig power_teeth_sb();
  static FuzzConfig power_teeth_wrc();
};

// Deterministically generate the litmus program for `seed`.
LitmusTest generate_litmus(std::uint64_t seed, const FuzzConfig& config = {});

// Human-readable forms used in divergence reports and the explorer example.
std::string format_litmus(const LitmusTest& test);
std::string format_outcome(const LitmusTest& test, const Outcome& outcome);

// One operational-vs-axiomatic disagreement.
struct Divergence {
  Arch arch = Arch::ARMV8;
  std::uint64_t seed = 0;      // generator seed; 0 when hand-constructed
  LitmusTest original;
  LitmusTest shrunk;
  Outcome outcome;             // witness outcome the two sides disagree on
  bool operational_allowed = false;
  bool axiomatic_allowed = false;
  std::string axiom;  // "exact" or "power-hc-exact[/AXIOM]"

  // Multi-line report: verdicts, shrunk program, replay command line.
  std::string report() const;
};

// Cross-check one program on one architecture.  Returns the (un-shrunk)
// divergence, or nullopt when the two models agree.
std::optional<Divergence> check_conformance(const LitmusTest& test, Arch arch,
                                            const AxiomaticOptions& options = {});

// Greedily minimise `test` while check_conformance keeps reporting a
// divergence: drop threads, drop instructions, strip dependency/acquire/
// release annotations, then compact variable and register numbering.
// Deterministic: the same input always shrinks to the same program.
LitmusTest shrink_divergent(const LitmusTest& test, Arch arch,
                            const AxiomaticOptions& options = {});

struct FuzzReport {
  Arch arch = Arch::ARMV8;
  std::uint64_t base_seed = 0;
  int programs = 0;
  long long outcomes_checked = 0;   // total operational outcomes compared
  long long memo_hits = 0;          // programs answered without simulation
                                    // (in-memory memo or on-disk store)
  long long memo_misses = 0;        // programs fully cross-checked
  long long store_hits = 0;         // subset of memo_hits answered by the
                                    // persistent store (FuzzRunOptions::cache)
  std::vector<Divergence> divergences;  // already shrunk

  bool ok() const { return divergences.empty(); }
};

// Execution policy for run_conformance_corpus.  Every field is independent
// of the report contents: the report (and stdout built from it) is
// bit-identical for any `threads` value, because seeds are generated,
// deduplicated, and merged in seed order on the driver thread and only the
// per-program cross-checks fan out.
struct FuzzRunOptions {
  // Worker threads for the per-program cross-checks; <=1 keeps everything on
  // the calling thread.
  int threads = 1;
  // Stop an architecture's corpus after this many divergences.
  int max_divergences = 1;
  // Canonical-program memo: programs isomorphic to an already-conformant
  // program (same shape modulo thread order and var/reg/value numbering) are
  // answered from the cache.  Divergent programs are never cached, so every
  // divergence is still recomputed and reported exactly.
  bool memoize = true;
  // Seeds scanned per dispatch wave.  Fixed — never derived from `threads` —
  // so the dedup pattern, counter totals, and early-stop point match across
  // thread counts.
  int chunk_size = 256;
  // Persistent content-addressed store (cache/store.h).  Consulted on every
  // in-memory memo miss under a key of canonical_program_key plus the
  // arch/config/options fingerprint; conformant verdicts are written back,
  // divergent programs never are, so a warm corpus re-run skips simulation
  // for every previously conformant program while still recomputing and
  // reporting any divergence exactly.  Report contents (programs, outcomes,
  // divergences) are byte-identical with or without the store; only the
  // hit/miss accounting (identity-excluded) differs.
  cache::ResultCache* cache = nullptr;
};

// Cache-key prefix for one (arch, generator config, axiomatic options)
// combination; the per-program suffix is canonical_program_key.  Any field
// that changes a conformance verdict or an outcome count must be encoded
// here.
std::string fuzz_cache_prefix(Arch arch, const FuzzConfig& config,
                              const AxiomaticOptions& options);

// Canonical structural key for a generated program: the lexicographically
// smallest encoding over all thread orderings, with variables, registers,
// and written values renumbered by encounter order.  Two programs with equal
// keys are isomorphic, so they have the same conformance verdict and the
// same operational outcome-set size.
std::string canonical_program_key(const LitmusTest& test);

// Run `count` generated programs (seeds derived from `base_seed` via
// hash_combine(base_seed, index)) through check_conformance on `arch`,
// shrinking each divergence.
FuzzReport run_conformance_corpus(Arch arch, std::uint64_t base_seed, int count,
                                  const FuzzConfig& config,
                                  const AxiomaticOptions& options,
                                  const FuzzRunOptions& run);

// Compatibility overload: sequential, no memo cache, stop after
// `max_divergences` failures — the pre-parallel-engine behaviour.
FuzzReport run_conformance_corpus(Arch arch, std::uint64_t base_seed, int count,
                                  const FuzzConfig& config,
                                  const AxiomaticOptions& options = {},
                                  int max_divergences = 1);

// Convenience overload using FuzzConfig::for_arch(arch).
FuzzReport run_conformance_corpus(Arch arch, std::uint64_t base_seed,
                                  int count);

}  // namespace wmm::sim
