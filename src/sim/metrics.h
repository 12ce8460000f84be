// Counter slots for the timing simulator's observability hooks.
//
// All simulator events feed the process-global obs::CounterRegistry under a
// "sim." prefix: fence executions per FenceKind, store-buffer traffic and
// pressure, invalidation-queue activity, coherence directory / bus
// transactions, and branch-predictor outcomes.  Slots are registered lazily
// on first use; the hot-path cost of a hook is one relaxed load and store on
// the calling thread's own counter block.
#pragma once

#include <cstdint>

#include "obs/counters.h"
#include "sim/fence.h"

namespace wmm::sim {

struct SimCounterIds {
  // One counter per FenceKind, "sim.fence.<name>" (None/CompilerOnly
  // included: they are code-path executions even when no instruction is
  // emitted).
  obs::CounterId fence[kNumFenceKinds];

  obs::CounterId sb_stores;          // stores retired into a store buffer
  obs::CounterId sb_full_stalls;     // pushes that back-pressured the core
  obs::CounterId sb_occupancy_hwm;   // gauge: peak buffered entries
  obs::CounterId sb_drain_flushes;   // fences that exposed a non-empty drain

  obs::CounterId invq_received;      // invalidations landing in a queue
  obs::CounterId invq_drains;        // queue drains forced by fences/acquires
  obs::CounterId invq_drained;       // entries acknowledged by those drains

  obs::CounterId bus_transactions;   // bus reservations (transfers)
  obs::CounterId coh_misses;         // loads hitting a line modified elsewhere
  obs::CounterId coh_transfers;      // stores taking ownership from elsewhere
  obs::CounterId coh_invalidations;  // invalidation messages sent

  obs::CounterId branches;
  obs::CounterId branch_mispredicts;

  obs::CounterId machine_runs;       // Machine::run invocations
  obs::CounterId stw_pauses;         // stop-the-world stalls (GC)
};

// The lazily-registered slot table (one per process).
const SimCounterIds& sim_counters();

}  // namespace wmm::sim
