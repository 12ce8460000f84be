// Counter/metric registry with per-thread counter blocks.
//
// Subsystems register named counters once (string -> slot index, guarded by a
// mutex) and then increment them from hot simulator paths with no lock, no
// allocation and no read-modify-write instruction.  Two kinds of metric share
// the slot space: additive counters (`add`) and high-water-mark gauges
// (`record_max`, e.g. peak store-buffer occupancy).
//
// Each thread that counts into a registry gets its own cache-line-aligned
// block of kCapacity slots, and only that thread writes it, so an increment
// is a relaxed load plus a relaxed store to lines no other core touches.  (A
// single shared slot array costs a lock-prefixed fetch_add per event and
// bounces its cache lines between pool workers: on the parallel fig05 sweep
// that made two workers slower than one.)  Readers (`value`, `snapshot`)
// take the mutex and merge: counters sum over all blocks, gauges take the
// maximum.  The registry owns its blocks.  A thread that exits hands its
// blocks back to the free lists of the registries still alive, so pools
// that come and go reuse blocks instead of growing the block list; a block
// keeps its values when it changes hands, so totals lose nothing.
//
// The registry used by instrumentation is process-global: simulated machines
// are created deep inside workload bodies, so hooks reach the registry
// through `counters()` rather than plumbing a pointer through every
// constructor.  Consumers that need per-phase attribution (tests, the bench
// Session) snapshot before and after and diff; the simulator is
// deterministic, so same-seed runs produce bit-identical deltas at any
// thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wmm::obs {

using CounterId = std::uint32_t;
inline constexpr CounterId kInvalidCounter = ~CounterId{0};

class CounterRegistry {
 public:
  // Fixed slot capacity keeps the hot path a plain array index; registration
  // beyond the capacity returns kInvalidCounter (and add/record_max on it are
  // no-ops) rather than failing.
  static constexpr std::size_t kCapacity = 512;

  struct Entry {
    std::string name;
    std::uint64_t value = 0;
    bool is_gauge = false;
  };

  CounterRegistry();
  ~CounterRegistry();
  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  // Registers (or looks up) a counter by name.  Idempotent; thread-safe.
  CounterId register_counter(const std::string& name) {
    return register_slot(name, /*is_gauge=*/false);
  }
  // Registers a high-water-mark gauge (updated via record_max).
  CounterId register_gauge(const std::string& name) {
    return register_slot(name, /*is_gauge=*/true);
  }

  void add(CounterId id, std::uint64_t n = 1) {
    if (id >= kCapacity) return;
    // Only the calling thread writes its block, so a plain load and store
    // cannot lose an increment.  The accesses are relaxed atomics only so
    // that a concurrent value/snapshot read is not a data race.  Counter
    // records are compared byte for byte across thread counts, so the merged
    // totals must be exact.
    std::atomic<std::uint64_t>& slot = local_block().slots[id];
    slot.store(slot.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }

  void record_max(CounterId id, std::uint64_t v) {
    if (id >= kCapacity) return;
    std::atomic<std::uint64_t>& slot = local_block().slots[id];
    if (slot.load(std::memory_order_relaxed) < v) {
      slot.store(v, std::memory_order_relaxed);
    }
  }

  // Merged value: the sum over all blocks for a counter, the maximum for a
  // gauge.
  std::uint64_t value(CounterId id) const;

  // All registered metrics sorted by name; zero-valued entries included only
  // on request.
  std::vector<Entry> snapshot(bool include_zero = false) const;

  // Zeroes every value in every block; registrations (names/ids) persist.
  void reset_values();

  std::size_t registered() const;

  // Blocks allocated so far, in use or free (for tests of block reuse).
  std::size_t blocks() const;

 private:
  struct alignas(64) Block {
    std::atomic<std::uint64_t> slots[kCapacity] = {};
  };

  // The calling thread's last-used (registry generation, block).  Zero-
  // initialised and trivially destructible, so reading it is a plain TLS
  // load with no guard.  Generations start at 1, so the zero value never
  // matches a registry.
  struct ThreadCache {
    std::uint64_t generation;
    Block* block;
  };
  static inline thread_local ThreadCache cache_;

  Block& local_block() {
    if (cache_.generation == generation_) [[likely]] return *cache_.block;
    return attach_thread();
  }

  // Slow path of local_block: finds the calling thread's block for this
  // registry, or takes one from the free list, allocating when it is empty.
  Block& attach_thread();
  // Puts a block of an exiting thread back on the free list.
  void release(Block* block);
  std::uint64_t merged(std::size_t id) const;  // caller holds mutex_
  CounterId register_slot(const std::string& name, bool is_gauge);

  friend struct ThreadBlocks;

  const std::uint64_t generation_;
  mutable std::mutex mutex_;  // guards everything below
  std::vector<std::string> names_;
  std::vector<bool> gauge_;
  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<Block*> free_;
};

// The process-global registry used by all instrumentation hooks.
CounterRegistry& counters();

// Difference of two snapshots by name (after - before, saturating at zero for
// counters; gauges keep the `after` value, a high-water mark being absolute).
std::vector<CounterRegistry::Entry> snapshot_delta(
    const std::vector<CounterRegistry::Entry>& before,
    const std::vector<CounterRegistry::Entry>& after);

}  // namespace wmm::obs
