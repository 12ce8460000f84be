// Per-enumeration arena allocator and packed tuple set for the operational
// litmus executor's search.
//
// One outcome enumeration is a search over thousands of machine states.  The
// arena holds everything the search indexes by event, write or depth (the
// event columns, the commit-order masks, one state block per depth) in bump
// allocation out of a chunk that is *reused* across enumerations: the first
// enumeration on a thread sizes the chunk, every later one of the same shape
// runs allocation-free.  Litmus-scale programs fit in the inline first chunk
// and never touch the heap at all.
//
// Lifetime rules (see docs/simulator.md, "Arena lifetime rules"):
//   - All allocations are trivially-destructible PODs; the arena never runs
//     destructors.
//   - `reset()` reclaims everything at once between programs.  Pointers from
//     before a reset are invalid.
//   - Within one cycle, every allocation stays valid until the reset even if
//     the arena grows (retired chunks are kept alive, not freed).
//   - After a reset the arena coalesces into a single chunk sized to the
//     cycle's high-water mark, so a steady-state workload settles into one
//     allocation-free chunk (pinned by
//     MachineRewrite.ArenaHighWaterStableAcrossReuse).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace wmm::sim {

struct ArenaStats {
  std::size_t reserved_bytes = 0;    // capacity currently held
  std::size_t high_water_bytes = 0;  // max bytes live in any one cycle
  std::uint64_t resets = 0;          // completed cycles
};

class Arena {
 public:
  // The arena starts bump-allocating out of `inline_chunk` (typically a
  // member array of the owning workspace) and only heap-allocates when a
  // cycle outgrows it.
  Arena(std::byte* inline_chunk, std::size_t inline_size)
      : inline_base_(inline_chunk),
        inline_size_(inline_size),
        base_(inline_chunk),
        cap_(inline_size) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // `n` default-initialised (i.e. uninitialised) Ts.  T must be trivial: the
  // arena runs no constructors or destructors.
  template <typename T>
  T* alloc(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);
    const std::size_t align = alignof(T);
    std::size_t used = (used_ + align - 1) & ~(align - 1);
    const std::size_t bytes = n * sizeof(T);
    if (used + bytes > cap_) {
      grow_chunk(bytes + align);
      used = (used_ + align - 1) & ~(align - 1);
    }
    T* p = reinterpret_cast<T*>(base_ + used);
    used_ = used + bytes;
    return p;
  }

  // Zero-filled variant for index/floor tables.
  template <typename T>
  T* alloc_zero(std::size_t n) {
    T* p = alloc<T>(n);
    std::memset(static_cast<void*>(p), 0, n * sizeof(T));
    return p;
  }

  // Reclaim the whole cycle.  Retired overflow chunks are coalesced into one
  // chunk sized to the cycle's total, so the next cycle of the same shape is
  // a single allocation-free bump sequence.
  void reset() {
    const std::size_t cycle_bytes = retired_bytes_ + used_;
    if (cycle_bytes > stats_.high_water_bytes) {
      stats_.high_water_bytes = cycle_bytes;
    }
    ++stats_.resets;
    if (!retired_.empty()) {
      // Outgrew the current chunk this cycle: replace everything with one
      // chunk that would have fit the whole cycle.
      retired_.clear();
      retired_bytes_ = 0;
      if (cycle_bytes <= inline_size_) {
        heap_.reset();
        base_ = inline_base_;
        cap_ = inline_size_;
      } else {
        const std::size_t want = cycle_bytes + cycle_bytes / 2;
        heap_ = std::make_unique<std::byte[]>(want);
        base_ = heap_.get();
        cap_ = want;
      }
    }
    used_ = 0;
    stats_.reserved_bytes = cap_;
  }

  ArenaStats stats() const {
    ArenaStats s = stats_;
    s.reserved_bytes = cap_;
    return s;
  }

 private:
  void grow_chunk(std::size_t need) {
    // Retire the current chunk (allocations in it stay live until reset).
    if (base_ != inline_base_) {
      retired_.push_back(std::move(heap_));
    }
    retired_bytes_ += used_;
    const std::size_t want = need > cap_ * 2 ? need : cap_ * 2;
    heap_ = std::make_unique<std::byte[]>(want);
    base_ = heap_.get();
    cap_ = want;
    used_ = 0;
  }

  std::byte* inline_base_;
  std::size_t inline_size_;
  std::byte* base_;
  std::size_t cap_;
  std::size_t used_ = 0;
  std::unique_ptr<std::byte[]> heap_;  // current heap chunk, if any
  std::vector<std::unique_ptr<std::byte[]>> retired_;
  std::size_t retired_bytes_ = 0;
  ArenaStats stats_;
};

// Deduplicating set of fixed-width uint32 tuples, open addressing.  Distinct
// tuples are appended to a flat pool (`entry(i)` = i-th distinct tuple in
// first-seen order); the hash table stores pool indices + 1.  The enumerator
// keeps two per thread, one for packed outcomes and one for its visited
// states: their storage is plain vectors owned by the set, so `reset` keeps
// the capacity the largest program so far needed and a steady workload
// inserts without allocating, and a grown table leaves no dead copies behind
// (the arena would hold every outgrown pool and table until its reset).
class PackedTupleSet {
 public:
  // Empty the set for tuples of `width` words; keeps the storage.
  void reset(std::uint32_t width) {
    width_ = width;
    count_ = 0;
    pool_.clear();
    table_.assign(kInitialSlots, 0);
    mask_ = kInitialSlots - 1;
  }

  // Insert the tuple at `v`; returns true when it is new.
  bool insert(const std::uint32_t* v) {
    std::size_t slot = static_cast<std::size_t>(hash(v)) & mask_;
    for (std::uint32_t e; (e = table_[slot]) != 0; slot = (slot + 1) & mask_) {
      if (width_ == 0 ||
          std::memcmp(entry(e - 1), v, width_ * sizeof(std::uint32_t)) == 0) {
        return false;
      }
    }
    pool_.insert(pool_.end(), v, v + width_);
    table_[slot] = ++count_;
    if (static_cast<std::size_t>(count_) * 10 > (mask_ + 1) * 7) rehash();
    return true;
  }

  std::uint32_t size() const { return count_; }
  const std::uint32_t* entry(std::uint32_t i) const {
    return pool_.data() + static_cast<std::size_t>(i) * width_;
  }
  std::size_t reserved_bytes() const {
    return (pool_.capacity() + table_.capacity()) * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::size_t kInitialSlots = 128;

  std::uint64_t hash(const std::uint32_t* v) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t i = 0; i < width_; ++i) {
      h = (h ^ v[i]) * 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    return h;
  }

  void rehash() {
    table_.assign((mask_ + 1) * 2, 0);
    mask_ = table_.size() - 1;
    for (std::uint32_t e = 1; e <= count_; ++e) {
      std::size_t slot = static_cast<std::size_t>(hash(entry(e - 1))) & mask_;
      while (table_[slot] != 0) slot = (slot + 1) & mask_;
      table_[slot] = e;
    }
  }

  std::uint32_t width_ = 0;
  std::uint32_t count_ = 0;
  std::vector<std::uint32_t> pool_;
  std::vector<std::uint32_t> table_;
  std::size_t mask_ = 0;
};

}  // namespace wmm::sim
