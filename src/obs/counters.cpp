#include "obs/counters.h"

#include <algorithm>
#include <map>
#include <utility>

namespace wmm::obs {

namespace {

// Registries alive right now, by generation.  Never destroyed: threads may
// exit, and hand their blocks back, while static destructors run.
struct LiveRegistries {
  std::mutex mutex;  // taken before any registry's own mutex
  std::uint64_t next_generation = 1;
  std::map<std::uint64_t, CounterRegistry*> by_generation;
};

LiveRegistries& live() {
  static LiveRegistries* l = new LiveRegistries;
  return *l;
}

std::uint64_t enroll(CounterRegistry* registry) {
  std::lock_guard<std::mutex> lock(live().mutex);
  const std::uint64_t generation = live().next_generation++;
  live().by_generation.emplace(generation, registry);
  return generation;
}

// Set once the calling thread's blocks have gone back to their registries.
thread_local bool t_blocks_released = false;

}  // namespace

// The blocks the calling thread holds, one per registry it has counted into.
// Entries of registries destroyed since stay behind; the generation lookup
// below skips them, and the pointer is never read again.
struct ThreadBlocks {
  std::vector<std::pair<std::uint64_t, CounterRegistry::Block*>> held;

  ~ThreadBlocks() {
    CounterRegistry::cache_ = {};
    t_blocks_released = true;
    std::lock_guard<std::mutex> lock(live().mutex);
    for (const auto& [generation, block] : held) {
      const auto it = live().by_generation.find(generation);
      if (it != live().by_generation.end()) it->second->release(block);
    }
  }
};

CounterRegistry::CounterRegistry() : generation_(enroll(this)) {}

CounterRegistry::~CounterRegistry() {
  std::lock_guard<std::mutex> lock(live().mutex);
  live().by_generation.erase(generation_);
}

CounterRegistry::Block& CounterRegistry::attach_thread() {
  // A thread_local destructor may count after this thread's ThreadBlocks is
  // gone; the block it takes then is never handed back.
  ThreadBlocks* mine = nullptr;
  if (!t_blocks_released) {
    thread_local ThreadBlocks blocks;
    mine = &blocks;
  }
  Block* block = nullptr;
  if (mine != nullptr) {
    for (const auto& [generation, held] : mine->held) {
      if (generation == generation_) block = held;
    }
  }
  if (block == nullptr) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (free_.empty()) {
        block = blocks_.emplace_back(std::make_unique<Block>()).get();
      } else {
        block = free_.back();
        free_.pop_back();
      }
    }
    if (mine != nullptr) mine->held.emplace_back(generation_, block);
  }
  cache_ = {generation_, block};
  return *block;
}

void CounterRegistry::release(Block* block) {
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(block);
}

std::uint64_t CounterRegistry::merged(std::size_t id) const {
  const bool is_gauge = id < gauge_.size() && gauge_[id];
  std::uint64_t v = 0;
  for (const auto& block : blocks_) {
    const std::uint64_t x = block->slots[id].load(std::memory_order_relaxed);
    v = is_gauge ? std::max(v, x) : v + x;
  }
  return v;
}

std::uint64_t CounterRegistry::value(CounterId id) const {
  if (id >= kCapacity) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return merged(id);
}

CounterId CounterRegistry::register_slot(const std::string& name,
                                         bool is_gauge) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<CounterId>(i);
  }
  if (names_.size() >= kCapacity) return kInvalidCounter;
  names_.push_back(name);
  gauge_.push_back(is_gauge);
  return static_cast<CounterId>(names_.size() - 1);
}

std::vector<CounterRegistry::Entry> CounterRegistry::snapshot(
    bool include_zero) const {
  std::vector<Entry> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const std::uint64_t v = merged(i);
    if (v == 0 && !include_zero) continue;
    out.push_back(Entry{names_[i], v, static_cast<bool>(gauge_[i])});
  }
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
  return out;
}

void CounterRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& block : blocks_) {
    for (auto& slot : block->slots) slot.store(0, std::memory_order_relaxed);
  }
}

std::size_t CounterRegistry::registered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return names_.size();
}

std::size_t CounterRegistry::blocks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return blocks_.size();
}

CounterRegistry& counters() {
  // Never destroyed, so a pool thread that counts or exits while static
  // destructors run still finds its blocks.
  static CounterRegistry* registry = new CounterRegistry;
  return *registry;
}

std::vector<CounterRegistry::Entry> snapshot_delta(
    const std::vector<CounterRegistry::Entry>& before,
    const std::vector<CounterRegistry::Entry>& after) {
  std::map<std::string, std::uint64_t> base;
  for (const auto& e : before) base[e.name] = e.value;
  std::vector<CounterRegistry::Entry> out;
  for (const auto& e : after) {
    CounterRegistry::Entry d = e;
    if (!d.is_gauge) {
      const auto it = base.find(d.name);
      const std::uint64_t b = it == base.end() ? 0 : it->second;
      d.value = d.value > b ? d.value - b : 0;
    }
    if (d.value != 0) out.push_back(std::move(d));
  }
  return out;
}

}  // namespace wmm::obs
