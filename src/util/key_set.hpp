// key_set.hpp — a reusable set of 64-bit keys for per-walk and per-torrent
// dedup.
//
// The DHT walks dedup the endpoints they meet and the tracker crawl dedups
// the IPs each torrent's replies return. Both empty their set thousands of
// times per run, so it is cleared in O(1) by bumping a generation instead of
// touching every slot, and a warm set allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace btpub {

/// An open-addressing set of 64-bit keys, cleared in O(1) by bumping a
/// generation: a slot is occupied only when it carries the current one.
class KeySet {
 public:
  /// Empties the set, keeping its slots.
  void clear() noexcept {
    size_ = 0;
    if (++generation_ == 0) {
      // Wrapped: stale slots could now alias the new generation.
      for (Slot& slot : slots_) slot.generation = 0;
      generation_ = 1;
    }
  }

  /// Adds `key`; false when it is already present.
  bool insert(std::uint64_t key) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    return place(key);
  }

  std::size_t size() const noexcept { return size_; }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t generation = 0;  // 0 never matches: generation_ >= 1
  };

  /// Inserts `key` into a table with room for it.
  bool place(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the product's middle bits spread sequential
    // addresses, the common case in the synthetic address blocks.
    std::size_t at =
        static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
    while (slots_[at].generation == generation_) {
      if (slots_[at].key == key) return false;
      at = (at + 1) & mask;
    }
    slots_[at] = Slot{key, generation_};
    ++size_;
    return true;
  }

  void grow() {
    const std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
    const std::uint32_t live = generation_;
    generation_ = 1;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.generation == live) place(slot.key);
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t generation_ = 1;
  std::size_t size_ = 0;
};

}  // namespace btpub
