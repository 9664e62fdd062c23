// Set-associative cache with LRU replacement — models each core's private L1
// (Table 2: 128 KB, 4-way, 32 B blocks). The shared L2 is perfect in the
// paper's methodology, so only the L1 needs real tag state: its miss stream
// is what generates network traffic, and an application's miss rate is what
// determines its IPF class.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace nocsim {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  [[nodiscard]] double miss_rate() const {
    const auto total = hits + misses;
    return total ? static_cast<double>(misses) / static_cast<double>(total) : 0.0;
  }
};

class SetAssocCache {
 public:
  SetAssocCache(std::size_t size_bytes, int ways, std::size_t block_bytes)
      : ways_(ways),
        block_bytes_(block_bytes),
        sets_(size_bytes / (block_bytes * static_cast<std::size_t>(ways))),
        tags_(sets_ * static_cast<std::size_t>(ways), kEmptyTag),
        lru_(sets_ * static_cast<std::size_t>(ways), 0) {
    NOCSIM_CHECK(ways > 0 && block_bytes > 0);
    NOCSIM_CHECK_MSG(sets_ > 0, "cache smaller than one set");
    NOCSIM_CHECK_MSG((sets_ & (sets_ - 1)) == 0, "set count must be a power of two");
  }

  [[nodiscard]] Addr block_of(Addr byte_addr) const { return byte_addr / block_bytes_; }

  /// Look up a block; updates LRU on hit. Does NOT allocate on miss — the
  /// fill happens when the data returns from the network (see fill()), which
  /// matters under coalesced outstanding misses.
  bool access(Addr block) {
    const std::size_t base = set_of(block) * static_cast<std::size_t>(ways_);
    for (int w = 0; w < ways_; ++w) {
      if (tags_[base + static_cast<std::size_t>(w)] == block) {
        lru_[base + static_cast<std::size_t>(w)] = ++tick_;
        ++stats_.hits;
        return true;
      }
    }
    ++stats_.misses;
    return false;
  }

  /// Probe without LRU update or stats (used by tests).
  [[nodiscard]] bool contains(Addr block) const {
    const std::size_t base = set_of(block) * static_cast<std::size_t>(ways_);
    for (int w = 0; w < ways_; ++w)
      if (tags_[base + static_cast<std::size_t>(w)] == block) return true;
    return false;
  }

  /// Insert a block, evicting the set's LRU line if needed.
  void fill(Addr block) {
    const std::size_t base = set_of(block) * static_cast<std::size_t>(ways_);
    std::size_t victim = base;
    for (int w = 0; w < ways_; ++w) {
      const std::size_t i = base + static_cast<std::size_t>(w);
      if (tags_[i] == block) {  // already present (raced fill)
        lru_[i] = ++tick_;
        return;
      }
      if (tags_[i] == kEmptyTag) {
        victim = i;
        break;
      }
      if (lru_[i] < lru_[victim]) victim = i;
    }
    tags_[victim] = block;
    lru_[victim] = ++tick_;
  }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }
  [[nodiscard]] std::size_t num_sets() const { return sets_; }
  [[nodiscard]] int ways() const { return ways_; }
  [[nodiscard]] std::size_t block_bytes() const { return block_bytes_; }

 private:
  /// Tag lane sentinel for an unfilled line. A real block index can never
  /// reach it: blocks are byte addresses divided by the block size.
  static constexpr Addr kEmptyTag = ~Addr{0};

  [[nodiscard]] std::size_t set_of(Addr block) const {
    return static_cast<std::size_t>(block) & (sets_ - 1);
  }

  int ways_;
  std::size_t block_bytes_;
  std::size_t sets_;
  /// SoA lanes indexed [set * ways + way]: a 4-way set's tags occupy half a
  /// cacheline, so the (host-cold) random-set lookup touches one line where
  /// an array-of-structs layout spanned two; the LRU lane is only written
  /// on hits and fills.
  std::vector<Addr> tags_;
  std::vector<std::uint64_t> lru_;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

}  // namespace nocsim
