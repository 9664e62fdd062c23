// Out-of-order core model (Table 2: 3-wide issue, 1 memory instruction per
// cycle, 128-entry instruction window, in-order retirement).
//
// This is the component that gives NoC workloads their *self-throttling*
// property (paper §3.1): an L1 miss occupies a window slot until its reply
// returns, the window cannot retire past an incomplete instruction, and once
// the window fills the core stops issuing — so a congested network slows the
// offered load instead of collapsing it. Reproducing that closed loop
// faithfully is what makes the static-throttling curve of Fig. 2(c) peak at
// an interior operating point.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "cpu/cache.hpp"
#include "cpu/trace.hpp"

namespace nocsim {

class SyntheticTrace;

struct CoreParams {
  int window_size = 128;      ///< instruction window entries
  int issue_width = 3;        ///< instructions issued / retired per cycle
  int mem_issue_width = 1;    ///< memory instructions issued per cycle
  /// Outstanding L1 misses (MSHR entries). Together with the window this
  /// bounds a core's memory-level parallelism — the source of the
  /// self-throttling property: our synthetic instructions carry no data
  /// dependencies, so without an MSHR bound a single core could keep ~60
  /// misses in flight, far beyond what a real OoO core sustains.
  int max_outstanding_misses = 16;
  Cycle l1_hit_latency = 2;   ///< cycles until an L1 hit completes
  std::size_t l1_size_bytes = 128 * 1024;
  int l1_ways = 4;
  std::size_t block_bytes = 32;
};

struct CoreStats {
  std::uint64_t retired = 0;
  std::uint64_t issued = 0;
  std::uint64_t mem_issued = 0;
  std::uint64_t l1_misses_sent = 0;   ///< network requests created (post-coalescing)
  std::uint64_t window_full_cycles = 0;
};

class Core {
 public:
  /// Called when an L1 miss needs the network: the owner (simulator NI
  /// layer) packetizes and enqueues a request to the block's home slice.
  using MissFn = std::function<void(Addr block)>;

  Core(NodeId id, const CoreParams& params, std::unique_ptr<TraceSource> trace, MissFn on_miss)
      : id_(id),
        params_(params),
        l1_(params.l1_size_bytes, params.l1_ways, params.block_bytes),
        trace_(std::move(trace)),
        on_miss_(std::move(on_miss)),
        window_(static_cast<std::size_t>(params.window_size)),
        waiter_next_(static_cast<std::size_t>(params.window_size), kNoWaiter) {
    NOCSIM_CHECK(params.window_size > 0 && params.issue_width > 0);
    NOCSIM_CHECK(trace_ != nullptr);
    mshrs_.reserve(static_cast<std::size_t>(params.max_outstanding_misses));
    detect_trace_kind();
  }

  /// Functional warm-up: run `instructions` through the L1 with zero-latency
  /// fills and no timing, so measurement windows start from a warm cache
  /// instead of charging the compulsory-miss transient to the network.
  /// Call before the first step(); resets L1 statistics afterwards.
  void prewarm(std::uint64_t instructions);

  /// One clock cycle: retire completed instructions from the window head,
  /// then issue new ones while resources allow.
  void step(Cycle now);

  /// A data reply for `block` arrived: complete all coalesced waiters and
  /// fill the L1.
  void on_fill(Addr block, Cycle now);

  /// True when a step() can have no effect but counting a window-full
  /// cycle: the window is full and the head instruction is waiting on the
  /// network, so retirement is stuck and the front end cannot issue. Only
  /// on_fill() changes either condition, which lets the owner skip step()
  /// entirely until a fill arrives and replay the gap via skip_blocked().
  [[nodiscard]] bool blocked() const {
    return occupancy_ == static_cast<int>(window_.size()) &&
           window_[head_].ready_at == kWaiting;
  }

  /// Replay `cycles` skipped blocked cycles (each would have recorded one
  /// window-full cycle and nothing else). Caller contract: the core was
  /// blocked() for the whole gap — i.e. no on_fill() since it went to sleep.
  void skip_blocked(Cycle cycles) { stats_.window_full_cycles += cycles; }

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const CoreStats& stats() const { return stats_; }
  [[nodiscard]] const CacheStats& l1_stats() const { return l1_.stats(); }
  [[nodiscard]] std::size_t outstanding_misses() const { return mshrs_.size(); }
  [[nodiscard]] int window_occupancy() const { return occupancy_; }

  /// Instructions retired since the last epoch reset (for IPF measurement).
  [[nodiscard]] std::uint64_t epoch_retired() const { return epoch_retired_; }
  void reset_epoch() { epoch_retired_ = 0; }

  /// Instructions retired since construction; unlike CoreStats::retired it
  /// survives reset_stats(), so telemetry can sample it as a monotone
  /// counter across the warmup/measurement boundary.
  [[nodiscard]] std::uint64_t lifetime_retired() const { return lifetime_retired_; }

  void reset_stats() {
    stats_ = CoreStats{};
    l1_.reset_stats();
  }

 private:
  struct WindowEntry {
    Cycle ready_at = 0;      ///< retirement-eligible cycle; kWaiting if blocked
    bool valid = false;
  };
  static constexpr Cycle kWaiting = ~Cycle{0};

  void retire(Cycle now);
  void issue(Cycle now);
  void detect_trace_kind();

  NodeId id_;
  CoreParams params_;
  SetAssocCache l1_;
  std::unique_ptr<TraceSource> trace_;
  /// Non-null when trace_ is a SyntheticTrace (the overwhelmingly common
  /// source, one virtual next() per issued instruction otherwise): the
  /// final-class pointer lets fetches devirtualize and inline the
  /// generator into the issue loop. Set in core.cpp's constructor helper.
  SyntheticTrace* synth_ = nullptr;
  MissFn on_miss_;

  /// Fetch the next trace instruction through the devirtualized path when
  /// possible (defined in core.cpp, where SyntheticTrace is complete).
  [[nodiscard]] Insn fetch_insn();

  std::vector<WindowEntry> window_;  ///< ring buffer
  std::size_t head_ = 0;             ///< oldest entry
  std::size_t tail_ = 0;             ///< next free slot
  int occupancy_ = 0;

  /// Outstanding misses with their coalesced waiters. The MSHR bound keeps
  /// this tiny (<= max_outstanding_misses live entries), so an unordered
  /// flat array with linear lookup beats any node-based container: no
  /// allocation per miss, one cacheline scan per access. Waiters chain
  /// intrusively through waiter_next_ (indexed by window slot), and every
  /// waiter wakes with the same ready_at, so neither entry order nor chain
  /// order is observable.
  struct MshrEntry {
    Addr block;
    std::uint32_t head;  ///< first waiting window slot
    std::uint32_t tail;  ///< last waiting window slot (append point)
  };
  static constexpr std::uint32_t kNoWaiter = ~std::uint32_t{0};
  [[nodiscard]] std::size_t find_mshr(Addr block) const {
    for (std::size_t i = 0; i < mshrs_.size(); ++i)
      if (mshrs_[i].block == block) return i;
    return mshrs_.size();
  }
  std::vector<MshrEntry> mshrs_;
  std::vector<std::uint32_t> waiter_next_;  ///< per window slot: next coalesced waiter

  /// In-order front end: an instruction fetched but not yet issued (e.g. a
  /// memory op stalled on the memory port) stays staged across cycles.
  Insn staged_{};
  bool staged_valid_ = false;

  CoreStats stats_;
  std::uint64_t epoch_retired_ = 0;
  std::uint64_t lifetime_retired_ = 0;
};

}  // namespace nocsim
