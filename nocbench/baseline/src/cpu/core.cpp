#include "cpu/core.hpp"

#include "workload/synth_trace.hpp"

namespace nocsim {

void Core::detect_trace_kind() { synth_ = dynamic_cast<SyntheticTrace*>(trace_.get()); }

Insn Core::fetch_insn() {
  // SyntheticTrace is final: the cast devirtualizes and inlines the
  // generator (one RNG draw per instruction) into the caller.
  return synth_ != nullptr ? synth_->next() : trace_->next();
}

void Core::prewarm(std::uint64_t instructions) {
  NOCSIM_CHECK_MSG(stats_.issued == 0, "prewarm must precede the first step()");
  for (std::uint64_t i = 0; i < instructions; ++i) {
    const Insn insn = fetch_insn();
    if (!insn.is_mem) continue;
    const Addr block = l1_.block_of(insn.addr);
    if (!l1_.access(block)) l1_.fill(block);
  }
  l1_.reset_stats();
}

void Core::step(Cycle now) {
  retire(now);
  issue(now);
}

void Core::retire(Cycle now) {
  int retired = 0;
  while (retired < params_.issue_width && occupancy_ > 0) {
    WindowEntry& head = window_[head_];
    NOCSIM_DCHECK(head.valid);
    if (head.ready_at == kWaiting || head.ready_at > now) break;  // in-order retirement
    head.valid = false;
    if (++head_ == window_.size()) head_ = 0;  // branch, not a modulo divide
    --occupancy_;
    ++retired;
    ++stats_.retired;
    ++epoch_retired_;
    ++lifetime_retired_;
  }
}

void Core::issue(Cycle now) {
  if (occupancy_ == static_cast<int>(window_.size())) {
    ++stats_.window_full_cycles;
    return;
  }
  int issued = 0;
  int mem_issued = 0;
  while (issued < params_.issue_width && occupancy_ < static_cast<int>(window_.size())) {
    // Respect the memory-port limit: if the *next* instruction is a memory
    // op and the port is used, the in-order front end stalls for this cycle.
    if (!staged_valid_) {
      staged_ = fetch_insn();
      staged_valid_ = true;
    }
    if (staged_.is_mem && mem_issued >= params_.mem_issue_width) break;
    // A memory op that would miss needs an MSHR: stall the front end when
    // all are busy, unless the access would hit or coalesce.
    if (staged_.is_mem &&
        static_cast<int>(mshrs_.size()) >= params_.max_outstanding_misses) {
      const Addr block = l1_.block_of(staged_.addr);
      if (!l1_.contains(block) && find_mshr(block) == mshrs_.size()) break;
    }

    const Insn insn = staged_;
    staged_valid_ = false;

    const std::uint32_t slot = static_cast<std::uint32_t>(tail_);
    WindowEntry& entry = window_[tail_];
    NOCSIM_DCHECK(!entry.valid);
    entry.valid = true;
    if (++tail_ == window_.size()) tail_ = 0;
    ++occupancy_;
    ++issued;
    ++stats_.issued;

    if (!insn.is_mem) {
      entry.ready_at = now + 1;
      continue;
    }
    ++mem_issued;
    ++stats_.mem_issued;
    const Addr block = l1_.block_of(insn.addr);
    if (l1_.access(block)) {
      entry.ready_at = now + params_.l1_hit_latency;
      continue;
    }
    // Miss: wait for the network. Coalesce with an outstanding request to
    // the same block if there is one.
    entry.ready_at = kWaiting;
    waiter_next_[slot] = kNoWaiter;
    const std::size_t idx = find_mshr(block);
    if (idx == mshrs_.size()) {
      mshrs_.push_back(MshrEntry{block, slot, slot});
      ++stats_.l1_misses_sent;
      on_miss_(block);
    } else {
      waiter_next_[mshrs_[idx].tail] = slot;
      mshrs_[idx].tail = slot;
    }
  }
}

void Core::on_fill(Addr block, Cycle now) {
  const std::size_t idx = find_mshr(block);
  NOCSIM_CHECK_MSG(idx != mshrs_.size(), "fill for a block with no outstanding miss");
  for (std::uint32_t slot = mshrs_[idx].head; slot != kNoWaiter; slot = waiter_next_[slot]) {
    WindowEntry& entry = window_[slot];
    NOCSIM_DCHECK(entry.valid && entry.ready_at == kWaiting);
    entry.ready_at = now + 1;
  }
  mshrs_[idx] = mshrs_.back();  // unordered: swap-erase keeps lookup O(live entries)
  mshrs_.pop_back();
  l1_.fill(block);
}

}  // namespace nocsim
