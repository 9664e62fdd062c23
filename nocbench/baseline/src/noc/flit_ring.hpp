// FlitRing: the NI queue container.
//
// A FIFO of flits backed by a power-of-two ring, stored as parallel
// header/payload lanes (see flit.hpp): queue scans that only need age or
// framing state touch the compact header lane, and the cold payload lane is
// read once when the flit leaves the queue. The steady-state hot path
// (push_back / front / pop_front) is allocation-free and indexes with one
// mask, where std::deque pays a chunk-map indirection per access and an
// allocation on every empty -> non-empty transition. Capacity doubles on
// overflow — a home slice's response backlog under congestion is unbounded
// in principle, so a hard cap would turn overload into a crash; in steady
// state the ring never reallocates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "noc/flit.hpp"

namespace nocsim {

class FlitRing {
 public:
  explicit FlitRing(std::size_t min_capacity = 16) {
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    hdr_.resize(cap);
    pay_.resize(cap);
  }

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return hdr_.size(); }

  /// Assembled head-of-queue flit. By value: the storage is SoA, so there is
  /// no contiguous Flit object to reference.
  [[nodiscard]] Flit front() const {
    NOCSIM_DCHECK(count_ > 0);
    return assemble_flit(hdr_[head_], pay_[head_]);
  }

  /// Header lane of the head-of-queue flit, for scans that only need the
  /// hot fields (age, flit index) without paying for assembly.
  [[nodiscard]] const FlitHeader& front_header() const {
    NOCSIM_DCHECK(count_ > 0);
    return hdr_[head_];
  }

  void push_back(const Flit& f) {
    if (count_ == hdr_.size()) grow();
    const std::size_t slot = (head_ + count_) & (hdr_.size() - 1);
    hdr_[slot] = header_of(f);
    pay_[slot] = payload_of(f);
    ++count_;
  }

  void pop_front() {
    NOCSIM_DCHECK(count_ > 0);
    head_ = (head_ + 1) & (hdr_.size() - 1);
    --count_;
  }

 private:
  void grow() {
    const std::size_t old_cap = hdr_.size();
    std::vector<FlitHeader> hdr2(old_cap * 2);
    std::vector<FlitPayload> pay2(old_cap * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      const std::size_t from = (head_ + i) & (old_cap - 1);
      hdr2[i] = hdr_[from];
      pay2[i] = pay_[from];
    }
    hdr_ = std::move(hdr2);
    pay_ = std::move(pay2);
    head_ = 0;
  }

  std::vector<FlitHeader> hdr_;   ///< size is always a power of two
  std::vector<FlitPayload> pay_;  ///< same indexing as hdr_
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace nocsim
