// Receiver-side packet reassembly.
//
// FLIT-BLESS routes flits independently, so a packet's flits may arrive out
// of order and interleaved with other packets' flits. Each node keeps a
// reassembly table keyed by (source, packet seq); when all `packet_len`
// flits have arrived the packet is delivered. The network is lossless, so
// entries always complete; the paper's design assumes receiver-side buffers
// sized for the worst case (we model them as unbounded but track the high
// water mark so experiments can report the required capacity).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/check.hpp"
#include "noc/flit.hpp"

namespace nocsim {

class ReassemblyTable {
 public:
  /// Invoked with the *first* flit of a completed packet (header fields are
  /// identical across the packet: src, dst, kind, addr, packet/seq) and the
  /// latest arrival cycle.
  using PacketSink = std::function<void(const Flit& header, Cycle completed_at)>;

  explicit ReassemblyTable(PacketSink sink) : sink_(std::move(sink)) {
    pending_.reserve(16);
  }

  void on_flit(const Flit& f, Cycle now) {
    if (f.packet_len <= 1) {
      sink_(f, now);
      return;
    }
    // Flat unordered table with linear lookup: a node's pending packets are
    // bounded by its outstanding requests (MSHR bound, ~16), far below any
    // node-based container's break-even. Only keyed ops are used, so entry
    // order is unobservable and swap-erase is safe.
    std::size_t idx = 0;
    for (; idx < pending_.size(); ++idx)
      if (pending_[idx].header.src == f.src && pending_[idx].header.packet == f.packet) break;
    if (idx == pending_.size()) {
      pending_.push_back(Entry{f, 0, false});
      high_water_ = std::max<std::size_t>(high_water_, pending_.size());
    }
    Entry& e = pending_[idx];
    NOCSIM_DCHECK(e.arrived < f.packet_len);
    ++e.arrived;
    e.congested |= f.congested_bit;
    if (e.arrived == f.packet_len) {
      Flit header = e.header;
      header.congested_bit = e.congested;
      pending_[idx] = pending_.back();
      pending_.pop_back();
      sink_(header, now);
    }
  }

  [[nodiscard]] std::size_t pending_packets() const { return pending_.size(); }
  [[nodiscard]] std::size_t high_water_mark() const { return high_water_; }

 private:
  struct Entry {
    Flit header;  ///< first-arriving flit; carries the (src, packet) key
    std::uint16_t arrived = 0;
    bool congested = false;
  };

  std::vector<Entry> pending_;
  std::size_t high_water_ = 0;
  PacketSink sink_;
};

}  // namespace nocsim
