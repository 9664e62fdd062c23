#include "noc/bless_fabric.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

namespace nocsim {

BlessFabric::BlessFabric(const Topology& topo, int router_latency, int link_latency,
                         BlessRouting routing, NodeId table_cap)
    : Fabric(topo, router_latency, link_latency, table_cap),
      routing_(routing),
      slot_bound_(topo.in_slot_bound()),
      lanes_shift_(slot_bound_ <= 4 ? 2 : 3),
      nodes_(topo.num_nodes()) {
  NOCSIM_CHECK(slot_bound_ <= kNumDirs);
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    auto& st = nodes_[n];
    for (int d = 0; d < kNumDirs; ++d) {
      const Topology::Link& l = topo.link(n, d);
      st.nbr[d] = l.to;
      st.dst_slot[d] = l.in_slot;
      if (st.nbr[d] != kInvalidNode) ++st.degree;
    }
    NOCSIM_CHECK_MSG(st.degree >= 2, "degenerate topology: router with degree < 2");
    // Deflection never drops only if arrivals (<= in-degree) always fit the
    // output ports; grids are symmetric, irregular graphs must be too.
    NOCSIM_CHECK_MSG(topo.in_degree(n) <= st.degree,
                     "bufferless routing requires in-degree <= out-degree at every router");
  }
  rebuild_layout();
}

void BlessFabric::rebuild_layout() {
  NOCSIM_CHECK_MSG(in_network_ == 0, "fabric layout rebuilt with flits in flight");
  const ShardPlan* lp = plan_;  // null = serial: one tile spanning every node
  const int tiles = lp != nullptr ? lp->tiles() : 1;
  const NodeId nodes = topo_.num_nodes();
  const std::size_t words = word_count(nodes);
  const std::size_t nbanks = static_cast<std::size_t>(hop_latency_) + 1;

  // Halo capacity per (src, dst) tile pair: the directed cross-link count,
  // the hard bound on latch writes staged between those tiles in one cycle.
  std::vector<std::size_t> cross(static_cast<std::size_t>(tiles) * tiles, 0);
  if (lp != nullptr) {
    for (NodeId n = 0; n < nodes; ++n) {
      const int src = lp->tile_of(n);
      for (int d = 0; d < kNumDirs; ++d) {
        const NodeId nb = nodes_[static_cast<std::size_t>(n)].nbr[d];
        if (nb == kInvalidNode) continue;
        const int dst = lp->tile_of(nb);
        if (dst != src) ++cross[static_cast<std::size_t>(src) * tiles + dst];
      }
    }
  }

  const auto tile_nodes = [&](int t) {
    return lp != nullptr ? static_cast<std::size_t>(lp->tile_nodes(t))
                         : static_cast<std::size_t>(nodes);
  };

  // Size each tile's arena up front (bump arenas do not grow).
  const auto lane_len = [this](std::size_t m) { return m << lanes_shift_; };
  arenas_.clear();
  arenas_.resize(static_cast<std::size_t>(tiles) + 1);
  for (int t = 0; t < tiles; ++t) {
    const std::size_t m = tile_nodes(t);
    std::size_t bytes = nbanks * (Arena::lane_bytes<FlitHeader>(lane_len(m)) +
                                  Arena::lane_bytes<FlitPayload>(lane_len(m)) +
                                  Arena::lane_bytes<std::uint8_t>(m));
    for (int dst = 0; dst < tiles; ++dst)
      bytes += Arena::lane_bytes<HaloWrite>(cross[static_cast<std::size_t>(t) * tiles + dst]);
    arenas_[static_cast<std::size_t>(t)].reserve(bytes);
  }
  // The shared arena holds exactly the deliberately cross-tile cachelines:
  // the occupancy bitmap words (boundary words take atomic RMWs).
  arenas_[static_cast<std::size_t>(tiles)].reserve(nbanks * Arena::lane_bytes<std::uint64_t>(words));

  banks_.clear();
  banks_.resize(nbanks);
  for (LatchBank& b : banks_) {
    b.hdr.resize(static_cast<std::size_t>(tiles));
    b.pay.resize(static_cast<std::size_t>(tiles));
    b.valid.resize(static_cast<std::size_t>(tiles));
  }
  for (int t = 0; t < tiles; ++t) {
    Arena& a = arenas_[static_cast<std::size_t>(t)];
    const std::size_t m = tile_nodes(t);
    for (LatchBank& b : banks_) {
      b.hdr[static_cast<std::size_t>(t)] = a.alloc_array<FlitHeader>(lane_len(m));
      b.pay[static_cast<std::size_t>(t)] = a.alloc_array<FlitPayload>(lane_len(m));
      b.valid[static_cast<std::size_t>(t)] = a.alloc_array<std::uint8_t>(m);
    }
  }
  for (LatchBank& b : banks_)
    b.active = arenas_[static_cast<std::size_t>(tiles)].alloc_array<std::uint64_t>(words);

  halo_.assign(static_cast<std::size_t>(tiles) * tiles, HaloBox{});
  for (int src = 0; src < tiles; ++src) {
    for (int dst = 0; dst < tiles; ++dst) {
      const std::size_t i = static_cast<std::size_t>(src) * tiles + dst;
      halo_[i].cap = static_cast<std::uint32_t>(cross[i]);
      halo_[i].slots = arenas_[static_cast<std::size_t>(src)].alloc_array<HaloWrite>(cross[i]);
    }
  }

  cur_ = &banks_[0];  // empty network: can_accept is well-defined pre-begin_cycle
}

void BlessFabric::begin_cycle(Cycle now) {
  NOCSIM_CHECK_MSG(last_begun_ != now, "begin_cycle called twice for one cycle");
  last_begun_ = now;
  // Arrivals were written in place when they departed; making their bank
  // current *is* the latching step.
  cur_ = &banks_[now % banks_.size()];
}

bool BlessFabric::can_accept(NodeId n) const {
  // Injection eligibility: through flits (arrivals minus at most one
  // ejectable) must leave a free output port. Computed on demand — only
  // nodes whose NI actually asks pay for it, and an idle router answers
  // with a single load. The scan touches only the header lane.
  const std::size_t t = plan_ != nullptr ? static_cast<std::size_t>(plan_->tile_of(n)) : 0;
  const std::size_t local =
      plan_ != nullptr ? plan_->local_of(n) : static_cast<std::size_t>(n);
  const std::uint8_t lv = cur_->valid[t][local];
  if (lv == 0) return true;
  const FlitHeader* h = cur_->hdr[t] + (local << lanes_shift_);
  bool has_eject = false;
  for (int p = 0; p < slot_bound_; ++p) {
    if ((lv & (1u << p)) && h[p].dst == n) {
      has_eject = true;
      break;
    }
  }
  return (std::popcount(lv) - (has_eject ? 1 : 0)) < nodes_[n].degree;
}

void BlessFabric::step(Cycle now) {
  NOCSIM_CHECK_MSG(last_begun_ == now, "step without matching begin_cycle");
  ++stats_.cycles;
  // Visit exactly the routers with latched arrivals or a pending injection,
  // in ascending node order (bit-scan order == node order), which keeps the
  // ejection sequence — and with it every order-sensitive accumulator —
  // identical to a full scan.
  LatchBank& bank = *cur_;
  const std::size_t words = word_count(topo_.num_nodes());
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = bank.active[w] | inject_words_[w];
    if (bits == 0) continue;
    bank.active[w] = 0;
    inject_words_[w] = 0;
    do {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      route_node<false>(now, static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b)), 0);
    } while (bits != 0);
  }
}

void BlessFabric::set_shard_plan(const ShardPlan* plan) {
  Fabric::set_shard_plan(plan);
  rebuild_layout();
}

std::uint32_t BlessFabric::oldest_inflight_inject_cycle() const {
  // Every in-flight flit sits in exactly one latch-bank slot (written at
  // departure, consumed when its bank becomes current), so scanning all
  // banks' valid masks between cycles sees the whole network.
  std::uint32_t oldest = kNoInflight;
  const int tiles = plan_ != nullptr ? plan_->tiles() : 1;
  for (const LatchBank& b : banks_) {
    for (int t = 0; t < tiles; ++t) {
      const std::size_t m = plan_ != nullptr ? static_cast<std::size_t>(plan_->tile_nodes(t))
                                             : static_cast<std::size_t>(topo_.num_nodes());
      const std::uint8_t* valid = b.valid[static_cast<std::size_t>(t)];
      const FlitHeader* hdr = b.hdr[static_cast<std::size_t>(t)];
      for (std::size_t local = 0; local < m; ++local) {
        std::uint8_t lv = valid[local];
        while (lv != 0) {
          const int p = std::countr_zero(static_cast<unsigned>(lv));
          lv &= static_cast<std::uint8_t>(lv - 1);
          const std::uint32_t ic =
              hdr[(local << lanes_shift_) + static_cast<std::size_t>(p)].inject_cycle;
          if (ic < oldest) oldest = ic;
        }
      }
    }
  }
  return oldest;
}

void BlessFabric::shard_route(Cycle now, int tile) {
  NOCSIM_PHASE("route");
  // Same worklist walk as step(), restricted to this tile's bits. Boundary
  // words are shared between tiles, so loads and clears go through
  // std::atomic_ref; each tile only consumes (and clears) its own mask, and
  // nobody sets bits in the current bank during this phase — downstream
  // writes land in a different bank of the ring (hop_latency % banks != 0).
  LatchBank& bank = *cur_;
  const std::size_t whi = plan_->word_hi(tile);
  for (std::size_t w = plan_->word_lo(tile); w < whi; ++w) {
    const std::uint64_t mask = plan_->word_mask(tile, w);
    std::atomic_ref<std::uint64_t> active(bank.active[w]);
    std::atomic_ref<std::uint64_t> inject(inject_words_[w]);
    std::uint64_t bits =
        (active.load(std::memory_order_relaxed) | inject.load(std::memory_order_relaxed)) & mask;
    if (bits == 0) continue;
    active.fetch_and(~mask, std::memory_order_relaxed);
    inject.fetch_and(~mask, std::memory_order_relaxed);
    do {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      route_node<true>(now, static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b)), tile);
    } while (bits != 0);
  }
}

void BlessFabric::shard_exchange(Cycle now, int tile) {
  NOCSIM_PHASE("exchange");
  // Apply latch writes other tiles routed toward this tile's rows. The
  // slots are distinct (one flit per link per cycle), so apply order does
  // not matter; the active-word OR is atomic because boundary words are
  // shared with neighbouring tiles doing the same.
  LatchBank& out_bank = banks_[(now + static_cast<Cycle>(hop_latency_)) % banks_.size()];
  const int tiles = plan_->tiles();
  FlitHeader* const out_h = out_bank.hdr[static_cast<std::size_t>(tile)];
  FlitPayload* const out_p = out_bank.pay[static_cast<std::size_t>(tile)];
  std::uint8_t* const out_v = out_bank.valid[static_cast<std::size_t>(tile)];
  for (int src = 0; src < tiles; ++src) {
    HaloBox& box = halo_[static_cast<std::size_t>(src) * tiles + tile];
    for (std::uint32_t i = 0; i < box.count; ++i) {
      const HaloWrite& hw = box.slots[i];
      NOCSIM_SHARD_CHECK_WRITE(hw.node, "halo latch apply (shard_exchange)");
      const std::size_t local = plan_->local_of(hw.node);
      NOCSIM_DCHECK((out_v[local] & (1u << hw.port)) == 0);
      out_h[(local << lanes_shift_) + hw.port] = hw.h;
      out_p[(local << lanes_shift_) + hw.port] = hw.p;
      out_v[local] |= static_cast<std::uint8_t>(1u << hw.port);
      std::atomic_ref<std::uint64_t>(out_bank.active[static_cast<std::size_t>(hw.node) >> 6])
          .fetch_or(std::uint64_t{1} << (hw.node & 63), std::memory_order_relaxed);
    }
    box.count = 0;
  }
}

template <bool Sharded>
void BlessFabric::route_node(Cycle now, NodeId n, int tile) {
  NOCSIM_SHARD_CHECK_WRITE(n, "router state (route_node)");
  const auto& st = nodes_[n];
  [[maybe_unused]] ShardTile* const ts =
      Sharded ? &shard_tiles_[static_cast<std::size_t>(tile)] : nullptr;
  const std::size_t t = Sharded ? static_cast<std::size_t>(tile) : 0;
  const std::size_t local = Sharded ? plan_->local_of(n) : static_cast<std::size_t>(n);

  // Gather arrival headers; clear the latches (every flit present leaves
  // this cycle). Payloads stay put in the bank lane — only a pointer is
  // carried — and are copied once, straight into the downstream slot.
  std::array<FlitHeader, kNumDirs + 1> hs;
  std::array<const FlitPayload*, kNumDirs + 1> ps;
  int count = 0;
  const std::uint8_t lv = cur_->valid[t][local];
  if (lv != 0) {
    const FlitHeader* in_h = cur_->hdr[t] + (local << lanes_shift_);
    const FlitPayload* in_p = cur_->pay[t] + (local << lanes_shift_);
    for (int p = 0; p < slot_bound_; ++p) {
      if (lv & (1u << p)) {
        hs[count] = in_h[p];
        ps[count] = &in_p[p];
        ++count;
      }
    }
    cur_->valid[t][local] = 0;
  }

  // 1. Ejection: oldest flit destined here (width 1).
  int eject_idx = -1;
  for (int i = 0; i < count; ++i) {
    if (hs[i].dst == n && (eject_idx < 0 || older_than(hs[i], hs[eject_idx])))
      eject_idx = i;
  }
  if (eject_idx >= 0) {
    Flit out = assemble_flit(hs[eject_idx], *ps[eject_idx]);
    --count;
    hs[eject_idx] = hs[count];
    ps[eject_idx] = ps[count];
    if constexpr (Sharded) {
      eject_shard(n, out, *ts);
    } else {
      NOCSIM_DCHECK(in_network_ > 0);
      --in_network_;
      eject(now, n, out);
    }
  }

  // 2. Injection (node layer already checked can_accept).
  FlitPayload inj_pay;
  if (pending_inject_[n].requested) {
    pending_inject_[n].requested = false;
    NOCSIM_CHECK_MSG(count < st.degree, "injection requested without a free output link");
    const Flit& f = pending_inject_[n].flit;
    hs[count] = header_of(f);
    hs[count].inject_cycle = now;
    inj_pay = payload_of(f);
    ps[count] = &inj_pay;
    ++count;
    if constexpr (Sharded) {
      ++ts->net_delta;
      ++ts->flits_injected;
    } else {
      ++in_network_;
      ++stats_.flits_injected;
      if (trace_ != nullptr) trace_->on_inject(now, n, assemble_flit(hs[count - 1], inj_pay));
    }
  }

  if (count == 0) return;
  NOCSIM_CHECK_MSG(count <= st.degree, "more through flits than output ports");

  // 3. Oldest-first port allocation with dimension-order preference;
  // deflect losers. Tiny insertion sort (count <= slot bound + 1): indices
  // into hs[], oldest first. Arbitration reads headers only.
  std::array<int, kNumDirs + 1> order;
  for (int i = 0; i < count; ++i) {
    int j = i;
    while (j > 0 && older_than(hs[i], hs[order[j - 1]])) {
      order[j] = order[j - 1];
      --j;
    }
    order[j] = i;
  }

  const bool mark = node_marks(n);
  LatchBank& out_bank = banks_[(now + static_cast<Cycle>(hop_latency_)) % banks_.size()];
  std::uint8_t taken = 0;  // output-port bitmask
  for (int k = 0; k < count; ++k) {
    FlitHeader& h = hs[order[k]];
    const FlitPayload* const p = ps[order[k]];
    const RoutePreference pref = route_pref(n, h.dst);
    const int desired =
        (routing_ == BlessRouting::StrictXY) ? std::min(pref.count, 1) : pref.count;
    int assigned = -1;
    bool productive = false;
    for (int c = 0; c < desired && assigned < 0; ++c) {
      const int port = static_cast<int>(pref.dirs[c]);
      if (st.nbr[port] != kInvalidNode && !(taken & (1u << port))) {
        assigned = port;
        productive = true;
      }
    }
    bool deflected = false;
    if (assigned < 0) {  // deflect: any free existing port
      for (int port = 0; port < kNumDirs; ++port) {
        if (st.nbr[port] != kInvalidNode && !(taken & (1u << port))) {
          assigned = port;
          break;
        }
      }
      NOCSIM_CHECK_MSG(assigned >= 0, "no free output port: flit would be dropped");
      deflected = true;
      ++node_deflections_[static_cast<std::size_t>(n)];
      if constexpr (Sharded) {
        ++ts->deflections;
      } else {
        ++stats_.deflections;
        if (trace_ != nullptr) {
          FlitPayload tp = *p;
          ++tp.deflections;
          trace_->on_deflect(now, n, assemble_flit(h, tp));
        }
      }
    }
    taken |= static_cast<std::uint8_t>(1u << assigned);

    if (mark) h.congested_bit = true;
    if constexpr (Sharded) {
      if (productive) ++ts->productive_hops;
      ++ts->flit_hops;
    } else {
      if (productive) ++stats_.productive_hops;
      ++stats_.flit_hops;
    }

    // Link traversal: write straight into the downstream router's input
    // latch in the bank that becomes current at now + hop_latency. The
    // cold payload is copied here, once, and its per-hop counters are
    // bumped at the destination slot.
    const NodeId next = st.nbr[assigned];
    const std::uint8_t in_port = st.dst_slot[static_cast<std::size_t>(assigned)];
    if constexpr (Sharded) {
      if (!plan_->owns(tile, next)) {
        // Boundary crossing: the target tile applies this in shard_exchange.
        NOCSIM_SHARD_CHECK_HALO(tile, plan_->tile_of(next));
        HaloBox& box =
            halo_[t * static_cast<std::size_t>(plan_->tiles()) +
                  static_cast<std::size_t>(plan_->tile_of(next))];
        NOCSIM_DCHECK(box.count < box.cap);
        HaloWrite& hw = box.slots[box.count++];
        hw.h = h;
        hw.p = *p;
        ++hw.p.hops;
        if (deflected) ++hw.p.deflections;
        hw.node = next;
        hw.port = in_port;
        ++ts->halo_writes;
        ts->halo_bytes += sizeof(HaloWrite);
        continue;
      }
      NOCSIM_SHARD_CHECK_WRITE(next, "downstream latch (route_node)");
      const std::size_t nl = plan_->local_of(next);
      NOCSIM_DCHECK((out_bank.valid[t][nl] & (1u << in_port)) == 0);
      FlitPayload& dp = out_bank.pay[t][(nl << lanes_shift_) + in_port];
      dp = *p;
      ++dp.hops;
      if (deflected) ++dp.deflections;
      out_bank.hdr[t][(nl << lanes_shift_) + in_port] = h;
      out_bank.valid[t][nl] |= static_cast<std::uint8_t>(1u << in_port);
      std::atomic_ref<std::uint64_t>(out_bank.active[static_cast<std::size_t>(next) >> 6])
          .fetch_or(std::uint64_t{1} << (next & 63), std::memory_order_relaxed);
    } else {
      NOCSIM_DCHECK((out_bank.valid[0][next] & (1u << in_port)) == 0);
      const std::size_t slot = (static_cast<std::size_t>(next) << lanes_shift_) + in_port;
      FlitPayload& dp = out_bank.pay[0][slot];
      dp = *p;
      ++dp.hops;
      if (deflected) ++dp.deflections;
      out_bank.hdr[0][slot] = h;
      out_bank.valid[0][next] |= static_cast<std::uint8_t>(1u << in_port);
      out_bank.active[static_cast<std::size_t>(next) >> 6] |=
          std::uint64_t{1} << (next & 63);
      if (trace_ != nullptr) trace_->on_hop(now, n, next, assemble_flit(h, dp));
    }
  }
}

}  // namespace nocsim
