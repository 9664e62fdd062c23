#include "noc/buffered_fabric.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>

namespace nocsim {

BufferedFabric::BufferedFabric(const Topology& topo, int router_latency, int link_latency,
                               NodeId table_cap)
    : Fabric(topo, router_latency, link_latency, table_cap),
      nodes_(topo.num_nodes()),
      wheel_(static_cast<std::size_t>(hop_latency_) + 1),
      credit_wheel_(2),
      work_words_(word_count(topo.num_nodes()), 0) {
  vc_classes_ = topo.has_wrap();
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    auto& st = nodes_[n];
    for (int d = 0; d < kNumDirs; ++d) {
      const Topology::Link& l = topo.link(n, d);
      st.nbr[d] = l.to;
      st.dst_slot[d] = l.in_slot;
      st.link_dim[d] = l.dim;
      if (l.wrap) st.wrap_mask |= static_cast<std::uint8_t>(1u << d);
      for (int v = 0; v < kVcs; ++v)
        st.credits[d][v] = (st.nbr[d] != kInvalidNode) ? kVcDepth : 0;
    }
    for (int s = 0; s < kNumDirs; ++s) {
      const Topology::InLink& il = topo.in_link(n, s);
      st.up_node[s] = il.from;
      st.up_port[s] = il.from_port;
    }
  }
  // Grid families are deadlock-free by construction (dimension order +
  // dateline classes); an arbitrary graph's routing tree is not — assert
  // the channel-dependency graph of the tables is acyclic before routing
  // a single flit over them.
  if (topo.kind() == Topology::Kind::Irregular) {
    const RouteTables tables = build_route_tables(topo);
    NOCSIM_CHECK_MSG(check_cdg_acyclic(topo, tables),
                     "irregular topology: routing tables form a cyclic channel "
                     "dependency graph (wormhole deadlock possible)");
  }
}

int BufferedFabric::route_port(NodeId n, NodeId dst) const {
  if (n == dst) return static_cast<int>(Dir::Local);
  const RoutePreference pref = route_pref(n, dst);
  NOCSIM_DCHECK(pref.count > 0);
  return static_cast<int>(pref.dirs[0]);  // deterministic: first preferred port
}

std::uint8_t BufferedFabric::next_vc_state(NodeId n, int op, std::uint8_t vc_state) const {
  if (!vc_classes_ || op == static_cast<int>(Dir::Local)) return vc_state;
  const auto& st = nodes_[n];
  std::uint8_t state = vc_state;
  // Entering a new routing dimension resets the dateline class to 0;
  // crossing the ring's wrap link moves the packet to class 1 for the
  // remainder of this dimension. Must mirror next_state in
  // route_tables.cpp exactly (the CDG checker models this transform).
  const std::uint8_t dim = st.link_dim[static_cast<std::size_t>(op)];
  if ((state >> 1) != dim) state = static_cast<std::uint8_t>(dim << 1);
  if (st.wrap_mask & (1u << op)) state |= 1;
  return state;
}

void BufferedFabric::begin_cycle(Cycle now) {
  NOCSIM_CHECK_MSG(last_begun_ != now, "begin_cycle called twice for one cycle");
  last_begun_ = now;

  // Deliver link arrivals into downstream FIFOs.
  auto& slot = wheel_[now % wheel_.size()];
  for (const LinkArrival& a : slot) {
    auto& vc = nodes_[a.node].in_vc[a.port][a.vc];
    NOCSIM_CHECK_MSG(vc.fifo.size() < kVcDepth, "credit protocol violated: FIFO overflow");
    vc.fifo.push_back(a.h, a.p);
    ++nodes_[a.node].flits_buffered;
    ++stats_.buffer_writes;
    work_words_[static_cast<std::size_t>(a.node) >> 6] |= std::uint64_t{1} << (a.node & 63);
  }
  slot.clear();

  // Deliver credit returns.
  auto& credits = credit_wheel_[now % credit_wheel_.size()];
  for (const CreditReturn& c : credits) {
    auto& count = nodes_[c.node].credits[c.dir][c.vc];
    NOCSIM_CHECK_MSG(count < kVcDepth, "credit overflow");
    ++count;
  }
  credits.clear();
}

bool BufferedFabric::can_accept(NodeId n) const {
  const auto& st = nodes_[n];
  const auto& local = st.in_vc[static_cast<int>(Dir::Local)];
  if (st.inj_alloc_valid) return local[st.inj_vc].fifo.size() < kVcDepth;
  for (int v = 0; v < kVcs; ++v)
    if (local[v].fifo.size() < kVcDepth) return true;
  return false;
}

std::uint32_t BufferedFabric::oldest_inflight_inject_cycle() const {
  // Between cycles every in-flight flit is either buffered in a VC FIFO or
  // riding a link (an arrival wheel slot — serial wheel_ or a tile's wheel
  // when sharded; outboxes are drained within the cycle). Credits carry no
  // flits.
  std::uint32_t oldest = kNoInflight;
  const auto fold = [&oldest](std::uint32_t ic) {
    if (ic < oldest) oldest = ic;
  };
  for (const NodeState& st : nodes_) {
    if (st.flits_buffered == 0) continue;
    for (const auto& port : st.in_vc) {
      for (const VcState& vc : port) fold(vc.fifo.min_inject_cycle());
    }
  }
  for (const auto& slot : wheel_) {
    for (const LinkArrival& a : slot) fold(a.h.inject_cycle);
  }
  for (const TileLinks& tl : tile_links_) {
    for (const auto& slot : tl.wheel) {
      for (const LinkArrival& a : slot) fold(a.h.inject_cycle);
    }
  }
  return oldest;
}

void BufferedFabric::set_shard_plan(const ShardPlan* plan) {
  Fabric::set_shard_plan(plan);
  tile_links_.clear();
  arenas_.clear();
  if (plan != nullptr) {
    const auto t = static_cast<std::size_t>(plan->tiles());
    // Directed cross-tile link counts bound the outboxes: at most one flit
    // and one credit cross each directed link per cycle (a credit for the
    // flit node n received from nbr travels the same n -> nbr link).
    std::vector<std::uint32_t> cross(t * t, 0);
    for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
      const auto src = static_cast<std::size_t>(plan->tile_of(n));
      for (int d = 0; d < kNumDirs; ++d) {
        const NodeId nb = nodes_[static_cast<std::size_t>(n)].nbr[d];
        if (nb == kInvalidNode) continue;
        const auto dst = static_cast<std::size_t>(plan->tile_of(nb));
        if (dst != src) ++cross[src * t + dst];
      }
    }
    tile_links_.resize(t);
    arenas_.resize(t);
    for (std::size_t s = 0; s < t; ++s) {
      std::size_t bytes = 0;
      for (std::size_t d = 0; d < t; ++d) {
        bytes += Arena::lane_bytes<LinkArrival>(cross[s * t + d]);
        bytes += Arena::lane_bytes<CreditReturn>(cross[s * t + d]);
      }
      arenas_[s].reserve(bytes);
      TileLinks& tl = tile_links_[s];
      tl.wheel.resize(static_cast<std::size_t>(hop_latency_) + 1);
      tl.out_arr.resize(t);
      tl.out_cred.resize(t);
      for (std::size_t d = 0; d < t; ++d) {
        const std::uint32_t cap = cross[s * t + d];
        tl.out_arr[d] = ArrBox{arenas_[s].alloc_array<LinkArrival>(cap), 0, cap};
        tl.out_cred[d] = CredBox{arenas_[s].alloc_array<CreditReturn>(cap), 0, cap};
      }
    }
  }
}

void BufferedFabric::shard_begin(Cycle now) {
  // Delivery moved to the tile-parallel shard_deliver; only the per-cycle
  // protocol check stays serial.
  NOCSIM_CHECK_MSG(last_begun_ != now, "begin_cycle called twice for one cycle");
  last_begun_ = now;
}

void BufferedFabric::shard_deliver(Cycle now, int tile) {
  NOCSIM_PHASE("deliver");
  TileLinks& tl = tile_links_[static_cast<std::size_t>(tile)];
  ShardTile& ts = shard_tiles_[static_cast<std::size_t>(tile)];

  auto& slot = tl.wheel[now % tl.wheel.size()];
  for (const LinkArrival& a : slot) {
    NOCSIM_SHARD_CHECK_WRITE(a.node, "fifo delivery (shard_deliver)");
    auto& vc = nodes_[a.node].in_vc[a.port][a.vc];
    NOCSIM_CHECK_MSG(vc.fifo.size() < kVcDepth, "credit protocol violated: FIFO overflow");
    vc.fifo.push_back(a.h, a.p);
    ++nodes_[a.node].flits_buffered;
    ++ts.buffer_writes;
    std::atomic_ref<std::uint64_t>(work_words_[static_cast<std::size_t>(a.node) >> 6])
        .fetch_or(std::uint64_t{1} << (a.node & 63), std::memory_order_relaxed);
  }
  slot.clear();

  auto& credits = tl.credit[now % tl.credit.size()];
  for (const CreditReturn& c : credits) {
    NOCSIM_SHARD_CHECK_WRITE(c.node, "credit delivery (shard_deliver)");
    auto& count = nodes_[c.node].credits[c.dir][c.vc];
    NOCSIM_CHECK_MSG(count < kVcDepth, "credit overflow");
    ++count;
  }
  credits.clear();
}

void BufferedFabric::shard_route(Cycle now, int tile) {
  NOCSIM_PHASE("route");
  // step()'s worklist walk restricted to this tile's bits; boundary words
  // are shared between tiles, so loads, clears, and the carried-over
  // "still busy" OR go through std::atomic_ref. No tile sets another
  // tile's work bits during this phase (arrivals land in wheels/outboxes).
  const std::size_t whi = plan_->word_hi(tile);
  for (std::size_t w = plan_->word_lo(tile); w < whi; ++w) {
    const std::uint64_t mask = plan_->word_mask(tile, w);
    std::atomic_ref<std::uint64_t> work(work_words_[w]);
    std::atomic_ref<std::uint64_t> inject(inject_words_[w]);
    std::uint64_t bits =
        (work.load(std::memory_order_relaxed) | inject.load(std::memory_order_relaxed)) & mask;
    if (bits == 0) continue;
    work.fetch_and(~mask, std::memory_order_relaxed);
    inject.fetch_and(~mask, std::memory_order_relaxed);
    std::uint64_t still = 0;
    do {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const auto n = static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b));
      if (pending_inject_[n].requested) accept_injection<true>(now, n, tile);
      if (nodes_[n].flits_buffered != 0) {
        route_node<true>(now, n, tile);
        if (nodes_[n].flits_buffered != 0) still |= std::uint64_t{1} << (n & 63);
      }
    } while (bits != 0);
    if (still != 0) work.fetch_or(still, std::memory_order_relaxed);
  }
}

void BufferedFabric::shard_exchange(Cycle now, int tile) {
  NOCSIM_PHASE("exchange");
  // Collect arrivals and credits other tiles routed toward this tile into
  // its own wheels. Same-slot entries address distinct FIFOs / credit
  // counters, so the src-tile visit order is immaterial.
  TileLinks& tl = tile_links_[static_cast<std::size_t>(tile)];
  const std::size_t aslot = (now + static_cast<Cycle>(hop_latency_)) % tl.wheel.size();
  const std::size_t cslot = (now + 1) % tl.credit.size();
  for (TileLinks& src : tile_links_) {
    ArrBox& abox = src.out_arr[static_cast<std::size_t>(tile)];
    for (std::uint32_t i = 0; i < abox.count; ++i) {
      const LinkArrival& a = abox.slots[i];
      NOCSIM_SHARD_CHECK_WRITE(a.node, "halo arrival apply (shard_exchange)");
      tl.wheel[aslot].push_back(a);
    }
    abox.count = 0;
    CredBox& cbox = src.out_cred[static_cast<std::size_t>(tile)];
    for (std::uint32_t i = 0; i < cbox.count; ++i) {
      const CreditReturn& c = cbox.slots[i];
      NOCSIM_SHARD_CHECK_WRITE(c.node, "halo credit apply (shard_exchange)");
      tl.credit[cslot].push_back(c);
    }
    cbox.count = 0;
  }
}

template <bool Sharded>
void BufferedFabric::accept_injection(Cycle now, NodeId n, int tile) {
  NOCSIM_SHARD_CHECK_WRITE(n, "injection (accept_injection)");
  auto& st = nodes_[n];
  (void)tile;
  Flit f = pending_inject_[n].flit;
  pending_inject_[n].requested = false;
  f.inject_cycle = now;

  int vc = -1;
  if (st.inj_alloc_valid) {
    NOCSIM_CHECK_MSG(f.flit_idx != 0, "new packet while previous still injecting");
    vc = st.inj_vc;
  } else {
    NOCSIM_CHECK_MSG(f.flit_idx == 0, "body flit with no injection VC allocated");
    // Pick the emptiest local VC with space.
    std::size_t best_fill = kVcDepth;
    for (int v = 0; v < kVcs; ++v) {
      const auto fill = st.in_vc[static_cast<int>(Dir::Local)][v].fifo.size();
      if (fill < best_fill) {
        best_fill = fill;
        vc = v;
      }
    }
    NOCSIM_CHECK_MSG(vc >= 0 && best_fill < kVcDepth, "injection without can_accept");
    if (f.packet_len > 1) {
      st.inj_alloc_valid = true;
      st.inj_vc = static_cast<std::uint8_t>(vc);
    }
  }
  if (f.flit_idx + 1 == f.packet_len) st.inj_alloc_valid = false;

  auto& fifo = st.in_vc[static_cast<int>(Dir::Local)][vc].fifo;
  NOCSIM_CHECK_MSG(fifo.size() < kVcDepth, "injection FIFO overflow");
  fifo.push_back(header_of(f), payload_of(f));
  ++st.flits_buffered;
  if constexpr (Sharded) {
    ShardTile& ts = shard_tiles_[static_cast<std::size_t>(tile)];
    ++ts.net_delta;
    ++ts.flits_injected;
    ++ts.buffer_writes;
  } else {
    ++in_network_;
    ++stats_.flits_injected;
    ++stats_.buffer_writes;
    if (trace_ != nullptr) trace_->on_inject(now, n, f);
  }
}

void BufferedFabric::step(Cycle now) {
  NOCSIM_CHECK_MSG(last_begun_ == now, "step without matching begin_cycle");
  ++stats_.cycles;

  // Visit routers with buffered flits or a pending injection only, in
  // ascending node order (same order as a full scan, so the ejection
  // sequence is unchanged). New work can only appear at begin_cycle
  // (arrivals) or below (injections), so a bit cleared here stays clear for
  // the rest of the cycle.
  const std::size_t words = work_words_.size();
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = work_words_[w] | inject_words_[w];
    if (bits == 0) continue;
    inject_words_[w] = 0;
    std::uint64_t still = 0;
    do {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const auto n = static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b));
      if (pending_inject_[n].requested) accept_injection<false>(now, n, 0);
      if (nodes_[n].flits_buffered != 0) {
        route_node<false>(now, n, 0);
        if (nodes_[n].flits_buffered != 0) still |= std::uint64_t{1} << (n & 63);
      }
    } while (bits != 0);
    work_words_[w] = still;
  }
}

template <bool Sharded>
void BufferedFabric::route_node(Cycle now, NodeId n, int tile) {
  NOCSIM_SHARD_CHECK_WRITE(n, "router state (route_node)");
  auto& st = nodes_[n];
  [[maybe_unused]] ShardTile* const ts =
      Sharded ? &shard_tiles_[static_cast<std::size_t>(tile)] : nullptr;
  (void)tile;

  // Gather switch-allocation candidates: head flits of non-empty input VCs.
  // Only the header lane of each FIFO head is touched here; the cold payload
  // lane is read once per granted flit below.
  struct Candidate {
    std::uint8_t port, vc, out_port;
    const FlitHeader* hdr;
  };
  std::array<Candidate, kInPorts * kVcs> cands;
  int num_cands = 0;
  for (int p = 0; p < kInPorts; ++p) {
    for (int v = 0; v < kVcs; ++v) {
      const auto& vc = st.in_vc[p][v];
      if (vc.fifo.empty()) continue;
      const FlitHeader& h = vc.fifo.front_header();
      const int op = vc.alloc_valid ? vc.alloc_op : route_port(n, h.dst);
      cands[num_cands++] = {static_cast<std::uint8_t>(p), static_cast<std::uint8_t>(v),
                            static_cast<std::uint8_t>(op), &h};
    }
  }
  if (num_cands == 0) return;

  // Oldest-first priority over all candidates. older_than() is a strict
  // total order over distinct in-flight flits (inject cycle, source, packet,
  // flit index), so the (port, vc) tie-break below is unreachable in
  // practice — it pins the order anyway so that no std::sort implementation
  // detail can ever decide a grant, and grant order stays reproducible
  // across standard libraries.
  std::sort(cands.begin(), cands.begin() + num_cands,
            [](const Candidate& a, const Candidate& b) {
              if (older_than(*a.hdr, *b.hdr)) return true;
              if (older_than(*b.hdr, *a.hdr)) return false;
              return (a.port << 8 | a.vc) < (b.port << 8 | b.vc);
            });

  // VC allocation (one grant per output port per cycle), then switch
  // allocation (one flit per input port and per output port), in one
  // oldest-first pass — a simplification of a two-stage pipeline that keeps
  // the same fairness policy.
  std::uint8_t in_used = 0, out_used = 0;
  bool vc_alloc_done[kNumDirs] = {};

  // When a flit pops from a neighbour-port FIFO, the upstream router regains
  // one credit for that (link, VC) after a 1-cycle credit-wire delay. Local
  // (injection) FIFOs have no credits: can_accept() inspects them directly.
  const auto return_credit = [&](int in_port, int vc) {
    if (in_port == static_cast<int>(Dir::Local)) return;
    const NodeId upstream = st.up_node[static_cast<std::size_t>(in_port)];
    NOCSIM_DCHECK(upstream != kInvalidNode);
    const std::uint8_t up_dir = st.up_port[static_cast<std::size_t>(in_port)];
    const CreditReturn cr{upstream, up_dir, static_cast<std::uint8_t>(vc)};
    if constexpr (Sharded) {
      TileLinks& tl = tile_links_[static_cast<std::size_t>(tile)];
      const int dt = plan_->tile_of(upstream);
      if (dt == tile) {
        tl.credit[(now + 1) % tl.credit.size()].push_back(cr);
      } else {
        NOCSIM_SHARD_CHECK_HALO(tile, dt);
        CredBox& box = tl.out_cred[static_cast<std::size_t>(dt)];
        NOCSIM_DCHECK(box.count < box.cap);
        box.slots[box.count++] = cr;
        ++ts->halo_writes;
        ts->halo_bytes += sizeof(CreditReturn);
      }
    } else {
      credit_wheel_[(now + 1) % credit_wheel_.size()].push_back(cr);
    }
  };

  for (int k = 0; k < num_cands; ++k) {
    const Candidate& c = cands[k];
    if (in_used & (1u << c.port)) continue;
    if (out_used & (1u << c.out_port)) continue;

    auto& vcs = st.in_vc[c.port][c.vc];
    const FlitHeader h = vcs.fifo.front_header();
    const bool is_head = (h.flit_idx == 0);
    const int op = c.out_port;

    if (op == static_cast<int>(Dir::Local)) {
      // Ejection: no VC or credit needed; the NI sink always accepts.
      Flit out = assemble_flit(h, vcs.fifo.front_payload());
      vcs.fifo.pop_front();
      --st.flits_buffered;
      return_credit(c.port, c.vc);
      if constexpr (Sharded) {
        ++ts->buffer_reads;
        eject_shard(n, out, *ts);
      } else {
        ++stats_.buffer_reads;
        NOCSIM_DCHECK(in_network_ > 0);
        --in_network_;
        eject(now, n, out);
      }
      in_used |= static_cast<std::uint8_t>(1u << c.port);
      out_used |= static_cast<std::uint8_t>(1u << op);
      continue;
    }

    // Need an output VC: allocate for heads, reuse for body flits. On a
    // torus the dateline class restricts which downstream VCs are legal.
    if (is_head && !vcs.alloc_valid) {
      if (vc_alloc_done[op]) continue;  // one VC allocation per output per cycle
      int v_lo = 0, v_hi = kVcs;
      if (vc_classes_) {
        const int cls = vc_class_of(next_vc_state(n, op, h.vc_state));
        v_lo = cls * (kVcs / 2);
        v_hi = v_lo + kVcs / 2;
      }
      int free_vc = -1;
      for (int v = v_lo; v < v_hi; ++v) {
        if (!st.out_vc_busy[op][v]) {
          free_vc = v;
          break;
        }
      }
      if (free_vc < 0) continue;  // all legal downstream VCs held by other packets
      vc_alloc_done[op] = true;
      vcs.alloc_valid = true;
      vcs.alloc_op = static_cast<std::uint8_t>(op);
      vcs.alloc_vc = static_cast<std::uint8_t>(free_vc);
      st.out_vc_busy[op][free_vc] = true;
    }
    NOCSIM_DCHECK(vcs.alloc_valid && vcs.alloc_op == op);
    const int ovc = vcs.alloc_vc;

    if (st.credits[op][ovc] == 0) continue;  // downstream FIFO full

    // Traverse. The granted flit's payload is read exactly once, here.
    FlitPayload p = vcs.fifo.front_payload();
    vcs.fifo.pop_front();
    --st.flits_buffered;
    return_credit(c.port, c.vc);
    --st.credits[op][ovc];
    FlitHeader mh = h;
    mh.vc_state = next_vc_state(n, op, h.vc_state);
    ++p.hops;
    if (node_marks(n)) mh.congested_bit = true;
    const bool is_tail = (h.flit_idx + 1 == p.packet_len);
    const NodeId next = st.nbr[op];
    NOCSIM_CHECK_MSG(next != kInvalidNode, "routing chose a missing link");
    const LinkArrival arr{mh, p, next, st.dst_slot[static_cast<std::size_t>(op)],
                          static_cast<std::uint8_t>(ovc)};
    if constexpr (Sharded) {
      ++ts->buffer_reads;
      ++ts->flit_hops;
      ++ts->productive_hops;  // XY routing: every buffered hop is minimal
      TileLinks& tl = tile_links_[static_cast<std::size_t>(tile)];
      const int dt = plan_->tile_of(next);
      if (dt == tile) {
        tl.wheel[(now + static_cast<Cycle>(hop_latency_)) % tl.wheel.size()].push_back(arr);
      } else {
        NOCSIM_SHARD_CHECK_HALO(tile, dt);
        ArrBox& box = tl.out_arr[static_cast<std::size_t>(dt)];
        NOCSIM_DCHECK(box.count < box.cap);
        box.slots[box.count++] = arr;
        ++ts->halo_writes;
        ts->halo_bytes += sizeof(LinkArrival);
      }
    } else {
      ++stats_.buffer_reads;
      ++stats_.flit_hops;
      ++stats_.productive_hops;  // XY routing: every buffered hop is minimal
      if (trace_ != nullptr) trace_->on_hop(now, n, next, assemble_flit(mh, p));
      wheel_[(now + static_cast<Cycle>(hop_latency_)) % wheel_.size()].push_back(arr);
    }

    if (is_tail) {
      st.out_vc_busy[op][ovc] = false;
      vcs.alloc_valid = false;
    }
    in_used |= static_cast<std::uint8_t>(1u << c.port);
    out_used |= static_cast<std::uint8_t>(1u << op);
  }
}

}  // namespace nocsim
