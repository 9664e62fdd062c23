// Buffered virtual-channel fabric: the paper's comparison baseline (§6.3).
//
// Each router has 5 input ports (4 neighbours + local injection), 4 VCs per
// input port, and 4 flits of buffering per VC (Table 2 footnote). Packets use
// wormhole switching: the head flit acquires an output VC (VC allocation),
// body flits follow in the same VC, and the allocation is released when the
// tail traverses. Credit-based flow control guarantees a flit only leaves
// when the downstream FIFO has a slot, so the network is lossless. Routing is
// deterministic XY, which together with per-packet VC exclusivity makes the
// mesh deadlock-free.
//
// On a torus (2D or 3D), wraparound links close cyclic channel
// dependencies; the classic dateline scheme restores deadlock freedom: the
// 4 VCs split into two classes (VCs 0-1 and 2-3); a packet starts each
// routing dimension in class 0 and is forced into class 1 after traversing
// that dimension's wrap link (per-link `wrap` flags from the topology
// graph), so no packet can complete a cycle within one class. Irregular
// graphs carry no wrap links; their tables' channel-dependency graph is
// checked acyclic at construction instead (topology/route_tables.hpp).
//
// Arbitration is Oldest-First everywhere (matching the bufferless baseline's
// age policy): one flit per input port and per output port per cycle.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/arena.hpp"
#include "noc/fabric.hpp"

namespace nocsim {

class BufferedFabric final : public Fabric {
 public:
  static constexpr int kVcs = 4;
  static constexpr int kVcDepth = 4;
  static constexpr int kInPorts = kNumPorts;  // up to 6 input slots + Local

  BufferedFabric(const Topology& topo, int router_latency = 2, int link_latency = 1,
                 NodeId table_cap = kRouteTableMaxNodes);

  void begin_cycle(Cycle now) override;
  [[nodiscard]] bool can_accept(NodeId n) const override;
  void step(Cycle now) override;
  [[nodiscard]] std::uint32_t oldest_inflight_inject_cycle() const override;

  // Sharded stepping: link-arrival and credit wheels become per-tile (a
  // tile delivers only its own routers' arrivals in shard_deliver), and
  // route-phase pushes destined for another tile's wheel travel through
  // per-(src, dst)-tile outboxes applied in shard_exchange. Within one
  // wheel slot, arrivals target distinct (node, port, vc) FIFOs — one flit
  // per link per cycle — so the redistribution cannot reorder any FIFO.
  void set_shard_plan(const ShardPlan* plan) override;
  void shard_begin(Cycle now) override;
  void shard_deliver(Cycle now, int tile) override;
  void shard_route(Cycle now, int tile) override;
  void shard_exchange(Cycle now, int tile) override;

 private:
  /// Fixed-capacity flit FIFO, matching the hardware buffer exactly
  /// (kVcDepth slots). A ring buffer keeps the hot path allocation-free.
  /// Storage is SoA (see flit.hpp): switch arbitration reads only the
  /// header lane of FIFO heads; the payload lane is read once per grant.
  class VcFifo {
   public:
    [[nodiscard]] bool empty() const { return count_ == 0; }
    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] const FlitHeader& front_header() const {
      NOCSIM_DCHECK(count_ > 0);
      return hdr_[head_];
    }
    [[nodiscard]] const FlitPayload& front_payload() const {
      NOCSIM_DCHECK(count_ > 0);
      return pay_[head_];
    }
    void push_back(const FlitHeader& h, const FlitPayload& p) {
      NOCSIM_CHECK_MSG(count_ < kVcDepth, "VC FIFO overflow");
      const std::uint8_t slot = static_cast<std::uint8_t>((head_ + count_) % kVcDepth);
      hdr_[slot] = h;
      pay_[slot] = p;
      ++count_;
    }
    void pop_front() {
      NOCSIM_DCHECK(count_ > 0);
      head_ = (head_ + 1) % kVcDepth;
      --count_;
    }
    /// Oldest inject_cycle among buffered flits (watchdog scan); the
    /// all-ones sentinel when empty.
    [[nodiscard]] std::uint32_t min_inject_cycle() const {
      std::uint32_t m = ~std::uint32_t{0};
      for (std::uint8_t i = 0; i < count_; ++i) {
        const std::uint32_t ic = hdr_[(head_ + i) % kVcDepth].inject_cycle;
        if (ic < m) m = ic;
      }
      return m;
    }

   private:
    std::array<FlitHeader, kVcDepth> hdr_;
    std::array<FlitPayload, kVcDepth> pay_;
    std::uint8_t head_ = 0;
    std::uint8_t count_ = 0;
  };

  struct VcState {
    VcFifo fifo;
    bool alloc_valid = false;  ///< current packet holds an output VC
    std::uint8_t alloc_op = 0;
    std::uint8_t alloc_vc = 0;
  };

  struct NodeState {
    // in_vc[input slot][vc]; slot kNumDirs (== Dir::Local) is injection.
    std::array<std::array<VcState, kVcs>, kInPorts> in_vc;
    // credits[output port][vc]: free slots in the downstream input FIFO.
    std::array<std::array<std::uint8_t, kVcs>, kNumDirs> credits{};
    // out_vc_busy[output port][vc]: an upstream packet holds this downstream VC.
    std::array<std::array<bool, kVcs>, kNumDirs> out_vc_busy{};
    std::array<NodeId, kNumDirs> nbr{};
    // Input latch slot this output port's link lands in downstream, and the
    // link's routing dimension (dateline transform input).
    std::array<std::uint8_t, kNumDirs> dst_slot{};
    std::array<std::uint8_t, kNumDirs> link_dim{};
    std::uint8_t wrap_mask = 0;  ///< bit per output port: dateline link
    // Reverse map per input slot: the upstream router and its output port
    // (credit returns; replaces the grid-only opposite(dir) convention).
    std::array<NodeId, kNumDirs> up_node{};
    std::array<std::uint8_t, kNumDirs> up_port{};
    std::uint32_t flits_buffered = 0;
    // Injection wormhole state: mid-packet flits must use the same VC.
    bool inj_alloc_valid = false;
    std::uint8_t inj_vc = 0;
  };

  struct LinkArrival {
    FlitHeader h;
    FlitPayload p;
    NodeId node;
    std::uint8_t port;  ///< input port at the arrival node
    std::uint8_t vc;
  };

  struct CreditReturn {
    NodeId node;        ///< node whose credit counter increments
    std::uint8_t dir;   ///< its output dir
    std::uint8_t vc;
  };

  /// Output port for a flit at node n (Local when dst == n). Deterministic
  /// dimension-order / table routing (dirs[0] of the route preference).
  [[nodiscard]] int route_port(NodeId n, NodeId dst) const;

  /// Dateline bookkeeping (torus families): the vc_state the flit will
  /// carry on the link out of port `op` at node `n` — state = dim << 1 |
  /// crossed-dateline, reset when the routing dimension changes. Identity
  /// on wrap-free topologies.
  [[nodiscard]] std::uint8_t next_vc_state(NodeId n, int op, std::uint8_t vc_state) const;

  /// VC class (0 or 1) implied by a vc_state; class c may use VCs
  /// [c*2, c*2+1] on a torus, any VC on a wrap-free topology.
  [[nodiscard]] static int vc_class_of(std::uint8_t vc_state) { return vc_state & 1; }

  template <bool Sharded>
  void route_node(Cycle now, NodeId n, int tile);
  template <bool Sharded>
  void accept_injection(Cycle now, NodeId n, int tile);

  /// Fixed-capacity outboxes for one (src tile, dst tile) pair, backed by
  /// the src tile's arena. At most one flit and one credit cross a directed
  /// link per cycle, so the pair's cross-link count caps both.
  struct ArrBox {
    LinkArrival* slots = nullptr;
    std::uint32_t count = 0;
    std::uint32_t cap = 0;
  };
  struct CredBox {
    CreditReturn* slots = nullptr;
    std::uint32_t count = 0;
    std::uint32_t cap = 0;
  };

  /// Tile-local link state when sharded: the tile's slice of the arrival
  /// and credit wheels, plus outboxes for pushes that target another tile.
  struct TileLinks {
    std::vector<std::vector<LinkArrival>> wheel;      ///< [slot]
    std::array<std::vector<CreditReturn>, 2> credit;  ///< [slot parity]
    std::vector<ArrBox> out_arr;                      ///< [dst tile]
    std::vector<CredBox> out_cred;                    ///< [dst tile]
  };

  /// Dateline VC classes active (any wrap link present — torus families).
  bool vc_classes_ NOCSIM_SHARED_READONLY = false;

  std::vector<NodeState> nodes_ NOCSIM_TILE_LOCAL;  ///< FIFOs/credits, per node
  /// Serial-path wheels; the sharded path uses tile_links_ instead, so these
  /// are never written during phases.
  std::vector<std::vector<LinkArrival>> wheel_ NOCSIM_SHARED_READONLY;
  std::vector<std::vector<CreditReturn>> credit_wheel_ NOCSIM_SHARED_READONLY;
  /// Per-tile wheels plus [dst tile] outboxes; only out_arr/out_cred carry
  /// cross-tile effects (applied by the owner in shard_exchange).
  std::vector<TileLinks> tile_links_ NOCSIM_TILE_LOCAL;
  /// One bump arena per tile backing that tile's outbox slot arrays
  /// (sharded runs only; serial runs never stage cross-tile pushes).
  std::vector<Arena> arenas_ NOCSIM_TILE_LOCAL;
  /// Bitmap over nodes with flits_buffered != 0. Set on arrival delivery;
  /// a bit survives step() until its router drains, so blocked routers are
  /// revisited every cycle but empty ones are never scanned. Tile-local by
  /// word range; boundary words are shared and use commutative atomic RMWs.
  std::vector<std::uint64_t> work_words_ NOCSIM_TILE_LOCAL;
  Cycle last_begun_ NOCSIM_SHARED_READONLY = ~Cycle{0};
};

}  // namespace nocsim
