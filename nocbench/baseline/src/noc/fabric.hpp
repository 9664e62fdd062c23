// Fabric: a synchronous network of routers operated cycle by cycle.
//
// Per-cycle protocol between the node layer (network interfaces) and the
// fabric:
//
//   1. begin_cycle(now)                 — fabric latches arrivals for `now`
//   2. can_accept(n)                    — may node n inject one flit now?
//   3. request_inject(n, flit)          — at most one per node per cycle;
//                                         only legal if can_accept(n)
//   4. step(now)                        — eject (sink callback), route, move
//
// can_accept() is exact, not advisory: if it returns true and the node
// requests injection, the flit enters the network this cycle. This lets the
// node layer implement the paper's Algorithm 3 throttling gate faithfully
// (the gate's counter only advances on cycles where "an output link is
// free").
#pragma once

#include <atomic>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/shard.hpp"
#include "common/shard_annotations.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/flit.hpp"
#include "noc/trace_sink.hpp"
#include "topology/route_tables.hpp"
#include "topology/topology.hpp"

namespace nocsim {

/// Counters the fabric maintains; reset with reset_stats() after warmup.
struct FabricStats {
  std::uint64_t cycles = 0;
  std::uint64_t flits_injected = 0;
  std::uint64_t flits_ejected = 0;
  std::uint64_t flit_hops = 0;        ///< link traversals
  std::uint64_t deflections = 0;      ///< BLESS misroutes
  /// Hops through a productive (distance-reducing) port. Every routed hop
  /// is either productive or a deflection, so flit_hops ==
  /// productive_hops + deflections holds at all times — a cheap structural
  /// cross-check on the deflection accounting. On the buffered fabric XY
  /// routing makes every hop productive (deflections stays 0).
  std::uint64_t productive_hops = 0;
  std::uint64_t buffer_reads = 0;     ///< buffered fabric only
  std::uint64_t buffer_writes = 0;    ///< buffered fabric only
  /// Cross-tile traffic staged through halo outboxes (sharded stepping
  /// only; structurally zero in a serial run). Writes count staged records
  /// (link traversals + credit returns), bytes count their storage size —
  /// the quantity 2D tiling exists to shrink.
  std::uint64_t halo_writes = 0;
  std::uint64_t halo_bytes = 0;
  StatAccumulator net_latency;        ///< inject -> eject, cycles
  StatAccumulator total_latency;      ///< NI enqueue -> eject, cycles
  StatAccumulator hops_per_flit;      ///< links traversed per delivered flit
  StatAccumulator deflections_per_flit;  ///< misroutes per delivered flit
  std::uint64_t min_hops_total = 0;   ///< sum of src->dst distances of delivered flits

  /// Hop inflation: links actually traversed / minimal distance. ~1 in an
  /// idle network; grows with deflection orbits — the congestion-collapse
  /// signature of a bufferless NoC under convergent (local) traffic.
  [[nodiscard]] double hop_inflation() const {
    if (min_hops_total == 0) return 1.0;
    return static_cast<double>(flit_hops_delivered) / static_cast<double>(min_hops_total);
  }
  std::uint64_t flit_hops_delivered = 0;  ///< hops summed over delivered flits

  /// Mean fraction of unidirectional links busy per cycle.
  [[nodiscard]] double utilization(std::uint64_t num_links) const {
    if (cycles == 0 || num_links == 0) return 0.0;
    return static_cast<double>(flit_hops) /
           (static_cast<double>(num_links) * static_cast<double>(cycles));
  }
};

class Fabric {
 public:
  /// Called once per ejected flit, during step().
  using EjectSink = std::function<void(NodeId at, const Flit&)>;

  /// Default node-count cap for precomputed route/distance tables (16x16,
  /// 192 KiB); SimConfig::route_table_max_nodes raises it per run.
  static constexpr NodeId kRouteTableMaxNodes = 256;

  Fabric(const Topology& topo, int router_latency, int link_latency,
         NodeId table_cap = kRouteTableMaxNodes)
      : topo_(topo),
        hop_latency_(router_latency + link_latency),
        pending_inject_(topo.num_nodes()),
        inject_words_(word_count(topo.num_nodes()), 0),
        node_deflections_(static_cast<std::size_t>(topo.num_nodes()), 0) {
    NOCSIM_CHECK(router_latency >= 1 && link_latency >= 1);
    // Flatten routing into per-(src, dst) tables when they fit: one packed
    // byte (count + two ports) and one uint16 distance per pair, N^2 entries,
    // Dijkstra-built once here — never in the cycle loop. Above the cap,
    // grid families fall back to the analytic coordinate path; irregular
    // graphs have no analytic form and must fit the (config-raisable) cap.
    if (topo.num_nodes() <= table_cap) {
      RouteTables t = build_route_tables(topo);
      route_tab_ = std::move(t.packed);
      dist_tab_ = std::move(t.hops);
    } else {
      // Above the table cap, avoid the virtual route_preference/distance
      // calls (once per flit per hop / per delivered flit) by recognizing
      // the concrete grid families and computing dimension-order
      // preferences inline. Cached coordinate lanes replace the per-call
      // division by width.
      switch (topo.kind()) {
        case Topology::Kind::Mesh:
        case Topology::Kind::CMesh:  // router graph is a plain mesh
          analytic_ = TopoKind::Mesh;
          break;
        case Topology::Kind::Torus:
          analytic_ = TopoKind::Torus;
          break;
        case Topology::Kind::Mesh3D:
          analytic_ = TopoKind::Mesh3D;
          break;
        case Topology::Kind::Torus3D:
          analytic_ = TopoKind::Torus3D;
          break;
        case Topology::Kind::Irregular:
          NOCSIM_CHECK_MSG(false,
                           "irregular topology exceeds route_table_max_nodes "
                           "(raise the cap; irregular graphs have no analytic route)");
      }
      coord_x_.resize(static_cast<std::size_t>(topo.num_nodes()));
      coord_y_.resize(static_cast<std::size_t>(topo.num_nodes()));
      coord_z_.resize(static_cast<std::size_t>(topo.num_nodes()));
      for (NodeId n = 0; n < topo.num_nodes(); ++n) {
        const Coord c = topo.coord_of(n);
        coord_x_[static_cast<std::size_t>(n)] = static_cast<std::int16_t>(c.x);
        coord_y_[static_cast<std::size_t>(n)] = static_cast<std::int16_t>(c.y);
        coord_z_[static_cast<std::size_t>(n)] = static_cast<std::int16_t>(c.z);
      }
    }
  }
  virtual ~Fabric() = default;

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  void set_eject_sink(EjectSink sink) { sink_ = std::move(sink); }

  /// Attach (or detach, with nullptr) a flit-level event observer. The
  /// fabric does not own the sink; it must outlive the fabric or be
  /// detached first. With no sink attached, every hook site reduces to one
  /// null-pointer test (the telemetry off fast path).
  void set_trace_sink(FlitEventSink* sink) {
    NOCSIM_CHECK_MSG(sink == nullptr || plan_ == nullptr,
                     "flit tracing is incompatible with sharded stepping");
    trace_ = sink;
  }

  // --------------------------------------------------------------- sharding
  //
  // Sharded per-cycle protocol, replacing begin_cycle()/step() when a plan
  // is set (the caller provides the barriers between phases):
  //
  //   1. shard_begin(now)            — serial prologue (latch-bank swap)
  //   2. shard_deliver(now, tile)    — parallel: deliver tile-local wheel
  //                                    arrivals/credits (buffered only)
  //   3. (caller injects via can_accept/request_inject, tile-parallel)
  //   4. shard_route(now, tile)      — parallel: route the tile's routers;
  //                                    off-tile link writes go to outboxes
  //   5. shard_exchange(now, tile)   — parallel: apply halo writes *to* tile
  //   6. shard_finish(now)           — serial: fold per-tile counters and
  //                                    replay buffered ejects merged by node
  //                                    id (bit-identical to serial)
  //
  // Each tile emits at most one eject per node per cycle, in ascending
  // node-id order (tiles walk their bitmap words lowest-first), so a k-way
  // merge of the tile buffers by node id reproduces the serial
  // ascending-node event order exactly — for contiguous row strips this
  // degenerates to plain ascending-tile concatenation, and it stays exact
  // for non-contiguous 2D tiles. 64-bit worklist words that straddle tile
  // boundaries are updated through std::atomic_ref with commutative RMWs
  // (fetch_or/fetch_and), whose final value is order-independent.

  /// Enable (plan != nullptr) or disable sharded stepping. Must be called
  /// before any cycle runs; incompatible with an attached trace sink.
  /// Fabrics override to size their tile-local scratch (and call the base).
  virtual void set_shard_plan(const ShardPlan* plan) {
    NOCSIM_CHECK_MSG(plan == nullptr || trace_ == nullptr,
                     "flit tracing is incompatible with sharded stepping");
    plan_ = plan;
    shard_tiles_.clear();
    eject_cursor_.clear();
    if (plan != nullptr) {
      shard_tiles_.resize(static_cast<std::size_t>(plan->tiles()));
      eject_cursor_.resize(static_cast<std::size_t>(plan->tiles()), 0);
    }
  }
  [[nodiscard]] const ShardPlan* shard_plan() const { return plan_; }

  virtual void shard_begin(Cycle now) { begin_cycle(now); }
  virtual void shard_deliver(Cycle now, int tile) {
    (void)now;
    (void)tile;
  }
  virtual void shard_route(Cycle now, int tile) = 0;
  virtual void shard_exchange(Cycle now, int tile) = 0;

  /// Serial epilogue: fold per-tile counters into stats_ and replay the
  /// buffered ejections merged across tiles by node id. Each tile records
  /// at most one eject per node per cycle in ascending node order, so the
  /// merge is the serial ascending-node eject order and the Welford
  /// accumulators see the exact same add sequence — whether tiles are
  /// contiguous row strips or 2D rectangles.
  virtual void shard_finish(Cycle now) {
    ++stats_.cycles;
    for (ShardTile& ts : shard_tiles_) {
      stats_.flits_injected += ts.flits_injected;
      stats_.flit_hops += ts.flit_hops;
      stats_.deflections += ts.deflections;
      stats_.productive_hops += ts.productive_hops;
      stats_.buffer_reads += ts.buffer_reads;
      stats_.buffer_writes += ts.buffer_writes;
      stats_.halo_writes += ts.halo_writes;
      stats_.halo_bytes += ts.halo_bytes;
      in_network_ = static_cast<std::uint64_t>(static_cast<std::int64_t>(in_network_) +
                                               ts.net_delta);
    }
    const std::size_t tiles = shard_tiles_.size();
    for (std::size_t t = 0; t < tiles; ++t) eject_cursor_[t] = 0;
    for (;;) {
      std::size_t best = tiles;
      NodeId best_at = 0;
      for (std::size_t t = 0; t < tiles; ++t) {
        const ShardTile& ts = shard_tiles_[t];
        if (eject_cursor_[t] >= ts.ejects.size()) continue;
        const NodeId at = ts.ejects[eject_cursor_[t]].at;
        if (best == tiles || at < best_at) {
          best = t;
          best_at = at;
        }
      }
      if (best == tiles) break;
      eject_stats(now, shard_tiles_[best].ejects[eject_cursor_[best]].flit);
      ++eject_cursor_[best];  // sink_ already ran on the tile thread
    }
    for (ShardTile& ts : shard_tiles_) ts.reset();
  }

  virtual void begin_cycle(Cycle now) = 0;
  [[nodiscard]] virtual bool can_accept(NodeId n) const = 0;

  /// Hand one flit to node n's router for injection this cycle.
  /// Pre: can_accept(n) was true after this cycle's begin_cycle().
  /// Sharded: callable concurrently from different tiles for their own
  /// nodes — the slot is tile-owned, and the shared bitmap word is updated
  /// with a commutative atomic OR.
  void request_inject(NodeId n, const Flit& f) {
    NOCSIM_SHARD_CHECK_WRITE(n, "injection slot (request_inject)");
    NOCSIM_DCHECK(!pending_inject_[n].requested);
    pending_inject_[n].flit = f;
    pending_inject_[n].requested = true;
    const std::size_t w = static_cast<std::size_t>(n) >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (n & 63);
    if (plan_ != nullptr) {
      std::atomic_ref<std::uint64_t>(inject_words_[w]).fetch_or(bit, std::memory_order_relaxed);
    } else {
      inject_words_[w] |= bit;
    }
  }

  virtual void step(Cycle now) = 0;

  /// True when no flit is in a router, on a link, or in an internal buffer.
  [[nodiscard]] bool empty() const { return in_network_ == 0; }

  /// Flits currently inside the network (telemetry gauge): injected but not
  /// yet ejected, whether in a router, on a link, or buffered.
  [[nodiscard]] std::uint64_t in_flight() const { return in_network_; }

  /// Sentinel for "no flit in flight" from oldest_inflight_inject_cycle().
  static constexpr std::uint32_t kNoInflight = ~std::uint32_t{0};

  /// Inject cycle of the oldest flit currently inside the network (router
  /// latches, links, buffers), or kNoInflight when empty. A full scan of
  /// the fabric's in-flight storage: meant for the livelock watchdog's
  /// serial check cadence, never the per-cycle hot path.
  [[nodiscard]] virtual std::uint32_t oldest_inflight_inject_cycle() const = 0;

  /// Cumulative deflections at node n's router (monotone; telemetry samples
  /// it as per-interval deltas). Always 0 on the buffered fabric.
  [[nodiscard]] std::uint64_t node_deflections(NodeId n) const {
    return node_deflections_[static_cast<std::size_t>(n)];
  }

  [[nodiscard]] const FabricStats& stats() const { return stats_; }
  void reset_stats() { stats_ = FabricStats{}; }

  [[nodiscard]] const Topology& topology() const { return topo_; }

  /// Unidirectional link count (for utilization).
  [[nodiscard]] std::uint64_t num_links() const {
    std::uint64_t links = 0;
    for (NodeId n = 0; n < topo_.num_nodes(); ++n) links += topo_.degree(n);
    return links;
  }

  /// For the distributed controller (§6.6): while node n is marked starved,
  /// the fabric sets the congested bit on every flit passing through n.
  /// Call enable_marking() once before using set_marks_flits().
  void enable_marking() { marking_.assign(topo_.num_nodes(), 0); }
  void set_marks_flits(NodeId n, bool marking) { marking_.at(n) = marking; }

 protected:
  /// Concrete grid family recognized for the analytic routing fast path
  /// (used only above the route-table cap; Generic never occurs there —
  /// the ctor CHECKs that irregular graphs fit the tables).
  enum class TopoKind : std::uint8_t { Generic, Mesh, Torus, Mesh3D, Torus3D };

  /// Signed shortest offset from `a` to `b` on a ring of size `n`, in
  /// (-n/2, n/2]; must mirror the helper in topology.cpp exactly.
  [[nodiscard]] static constexpr int ring_offset(int a, int b, int n) {
    int fwd = (b - a + n) % n;
    if (fwd * 2 > n) fwd -= n;
    return fwd;
  }

  struct InjectSlot {
    Flit flit;
    bool requested = false;
  };

  static constexpr std::size_t word_count(NodeId nodes) {
    return (static_cast<std::size_t>(nodes) + 63) / 64;
  }

  /// Table-accelerated Topology::route_preference, with an analytic inline
  /// path for grid families above the route-table cap (virtual fallback
  /// only for unrecognized topologies). Hot: once per flit per hop. The
  /// analytic forms reproduce the Dijkstra tables' pinned tie-breaks
  /// exactly: dimension order x, y, z, with two preferred dirs at most;
  /// torus ring ties go to the positive direction.
  [[nodiscard]] RoutePreference route_pref(NodeId from, NodeId to) const {
    if (!route_tab_.empty()) {
      const std::uint8_t p =
          route_tab_[static_cast<std::size_t>(from) * static_cast<std::size_t>(topo_.num_nodes()) +
                     static_cast<std::size_t>(to)];
      RoutePreference r;
      r.count = p & 3;
      r.dirs[0] = static_cast<Dir>((p >> 2) & 7);
      r.dirs[1] = static_cast<Dir>((p >> 5) & 7);
      return r;
    }
    if (analytic_ != TopoKind::Generic) {
      const bool wrap = analytic_ == TopoKind::Torus || analytic_ == TopoKind::Torus3D;
      const bool three_d = analytic_ == TopoKind::Mesh3D || analytic_ == TopoKind::Torus3D;
      RoutePreference pref;
      const auto add = [&pref](int off, Dir pos, Dir neg) {
        if (off != 0 && pref.count < 2) pref.dirs[pref.count++] = (off > 0) ? pos : neg;
      };
      const int fx = coord_x_[static_cast<std::size_t>(from)];
      const int fy = coord_y_[static_cast<std::size_t>(from)];
      const int tx = coord_x_[static_cast<std::size_t>(to)];
      const int ty = coord_y_[static_cast<std::size_t>(to)];
      if (wrap) {
        // Shorter way around each ring, ties toward the positive direction.
        add(ring_offset(fx, tx, topo_.width()), Dir::East, Dir::West);
        add(ring_offset(fy, ty, topo_.height()), Dir::South, Dir::North);
      } else {
        add(tx - fx, Dir::East, Dir::West);
        add(ty - fy, Dir::South, Dir::North);
      }
      if (three_d) {
        const int fz = coord_z_[static_cast<std::size_t>(from)];
        const int tz = coord_z_[static_cast<std::size_t>(to)];
        add(wrap ? ring_offset(fz, tz, topo_.depth()) : tz - fz, Dir::Down, Dir::Up);
      }
      return pref;
    }
    return topo_.route_preference(from, to);
  }

  /// Table-accelerated Topology::distance, analytic for grid families above
  /// the table cap; hot: once per delivered flit.
  [[nodiscard]] int hop_distance(NodeId a, NodeId b) const {
    if (!dist_tab_.empty()) {
      return dist_tab_[static_cast<std::size_t>(a) * static_cast<std::size_t>(topo_.num_nodes()) +
                       static_cast<std::size_t>(b)];
    }
    if (analytic_ != TopoKind::Generic) {
      const bool wrap = analytic_ == TopoKind::Torus || analytic_ == TopoKind::Torus3D;
      const bool three_d = analytic_ == TopoKind::Mesh3D || analytic_ == TopoKind::Torus3D;
      const int ax = coord_x_[static_cast<std::size_t>(a)];
      const int ay = coord_y_[static_cast<std::size_t>(a)];
      const int bx = coord_x_[static_cast<std::size_t>(b)];
      const int by = coord_y_[static_cast<std::size_t>(b)];
      int d = wrap ? std::abs(ring_offset(ax, bx, topo_.width())) +
                         std::abs(ring_offset(ay, by, topo_.height()))
                   : std::abs(ax - bx) + std::abs(ay - by);
      if (three_d) {
        const int az = coord_z_[static_cast<std::size_t>(a)];
        const int bz = coord_z_[static_cast<std::size_t>(b)];
        d += wrap ? std::abs(ring_offset(az, bz, topo_.depth())) : std::abs(az - bz);
      }
      return d;
    }
    return topo_.distance(a, b);
  }

  void eject_stats(Cycle now, const Flit& f) {
    ++stats_.flits_ejected;
    stats_.net_latency.add(static_cast<double>(now - f.inject_cycle));
    stats_.total_latency.add(static_cast<double>(now - f.enqueue_cycle));
    stats_.hops_per_flit.add(static_cast<double>(f.hops));
    stats_.deflections_per_flit.add(static_cast<double>(f.deflections));
    stats_.flit_hops_delivered += f.hops;
    stats_.min_hops_total += static_cast<std::uint64_t>(hop_distance(f.src, f.dst));
  }

  void eject(Cycle now, NodeId at, Flit& f) {
    eject_stats(now, f);
    if (trace_ != nullptr) trace_->on_eject(now, at, f);
    if (sink_) sink_(at, f);
  }

  /// One ejection recorded during a sharded route phase: the sink runs
  /// immediately (the tile owns the node's NI state), the accumulator
  /// updates are deferred to shard_finish's ascending-tile replay.
  struct ShardEject {
    NodeId at;
    Flit flit;
  };

  /// Per-tile scratch accumulated during one sharded cycle: plain counters
  /// (commutative — summed in shard_finish) plus the order-sensitive eject
  /// records (replayed serially). Reset every cycle; the vector keeps its
  /// capacity, so the steady-state cycle is allocation-free.
  struct ShardTile {
    std::uint64_t flits_injected = 0;
    std::uint64_t flit_hops = 0;
    std::uint64_t deflections = 0;
    std::uint64_t productive_hops = 0;
    std::uint64_t buffer_reads = 0;
    std::uint64_t buffer_writes = 0;
    std::uint64_t halo_writes = 0;
    std::uint64_t halo_bytes = 0;
    std::int64_t net_delta = 0;  ///< in_network_ delta (injected - ejected)
    std::vector<ShardEject> ejects;

    void reset() {
      flits_injected = flit_hops = deflections = 0;
      productive_hops = buffer_reads = buffer_writes = 0;
      halo_writes = halo_bytes = 0;
      net_delta = 0;
      ejects.clear();
    }
  };

  void eject_shard(NodeId at, const Flit& f, ShardTile& ts) {
    NOCSIM_SHARD_CHECK_WRITE(at, "ejection (eject_shard)");
    --ts.net_delta;
    ts.ejects.push_back(ShardEject{at, f});
    if (sink_) sink_(at, f);
  }

  [[nodiscard]] bool node_marks(NodeId n) const {
    return !marking_.empty() && marking_[n];
  }

  // Shard-ownership annotations (common/shard_annotations.hpp): tile-local
  // state is writable per node only by the owning tile during phases;
  // shared-readonly state is written from serial sections (ctor,
  // shard_begin/shard_finish, the non-sharded step()) only.
  const Topology& topo_;
  const int hop_latency_;  ///< cycles from one router's input latch to the next's
  std::vector<InjectSlot> pending_inject_ NOCSIM_TILE_LOCAL;
  /// Bitmap over nodes with a pending injection request; fabrics OR it into
  /// their arrival worklist in step() (and clear the consumed words) so an
  /// inject-only router is still visited without scanning every node.
  /// Boundary words are shared and use commutative atomic RMWs.
  std::vector<std::uint64_t> inject_words_ NOCSIM_TILE_LOCAL;
  std::vector<std::uint8_t> route_tab_ NOCSIM_SHARED_READONLY;   ///< packed RoutePreference
  std::vector<std::uint16_t> dist_tab_ NOCSIM_SHARED_READONLY;   ///< hop distances, or empty
  TopoKind analytic_ NOCSIM_SHARED_READONLY = TopoKind::Generic;
  std::vector<std::int16_t> coord_x_ NOCSIM_SHARED_READONLY;  ///< analytic coord lanes
  std::vector<std::int16_t> coord_y_ NOCSIM_SHARED_READONLY;
  std::vector<std::int16_t> coord_z_ NOCSIM_SHARED_READONLY;
  FabricStats stats_ NOCSIM_SHARED_READONLY;
  EjectSink sink_ NOCSIM_SHARED_READONLY;
  FlitEventSink* trace_ NOCSIM_SHARED_READONLY = nullptr;  ///< null = tracing off
  std::uint64_t in_network_ NOCSIM_SHARED_READONLY = 0;    ///< flits injected minus ejected
  std::vector<std::uint64_t> node_deflections_ NOCSIM_TILE_LOCAL;  ///< per-router
  std::vector<std::uint8_t> marking_ NOCSIM_SHARED_READONLY;  ///< empty unless distributed CC
  const ShardPlan* plan_ NOCSIM_SHARED_READONLY = nullptr;    ///< null = serial stepping
  std::vector<ShardTile> shard_tiles_ NOCSIM_TILE_LOCAL;  ///< one per tile when sharded
  std::vector<std::size_t> eject_cursor_ NOCSIM_SHARED_READONLY;  ///< shard_finish merge scratch
};

}  // namespace nocsim
