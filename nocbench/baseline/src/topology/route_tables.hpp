// Deterministic shortest-path routing tables for any topology graph.
//
// build_route_tables runs one reverse-graph Dijkstra per destination over
// the topology's directed links, weighted by per-link latency, and packs the
// result into the flat table layout the fabric's hot path consumes (one byte
// per (src, dst): productive-port count + first two ports).
//
// Determinism is pinned by construction, not by heap order: candidate ports
// are ranked from the *final* distance array, so any Dijkstra visit order
// yields the same tables.
//   - Grid families rank candidates in dimension order (x, then y, then z);
//     when both directions of a torus ring tie (even ring, half-way around),
//     the positive direction wins — exactly the analytic ring_offset rule,
//     so 2D mesh/torus tables are bit-identical to the pre-builder ones.
//   - Irregular graphs rank by output-port index (ports are assigned in
//     ascending neighbour order by the parser), i.e. lowest-index next-hop.
//
// Deadlock freedom is checked, not assumed: check_cdg_acyclic walks the
// channel-dependency graph of the table's preferred paths under the buffered
// fabric's VC-class transform (dateline classes on wrap links) and reports
// whether it is cycle-free.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/topology.hpp"

namespace nocsim {

struct RouteTables {
  int nodes = 0;
  /// [src * nodes + dst]: (count & 3) | dir0 << 2 | dir1 << 5.
  std::vector<std::uint8_t> packed;
  /// [src * nodes + dst]: hop length of the preferred (dirs[0]) path.
  std::vector<std::uint16_t> hops;
  /// [src * nodes + dst]: latency-weighted shortest distance.
  std::vector<std::uint32_t> cost;

  [[nodiscard]] static std::uint8_t pack(const RoutePreference& p) {
    return static_cast<std::uint8_t>((p.count & 3) |
                                     (static_cast<int>(p.dirs[0]) << 2) |
                                     (static_cast<int>(p.dirs[1]) << 5));
  }

  [[nodiscard]] RoutePreference pref(NodeId src, NodeId dst) const {
    const std::uint8_t p =
        packed[static_cast<std::size_t>(src) * static_cast<std::size_t>(nodes) +
               static_cast<std::size_t>(dst)];
    RoutePreference r;
    r.count = p & 3;
    r.dirs[0] = static_cast<Dir>((p >> 2) & 7);
    r.dirs[1] = static_cast<Dir>((p >> 5) & 7);
    return r;
  }

  [[nodiscard]] int hop_distance(NodeId src, NodeId dst) const {
    return hops[static_cast<std::size_t>(src) * static_cast<std::size_t>(nodes) +
                static_cast<std::size_t>(dst)];
  }
};

/// Build the full table set. CHECKs that every node can reach every other.
RouteTables build_route_tables(const Topology& topo);

/// True iff the channel-dependency graph of the tables' preferred (dirs[0])
/// paths is acyclic under the buffered fabric's VC-class model: wrap-free
/// topologies collapse to one class per link; torus families split each link
/// into dateline classes exactly as BufferedFabric's vc_state transform
/// does. Acyclic CDG + credit flow control => the buffered fabric cannot
/// deadlock on these tables (the bufferless fabric never blocks and needs no
/// such argument).
bool check_cdg_acyclic(const Topology& topo, const RouteTables& tables);

}  // namespace nocsim
