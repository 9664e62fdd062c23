#include "noc/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace nocsim {

NodeId UniformTraffic::pick(NodeId src, Rng& rng) const {
  const int n = topo_.num_nodes();
  NOCSIM_CHECK(n > 1);
  auto dst = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n - 1)));
  if (dst >= src) ++dst;  // skip self
  return dst;
}

NodeId TransposeTraffic::pick(NodeId src, Rng&) const {
  const Coord c = topo_.coord_of(src);
  // Transpose requires a square network; clamp otherwise.
  const int x = std::min(c.y, topo_.width() - 1);
  const int y = std::min(c.x, topo_.height() - 1);
  return topo_.node_at({x, y});
}

NodeId HotspotTraffic::pick(NodeId src, Rng& rng) const {
  if (src != hotspot_ && rng.next_bool(fraction_)) return hotspot_;
  return uniform_.pick(src, rng);
}

NodeId ExponentialLocalityTraffic::node_at_distance(const Topology& topo, NodeId src,
                                                    int dist, Rng& rng) {
  if (topo.kind() == Topology::Kind::Irregular) {
    // No grid coordinates: enumerate the hop-distance ring (ascending node
    // id, so the draw is a pure function of the seed and the graph file).
    const int n = topo.num_nodes();
    int max_dist = 0;
    for (NodeId v = 0; v < n; ++v) max_dist = std::max(max_dist, topo.distance(src, v));
    dist = std::clamp(dist, 1, max_dist);
    std::vector<NodeId> ring;
    for (NodeId v = 0; v < n; ++v) {
      if (topo.distance(src, v) == dist) ring.push_back(v);
    }
    // Table paths minimize link latency, so hop counts need not cover every
    // radius; an empty ring falls back to any other node.
    if (ring.empty()) return UniformTraffic(topo).pick(src, rng);
    return ring[rng.next_below(ring.size())];
  }
  if (topo.depth() > 1) {
    // 3D grids: same rejection-then-enumerate scheme as the 2D path below,
    // over the Manhattan sphere (dx, then dy within the remainder, dz takes
    // the rest with a random sign).
    const Coord c = topo.coord_of(src);
    const int max_dist = (topo.width() - 1) + (topo.height() - 1) + (topo.depth() - 1);
    dist = std::clamp(dist, 1, max_dist);
    for (int attempt = 0; attempt < 32; ++attempt) {
      const int dx = static_cast<int>(rng.next_range(-dist, dist));
      const int rem_x = dist - std::abs(dx);
      const int dy = static_cast<int>(rng.next_range(-rem_x, rem_x));
      const int rem = rem_x - std::abs(dy);
      const int dz = rng.next_bool(0.5) ? rem : -rem;
      const Coord t{c.x + dx, c.y + dy, c.z + dz};
      if (t.x >= 0 && t.x < topo.width() && t.y >= 0 && t.y < topo.height() && t.z >= 0 &&
          t.z < topo.depth() && !(dx == 0 && dy == 0 && dz == 0)) {
        return topo.node_at(t);
      }
    }
    std::vector<NodeId> ring;
    for (int dx = -dist; dx <= dist; ++dx) {
      const int rem_x = dist - std::abs(dx);
      for (int dy = -rem_x; dy <= rem_x; ++dy) {
        const int rem = rem_x - std::abs(dy);
        for (const int dz : {rem, -rem}) {
          const Coord t{c.x + dx, c.y + dy, c.z + dz};
          if (t.x >= 0 && t.x < topo.width() && t.y >= 0 && t.y < topo.height() &&
              t.z >= 0 && t.z < topo.depth() && !(dx == 0 && dy == 0 && dz == 0)) {
            ring.push_back(topo.node_at(t));
          }
          if (rem == 0) break;  // dz == -dz: avoid double-counting
        }
      }
    }
    if (ring.empty()) return UniformTraffic(topo).pick(src, rng);
    return ring[rng.next_below(ring.size())];
  }
  const Coord c = topo.coord_of(src);
  const int max_dist = (topo.width() - 1) + (topo.height() - 1);
  dist = std::clamp(dist, 1, max_dist);

  // Rejection-sample an offset on the Manhattan ring of radius `dist`; fall
  // back to enumerating the ring when the grid clips most of it.
  for (int attempt = 0; attempt < 32; ++attempt) {
    const int dx = static_cast<int>(rng.next_range(-dist, dist));
    const int rem = dist - std::abs(dx);
    const int dy = rng.next_bool(0.5) ? rem : -rem;
    const Coord t{c.x + dx, c.y + dy};
    if (t.x >= 0 && t.x < topo.width() && t.y >= 0 && t.y < topo.height() &&
        !(dx == 0 && dy == 0)) {
      return topo.node_at(t);
    }
  }
  std::vector<NodeId> ring;
  for (int dx = -dist; dx <= dist; ++dx) {
    const int rem = dist - std::abs(dx);
    for (const int dy : {rem, -rem}) {
      const Coord t{c.x + dx, c.y + dy};
      if (t.x >= 0 && t.x < topo.width() && t.y >= 0 && t.y < topo.height() &&
          !(dx == 0 && dy == 0)) {
        ring.push_back(topo.node_at(t));
      }
      if (rem == 0) break;  // dy == -dy: avoid double-counting
    }
  }
  if (ring.empty()) {
    // Radius entirely outside the grid (tiny networks): fall back to any
    // other node.
    return UniformTraffic(topo).pick(src, rng);
  }
  return ring[rng.next_below(ring.size())];
}

NodeId ExponentialLocalityTraffic::pick(NodeId src, Rng& rng) const {
  const double d = rng.next_exponential(lambda_);
  return node_at_distance(topo_, src, std::max(1, static_cast<int>(std::lround(d))), rng);
}

NodeId PowerLawLocalityTraffic::pick(NodeId src, Rng& rng) const {
  const double d = rng.next_pareto(1.0, alpha_);
  return ExponentialLocalityTraffic::node_at_distance(
      topo_, src, std::max(1, static_cast<int>(std::lround(d))), rng);
}

std::unique_ptr<TrafficPattern> make_traffic_pattern(const std::string& name,
                                                     const Topology& topo, double param) {
  if (name == "uniform") return std::make_unique<UniformTraffic>(topo);
  if (name == "transpose") return std::make_unique<TransposeTraffic>(topo);
  if (name == "hotspot")
    return std::make_unique<HotspotTraffic>(topo, topo.num_nodes() / 2, param);
  if (name == "exponential") return std::make_unique<ExponentialLocalityTraffic>(topo, param);
  if (name == "powerlaw") return std::make_unique<PowerLawLocalityTraffic>(topo, param);
  NOCSIM_CHECK_MSG(false, "unknown traffic pattern name");
  return nullptr;
}

}  // namespace nocsim
