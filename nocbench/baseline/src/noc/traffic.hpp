// Open-loop synthetic traffic for network-only experiments and tests.
//
// The closed-loop CPU model (src/cpu, src/sim) is the paper's methodology;
// these injectors exist to characterize the fabric in isolation (router
// microbenchmarks, saturation sweeps, unit tests) the way the interconnect
// literature does: Bernoulli injection at a given rate with a destination
// pattern.
#pragma once

#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "topology/topology.hpp"

namespace nocsim {

/// Chooses a destination for a packet injected at `src`.
class TrafficPattern {
 public:
  virtual ~TrafficPattern() = default;
  [[nodiscard]] virtual NodeId pick(NodeId src, Rng& rng) const = 0;
};

/// Uniform random over all other nodes.
class UniformTraffic final : public TrafficPattern {
 public:
  explicit UniformTraffic(const Topology& topo) : topo_(topo) {}
  [[nodiscard]] NodeId pick(NodeId src, Rng& rng) const override;

 private:
  const Topology& topo_;
};

/// Transpose: (x, y) -> (y, x); classic adversarial pattern for XY routing.
class TransposeTraffic final : public TrafficPattern {
 public:
  explicit TransposeTraffic(const Topology& topo) : topo_(topo) {}
  [[nodiscard]] NodeId pick(NodeId src, Rng& rng) const override;

 private:
  const Topology& topo_;
};

/// Hotspot: a fraction of traffic targets one node; rest uniform.
class HotspotTraffic final : public TrafficPattern {
 public:
  HotspotTraffic(const Topology& topo, NodeId hotspot, double fraction)
      : topo_(topo), uniform_(topo), hotspot_(hotspot), fraction_(fraction) {}
  [[nodiscard]] NodeId pick(NodeId src, Rng& rng) const override;

 private:
  const Topology& topo_;
  UniformTraffic uniform_;
  NodeId hotspot_;
  double fraction_;
};

/// Exponential locality (paper §3.2): destination hop distance d is drawn
/// from Exp(lambda) rounded to an integer >= 1, then a node is chosen
/// uniformly from the ring at Manhattan distance d (clipped to the grid).
/// With lambda = 1 this places ~95% of requests within 3 hops and ~99%
/// within 5, as in the paper.
class ExponentialLocalityTraffic final : public TrafficPattern {
 public:
  ExponentialLocalityTraffic(const Topology& topo, double lambda)
      : topo_(topo), lambda_(lambda) {
    NOCSIM_CHECK(lambda > 0);
  }
  [[nodiscard]] NodeId pick(NodeId src, Rng& rng) const override;

  /// Shared helper: uniform-ish node at Manhattan distance `dist` from src,
  /// clipped to the grid (used by the L2 locality mapper too).
  static NodeId node_at_distance(const Topology& topo, NodeId src, int dist, Rng& rng);

 private:
  const Topology& topo_;
  double lambda_;
};

/// Power-law locality (footnote 4: "powerlaw distributions ... resulted in
/// similar conclusions"): d ~ Pareto(1, alpha), rounded, clipped.
class PowerLawLocalityTraffic final : public TrafficPattern {
 public:
  PowerLawLocalityTraffic(const Topology& topo, double alpha) : topo_(topo), alpha_(alpha) {
    NOCSIM_CHECK(alpha > 0);
  }
  [[nodiscard]] NodeId pick(NodeId src, Rng& rng) const override;

 private:
  const Topology& topo_;
  double alpha_;
};

std::unique_ptr<TrafficPattern> make_traffic_pattern(const std::string& name,
                                                     const Topology& topo,
                                                     double param = 1.0);

}  // namespace nocsim
