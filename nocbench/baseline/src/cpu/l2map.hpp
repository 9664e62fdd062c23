// Shared-L2 home-slice address mapping (Table 2: "per-block interleaving,
// XOR mapping; randomized exponential for locality evaluations").
//
// The shared cache is distributed across all nodes; each L1 miss is serviced
// by the *home* node of its block. The mapping policy determines the traffic
// pattern:
//   - UniformStripe / XorInterleave: blocks scattered over all nodes — the
//     paper's small-network (4x4, 8x8) configuration, and the strawman whose
//     per-node throughput collapses by ~73% at 64x64 (§3.2).
//   - ExponentialLocality: requester-relative mapping with hop distance
//     ~ Exp(lambda) — models compiler/OS/hardware data placement; the
//     configuration for all scalability studies.
//
// All mappings are deterministic functions of (requester, block): repeated
// misses to a block go to the same home slice.
#pragma once

#include <cmath>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "noc/traffic.hpp"
#include "topology/topology.hpp"

namespace nocsim {

class L2Mapper {
 public:
  virtual ~L2Mapper() = default;
  [[nodiscard]] virtual NodeId home(NodeId requester, Addr block) const = 0;
};

/// home = block mod N: simple striping.
class UniformStripeMapper final : public L2Mapper {
 public:
  explicit UniformStripeMapper(const Topology& topo) : n_(topo.num_nodes()) {}
  [[nodiscard]] NodeId home(NodeId, Addr block) const override {
    return static_cast<NodeId>(block % static_cast<Addr>(n_));
  }

 private:
  int n_;
};

/// XOR-folded hash of the block number — decorrelates home nodes from
/// address strides (the paper's default small-network mapping).
class XorInterleaveMapper final : public L2Mapper {
 public:
  explicit XorInterleaveMapper(const Topology& topo) : n_(topo.num_nodes()) {}
  [[nodiscard]] NodeId home(NodeId, Addr block) const override {
    std::uint64_t h = block;
    h = splitmix64(h);
    return static_cast<NodeId>(h % static_cast<std::uint64_t>(n_));
  }

 private:
  int n_;
};

/// Requester-relative: hop distance max(1, round(Exp(lambda))), direction
/// uniform on the Manhattan ring, all derived from a hash of
/// (requester, block) so the mapping is stable.
class ExponentialLocalityMapper final : public L2Mapper {
 public:
  ExponentialLocalityMapper(const Topology& topo, double lambda)
      : topo_(topo), lambda_(lambda) {
    NOCSIM_CHECK(lambda > 0);
  }

  [[nodiscard]] NodeId home(NodeId requester, Addr block) const override {
    std::uint64_t seed = (static_cast<std::uint64_t>(requester) << 40) ^ block;
    Rng rng(splitmix64(seed));
    const double d = rng.next_exponential(lambda_);
    const int dist = std::max(1, static_cast<int>(std::lround(d)));
    return ExponentialLocalityTraffic::node_at_distance(topo_, requester, dist, rng);
  }

 private:
  const Topology& topo_;
  double lambda_;
};

std::unique_ptr<L2Mapper> make_l2_mapper(const std::string& name, const Topology& topo,
                                         double lambda = 1.0);

}  // namespace nocsim
