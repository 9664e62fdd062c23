#include "cpu/l2map.hpp"

namespace nocsim {

std::unique_ptr<L2Mapper> make_l2_mapper(const std::string& name, const Topology& topo,
                                         double lambda) {
  if (name == "stripe") return std::make_unique<UniformStripeMapper>(topo);
  if (name == "xor") return std::make_unique<XorInterleaveMapper>(topo);
  if (name == "exponential") return std::make_unique<ExponentialLocalityMapper>(topo, lambda);
  NOCSIM_CHECK_MSG(false, "unknown L2 mapping name (stripe|xor|exponential)");
  return nullptr;
}

}  // namespace nocsim
