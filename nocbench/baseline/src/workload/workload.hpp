// Multiprogrammed workload construction (§6.1).
//
// A workload assigns one independent application to every node. The paper
// builds 875 workloads from seven *categories*, each drawing uniformly from
// the applications of the allowed intensity classes:
//   {H, M, L, HML, HM, HL, ML}
// e.g. an "HL" workload picks, per node, a random app that is either Heavy
// or Light. Special layouts (the Fig. 5 / Fig. 11 two-app checkerboard) are
// provided too.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "workload/app_profile.hpp"

namespace nocsim {

struct WorkloadSpec {
  std::string category;                 ///< for reporting
  std::vector<std::string> app_names;   ///< one entry per node
};

/// The paper's seven balanced categories, in its order.
const std::vector<std::string>& workload_categories();

/// Build a workload of `num_nodes` apps from `category` (e.g. "HML").
WorkloadSpec make_category_workload(const std::string& category, int num_nodes, Rng& rng);

/// Alternate two applications in a checkerboard over the mesh (Fig. 5 and
/// the Fig. 11/12 pairwise study): even (x+y) gets `app_a`, odd gets `app_b`.
WorkloadSpec make_checkerboard_workload(const std::string& app_a, const std::string& app_b,
                                        int width, int height);

/// All nodes run the same application.
WorkloadSpec make_homogeneous_workload(const std::string& app, int num_nodes);

}  // namespace nocsim
