// Experiment helpers shared by the bench binaries and examples.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace nocsim {

class SweepRunner;

/// Build and run one simulation.
SimResult run_workload(const SimConfig& config, const WorkloadSpec& workload);

/// Per-node alone-run IPCs for weighted speedup: node i's application runs
/// by itself (all other nodes idle) in the same network with no congestion
/// control. Cached per application (an app's alone IPC varies by <2% with
/// mesh position because the empty network adds almost no contention), so a
/// whole workload sweep needs at most one alone-run per catalog entry.
class AloneIpcCache {
 public:
  explicit AloneIpcCache(SimConfig base);

  /// IPC_alone for each node of `workload` (0.0 for idle nodes).
  std::vector<double> get(const WorkloadSpec& workload);

  /// Run the alone-runs for every not-yet-cached application appearing in
  /// `workloads` through `runner` (one sweep point per application, same
  /// construction as the serial path in get()). After priming, get() is
  /// pure cache lookup and a whole workload sweep can run in parallel.
  void prime(const std::vector<WorkloadSpec>& workloads, SweepRunner& runner);

 private:
  SimConfig base_;
  std::map<std::string, double> cache_;
};

/// Convenience: scale a Table 2 config to an NxN mesh.
SimConfig scaled_config(const SimConfig& base, int side);

}  // namespace nocsim
