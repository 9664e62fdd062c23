// Result structures produced by a simulation run, and the metrics the paper
// evaluates with (§3.1, §6.2).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "noc/fabric.hpp"
#include "power/power.hpp"

namespace nocsim {

/// Number of workload intensity classes (Heavy/Medium/Light — mirrors
/// workload/app_profile.hpp IntensityClass, kept as a plain constant so
/// metrics does not depend on the workload module).
inline constexpr int kNumIntensityClasses = 3;

/// Latency distributions over delivered flits in the measurement window
/// (cycles). Fixed bins sized for congested-regime tails; samples beyond
/// the range clamp into the last bin while min()/max() stay exact.
struct LatencyHistograms {
  Histogram net{0.0, 2048.0, 256};    ///< inject -> eject
  Histogram total{0.0, 4096.0, 256};  ///< NI enqueue -> eject
};

struct NodeResult {
  std::string app;                 ///< application name ("" = idle node)
  std::uint64_t retired = 0;       ///< instructions retired in measurement
  double ipc = 0.0;
  std::uint64_t flits = 0;         ///< flits attributed (requests + responses)
  double ipf = 0.0;                ///< measurement-window instructions-per-flit
  double starvation = 0.0;         ///< starved cycles / cycles (Algorithm 2)
  double starvation_network = 0.0; ///< subset: blocked by the fabric, not the gate
  double l1_miss_rate = 0.0;
  double mean_throttle_rate = 0.0; ///< time-average applied throttle rate
  std::vector<double> epoch_ipf;   ///< per-epoch IPF (when recorded)
};

struct SimResult {
  std::vector<NodeResult> nodes;
  Cycle cycles = 0;

  // Network-level.
  double avg_net_latency = 0.0;    ///< inject -> eject
  double avg_total_latency = 0.0;  ///< NI enqueue -> eject
  double utilization = 0.0;        ///< mean fraction of links busy
  double avg_starvation = 0.0;     ///< mean over nodes (Algorithm 2 sigma)
  double avg_starvation_network = 0.0;  ///< mean network-admission starvation
  double avg_hops = 0.0;           ///< mean hop distance of delivered flits
  double avg_deflections = 0.0;    ///< mean deflections per delivered flit
  FabricStats fabric;
  PowerReport power;

  // Congestion-control bookkeeping.
  double congested_epoch_fraction = 0.0;

  // Latency distributions (the means above are their first moments).
  LatencyHistograms latency;  ///< all delivered flits
  /// Split by the intensity class of the app that owns the flit (a
  /// Request's source node, a Response's destination node); Control flits
  /// and flits of idle/file-trace nodes count only in `latency`.
  std::array<LatencyHistograms, kNumIntensityClasses> latency_by_class;

  /// System throughput (§3.1): sum of per-node IPC.
  [[nodiscard]] double system_throughput() const {
    double sum = 0.0;
    for (const NodeResult& n : nodes) sum += n.ipc;
    return sum;
  }

  /// Per-node throughput (IPC/node) over *active* nodes.
  [[nodiscard]] double ipc_per_node() const {
    double sum = 0.0;
    int active = 0;
    for (const NodeResult& n : nodes) {
      if (n.app.empty()) continue;
      sum += n.ipc;
      ++active;
    }
    return active ? sum / active : 0.0;
  }
};

/// Weighted speedup (§6.2): WS = sum_i IPC_shared_i / IPC_alone_i, computed
/// over active nodes. `alone_ipc` must be indexed like `shared.nodes`.
inline double weighted_speedup(const SimResult& shared, const std::vector<double>& alone_ipc) {
  NOCSIM_CHECK(alone_ipc.size() == shared.nodes.size());
  double ws = 0.0;
  for (std::size_t i = 0; i < shared.nodes.size(); ++i) {
    if (shared.nodes[i].app.empty()) continue;
    NOCSIM_CHECK_MSG(alone_ipc[i] > 0.0, "alone IPC missing for an active node");
    ws += shared.nodes[i].ipc / alone_ipc[i];
  }
  return ws;
}

}  // namespace nocsim
