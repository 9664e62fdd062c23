// Event-energy NoC power model.
//
// The paper's Fig. 16 uses the BLESS router power model [20] (router + link
// power) and reports *relative* reductions; accordingly this model computes
// energy from event counts the simulator measures exactly:
//   - dynamic: per-flit link traversal, per-flit router traversal (pipeline
//     + port allocation), and — buffered only — buffer writes and reads;
//   - static:  per-router leakage per cycle, with buffered routers paying a
//     substantially higher floor (buffers dominate router area: removing
//     them saves 40-75% area and 20-40% network power per [20, 50]).
// Units are arbitrary ("energy units"); only ratios are meaningful, and all
// benches report percentages.
#pragma once

#include <cstdint>

#include "noc/fabric.hpp"

namespace nocsim {

struct PowerParams {
  // Dynamic energy per event.
  double e_link = 1.00;            ///< one flit across one link
  double e_router = 0.60;          ///< one flit through one router stage set
  double e_buffer_write = 0.45;    ///< one flit written into a VC FIFO
  double e_buffer_read = 0.35;     ///< one flit read out of a VC FIFO
  // Static power per router per cycle.
  double p_static_bufferless = 0.45;
  double p_static_buffered = 0.90;  ///< buffer leakage roughly doubles the floor
};

struct PowerReport {
  double dynamic_energy = 0.0;
  double static_energy = 0.0;
  [[nodiscard]] double total() const { return dynamic_energy + static_energy; }
  /// Mean power (energy per cycle).
  [[nodiscard]] double average_power(std::uint64_t cycles) const {
    return cycles ? total() / static_cast<double>(cycles) : 0.0;
  }
};

/// Compute a run's energy from its fabric counters.
inline PowerReport compute_power(const FabricStats& stats, bool buffered, int num_routers,
                                 const PowerParams& params = {}) {
  PowerReport report;
  const auto hops = static_cast<double>(stats.flit_hops);
  report.dynamic_energy = hops * (params.e_link + params.e_router) +
                          static_cast<double>(stats.buffer_writes) * params.e_buffer_write +
                          static_cast<double>(stats.buffer_reads) * params.e_buffer_read;
  const double p_static = buffered ? params.p_static_buffered : params.p_static_bufferless;
  report.static_energy =
      p_static * static_cast<double>(num_routers) * static_cast<double>(stats.cycles);
  return report;
}

}  // namespace nocsim
