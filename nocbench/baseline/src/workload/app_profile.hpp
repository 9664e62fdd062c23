// Application profiles: the paper's Table 1 catalog.
//
// The paper drives each core with a PinPoints slice of a real application
// (SPEC CPU2006 + desktop/workstation/server programs). Those traces are
// proprietary; what the *network* sees of an application is captured by
//   - its instructions-per-flit (IPF = retired instructions per flit of
//     traffic), equivalently its L1-miss density, and
//   - its temporal phase behaviour (Fig. 6).
// We therefore keep the paper's application names and published IPF values
// (Table 1) and derive, for each, a synthetic trace generator whose memory
// behaviour reproduces that IPF through a *real* simulated L1: a hot working
// set that fits the cache plus a cold stream that always misses.
//
// Derivation (documented in DESIGN.md): with R request and D response flits
// per miss (1 + 3 here), target misses-per-instruction
//     mpi = 1 / (IPF * (R + D)),
// memory-op fraction p_mem = clamp(2*mpi, 0.25, 0.80), and the fraction of
// memory ops that go to the cold stream cold = mpi / p_mem.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace nocsim {

/// Network-intensity class (Table 1 / §6.1): H below 2 IPF, M in [2, 100],
/// L above 100.
enum class IntensityClass : std::uint8_t { Heavy, Medium, Light };

constexpr char to_char(IntensityClass c) {
  switch (c) {
    case IntensityClass::Heavy: return 'H';
    case IntensityClass::Medium: return 'M';
    case IntensityClass::Light: return 'L';
  }
  return '?';
}

/// Temporal phase behaviour of the generator (drives Fig. 6-style intensity
/// variation and the per-epoch IPF variance of Table 1).
enum class PhaseStyle : std::uint8_t {
  Steady,  ///< constant intensity
  Sine,    ///< smooth periodic modulation of miss density
  Burst,   ///< two-state (ON/OFF) bursts with geometric durations
};

struct AppProfile {
  std::string name;
  double table_ipf = 1.0;      ///< published mean IPF (Table 1)
  double table_ipf_var = 0.0;  ///< published IPF variance (Table 1)
  IntensityClass cls = IntensityClass::Medium;
  PhaseStyle phase = PhaseStyle::Steady;

  // ---- generator parameters, derived from table_ipf ----
  double mem_fraction = 0.3;   ///< probability an instruction is a memory op
  double cold_fraction = 0.0;  ///< P(memory op targets the always-miss stream)
  std::size_t hot_blocks = 2048;  ///< hot working-set size, cache blocks
  /// Application-level memory parallelism: how many misses the program's
  /// dependence structure lets it keep outstanding (min'd with the core's
  /// MSHR count). Pointer-chasing codes (mcf, health) have low MLP — which
  /// is why the paper can throttle them 90% at almost no cost to themselves;
  /// streaming codes (lbm, libquantum) have high MLP.
  int max_mlp = 12;
  std::uint64_t phase_period = 400'000;  ///< accesses per phase cycle / mean burst
  double phase_amplitude = 0.5;          ///< modulation depth

  /// Flits attributed to one L1 miss (request + response) under the default
  /// packetization (1 + 3); used when deriving cold_fraction from table_ipf.
  static constexpr double kFlitsPerMiss = 4.0;
};

/// Full Table 1 catalog (34 applications), with derived generator params.
const std::vector<AppProfile>& app_catalog();

/// Lookup by name; aborts on unknown names (tests rely on the exact set).
const AppProfile& app_by_name(const std::string& name);

/// All catalog apps in a given class.
std::vector<const AppProfile*> apps_in_class(IntensityClass c);

}  // namespace nocsim
