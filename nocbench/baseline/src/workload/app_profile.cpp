#include "workload/app_profile.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace nocsim {
namespace {

IntensityClass classify(double ipf) {
  if (ipf < 2.0) return IntensityClass::Heavy;
  if (ipf <= 100.0) return IntensityClass::Medium;
  return IntensityClass::Light;
}

/// Phase style chosen from the published variance-to-mean structure: apps
/// whose Table 1 variance is large relative to their mean show bursty or
/// periodic behaviour; very steady apps get constant intensity.
PhaseStyle phase_style(double mean, double var) {
  if (mean <= 0) return PhaseStyle::Steady;
  const double ratio = var / (mean * mean);
  if (ratio > 0.5) return PhaseStyle::Burst;
  if (ratio > 0.05) return PhaseStyle::Sine;
  return PhaseStyle::Steady;
}

AppProfile derive(std::string name, double ipf, double var) {
  AppProfile p;
  p.name = std::move(name);
  p.table_ipf = ipf;
  p.table_ipf_var = var;
  p.cls = classify(ipf);
  p.phase = phase_style(ipf, var);

  const double mpi = 1.0 / (ipf * AppProfile::kFlitsPerMiss);  // misses / instruction
  p.mem_fraction = std::clamp(2.0 * mpi, 0.25, 0.80);
  p.cold_fraction = mpi / p.mem_fraction;
  NOCSIM_CHECK_MSG(p.cold_fraction <= 1.0, "IPF too low to realize with this packetization");

  // A dense hot set keeps hot lines MRU so cold-stream pollution cannot
  // perturb the calibrated miss rate; network-light apps get a larger hot
  // set for a more realistic cache footprint.
  p.hot_blocks = (p.cold_fraction > 0.1) ? 256 : 2048;

  // Default MLP by class; per-app overrides below for programs whose
  // dependence structure is well known.
  switch (p.cls) {
    case IntensityClass::Heavy: p.max_mlp = 16; break;
    case IntensityClass::Medium: p.max_mlp = 12; break;
    case IntensityClass::Light: p.max_mlp = 16; break;
  }

  // Phase depth scaled by the published variance (bounded away from the
  // degenerate endpoints); period staggered by a hash of the name so
  // co-scheduled copies do not phase-lock.
  const double ratio = var / (ipf * ipf);
  p.phase_amplitude = std::clamp(0.3 + 0.4 * std::min(ratio, 4.0) / 4.0, 0.0, 0.8);
  // Modulation must never clip at cold_fraction == 1, or clipping would
  // silently lower the mean and break the IPF calibration. Burst peaks at
  // (1 + 2A) x cold; Sine at (1 + A) x cold.
  if (p.cold_fraction > 0) {
    const double headroom = 1.0 / p.cold_fraction - 1.0;
    const double max_amp = (p.phase == PhaseStyle::Burst) ? headroom / 2.0 : headroom;
    p.phase_amplitude = std::min(p.phase_amplitude, std::max(0.0, max_amp));
  }
  // Period staggered by a hash of the name so co-scheduled copies do not
  // phase-lock. Scale: a few controller epochs per phase, so that epoch
  // telemetry sees intensity change (Fig. 6) without aliasing.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : p.name) h = (h ^ static_cast<std::uint64_t>(c)) * 1099511628211ULL;
  p.phase_period = 60'000 + h % 120'000;
  return p;
}

std::vector<AppProfile> build_catalog() {
  // (name, mean IPF, IPF variance) — Table 1, verbatim.
  const struct {
    const char* name;
    double mean, var;
  } rows[] = {
      {"matlab", 0.4, 0.4},        {"health", 0.9, 0.1},
      {"mcf", 1.0, 0.3},           {"art.ref.train", 1.3, 1.3},
      {"lbm", 1.6, 0.3},           {"soplex", 1.7, 0.9},
      {"libquantum", 2.1, 0.6},    {"GemsFDTD", 2.2, 1.4},
      {"leslie3d", 3.1, 1.3},      {"milc", 3.8, 1.1},
      {"mcf2", 5.5, 17.4},         {"tpcc", 6.0, 7.1},
      {"xalancbmk", 6.2, 6.1},     {"vpr", 6.4, 0.3},
      {"astar", 8.0, 0.8},         {"hmmer", 9.6, 1.1},
      {"sphinx3", 11.8, 95.2},     {"cactus", 14.6, 4.0},
      {"gromacs", 19.4, 12.2},     {"bzip2", 65.5, 238.1},
      {"xml_trace", 108.9, 339.1}, {"gobmk", 140.8, 1092.8},
      {"sjeng", 141.8, 51.5},      {"wrf", 151.6, 357.1},
      {"crafty", 157.2, 119.0},    {"gcc", 285.8, 81.5},
      {"h264ref", 310.0, 1937.4},  {"namd", 684.3, 942.2},
      {"omnetpp", 804.4, 3702.0},  {"dealII", 2804.8, 4267.8},
      {"calculix", 3106.5, 4100.6},{"tonto", 3823.5, 4863.9},
      {"perlbench", 9803.8, 8856.1},{"povray", 20708.5, 1501.8},
  };
  std::vector<AppProfile> catalog;
  catalog.reserve(std::size(rows));
  for (const auto& r : rows) catalog.push_back(derive(r.name, r.mean, r.var));

  // Dependence-structure overrides: pointer/graph chasers vs streamers.
  const auto set_mlp = [&](const char* name, int mlp) {
    for (AppProfile& p : catalog) {
      if (p.name == name) p.max_mlp = mlp;
    }
  };
  set_mlp("mcf", 10);       // linked-list chasing
  set_mlp("mcf2", 10);
  set_mlp("health", 10);    // linked-list hospital simulation
  set_mlp("xalancbmk", 8);  // DOM-tree walking
  set_mlp("omnetpp", 8);
  set_mlp("lbm", 16);       // streaming stencils
  set_mlp("libquantum", 16);
  set_mlp("milc", 16);
  set_mlp("leslie3d", 16);
  set_mlp("GemsFDTD", 16);
  return catalog;
}

}  // namespace

const std::vector<AppProfile>& app_catalog() {
  static const std::vector<AppProfile> catalog = build_catalog();
  return catalog;
}

const AppProfile& app_by_name(const std::string& name) {
  for (const AppProfile& p : app_catalog())
    if (p.name == name) return p;
  NOCSIM_CHECK_MSG(false, "unknown application name");
  return app_catalog().front();
}

std::vector<const AppProfile*> apps_in_class(IntensityClass c) {
  std::vector<const AppProfile*> out;
  for (const AppProfile& p : app_catalog())
    if (p.cls == c) out.push_back(&p);
  return out;
}

}  // namespace nocsim
