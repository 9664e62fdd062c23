// Congestion controllers.
//
// CentralController is the paper's main mechanism (Algorithm 1): every T
// cycles it collects (IPF, sigma) from all nodes, decides whether the
// network is congested (Eq. 1), and if so throttles the nodes whose IPF is
// below the mean at a rate inversely proportional to their IPF (Eq. 2).
// Central coordination is cheap on-chip (§6.6): 2n control packets per
// epoch and a trivial computation.
//
// StaticController applies one fixed rate to everything (the §3.1 strawman
// behind Fig. 2(c)); SelectiveStaticController throttles a chosen subset
// (the Fig. 5 experiment); DistributedController is the §6.6 "TCP-like"
// congested-bit alternative, driven by per-packet feedback instead of
// epochs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace nocsim {

/// Algorithm parameters (§6.1 "Congestion Control Parameters", defaults as
/// evaluated; §6.4 sweeps their sensitivity).
struct CcParams {
  double alpha_starve = 0.40;  ///< congestion-threshold scale
  double beta_starve = 0.00;   ///< congestion-threshold lower bound
  double gamma_starve = 0.70;  ///< congestion-threshold upper bound
  double alpha_throt = 0.90;   ///< throttle-rate scale
  double beta_throt = 0.20;    ///< throttle-rate lower bound
  double gamma_throt = 0.75;   ///< throttle-rate upper bound
  Cycle epoch = 100'000;       ///< controller period T
  int starvation_window = 128; ///< W

  // ---- escalation extension (ours; not in the paper) ----------------------
  // Under convergent local traffic at large scale, the deflection-orbit
  // equilibrium can be stable under the fixed gamma_throt ceiling: flits
  // travel many times their minimal distance, yet per-node request demand
  // sits below the throttled capacity, so Eq. 2 alone cannot clear it. The
  // controller therefore watches the network's *hop inflation* (traversed /
  // minimal hops — computable centrally from flit headers) and temporarily
  // escalates throttling rates while inflation stays pathological,
  // releasing once the orbits collapse. Small-network behaviour is
  // unchanged (inflation there stays ~2, below the threshold). See
  // DESIGN.md "Calibration" and bench/fig13_16_scaling for the ablation.
  bool escalation = true;
  double escalation_inflation_threshold = 3.0;  ///< hop inflation that triggers it
  double escalation_step = 1.2;    ///< multiplicative increase per epoch
  double escalation_decay = 0.85;  ///< relaxation per calm epoch
  double rate_ceiling = 0.95;      ///< absolute cap on any throttle rate

  /// Eq. 1: per-node congestion-detection threshold on sigma.
  [[nodiscard]] double starve_threshold(double ipf) const {
    return std::min(beta_starve + alpha_starve / ipf, gamma_starve);
  }
  /// Eq. 2: throttling rate for a node chosen for throttling.
  [[nodiscard]] double throttle_rate(double ipf) const {
    return std::min(beta_throt + alpha_throt / ipf, gamma_throt);
  }
};

/// IPF reported by a node that injected no flits in an epoch (effectively
/// infinitely CPU-bound for that period). Matches IpfTracker::kMaxIpf.
inline constexpr double kIpfCap = 1e9;

/// One node's per-epoch report to the controller.
struct NodeTelemetry {
  double ipf = 0.0;               ///< epoch instructions-per-flit
  double starvation_rate = 0.0;   ///< windowed sigma at epoch end
};

/// Network-wide per-epoch state (from fabric counters).
struct NetTelemetry {
  double hop_inflation = 1.0;  ///< traversed hops / minimal hops, this epoch
};

class CongestionController {
 public:
  virtual ~CongestionController() = default;

  /// Epoch boundary: read telemetry, write the next epoch's per-node
  /// throttling rates into `rates` (same length as `telemetry`).
  virtual void on_epoch(Cycle now, std::span<const NodeTelemetry> telemetry,
                        const NetTelemetry& net, std::span<double> rates) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Was the network considered congested at the last epoch decision?
  [[nodiscard]] bool last_congested() const { return last_congested_; }
  [[nodiscard]] std::uint64_t epochs_congested() const { return epochs_congested_; }
  [[nodiscard]] std::uint64_t epochs_total() const { return epochs_total_; }

 protected:
  void note_epoch(bool congested) {
    last_congested_ = congested;
    if (congested) ++epochs_congested_;
    ++epochs_total_;
  }

 private:
  bool last_congested_ = false;
  std::uint64_t epochs_congested_ = 0;
  std::uint64_t epochs_total_ = 0;
};

/// No congestion control: rates pinned to 0 (baseline BLESS).
class NoController final : public CongestionController {
 public:
  void on_epoch(Cycle, std::span<const NodeTelemetry>, const NetTelemetry&,
                std::span<double> rates) override {
    for (double& r : rates) r = 0.0;
    note_epoch(false);
  }
  [[nodiscard]] std::string name() const override { return "none"; }
};

/// Algorithm 1, exactly.
class CentralController final : public CongestionController {
 public:
  explicit CentralController(CcParams params) : params_(params) {}

  void on_epoch(Cycle now, std::span<const NodeTelemetry> telemetry,
                const NetTelemetry& net, std::span<double> rates) override;

  [[nodiscard]] std::string name() const override { return "central"; }
  [[nodiscard]] const CcParams& params() const { return params_; }
  [[nodiscard]] double last_mean_ipf() const { return last_mean_ipf_; }
  /// Current escalation multiplier (1.0 unless the extension is active).
  [[nodiscard]] double escalation() const { return escalation_; }

 private:
  CcParams params_;
  double last_mean_ipf_ = 0.0;
  double escalation_ = 1.0;
};

/// Uniform static throttling of all nodes (Fig. 2(c) sweep).
class StaticController final : public CongestionController {
 public:
  explicit StaticController(double rate) : rate_(rate) {
    NOCSIM_CHECK(rate >= 0.0 && rate < 1.0);
  }
  void on_epoch(Cycle, std::span<const NodeTelemetry>, const NetTelemetry&,
                std::span<double> rates) override {
    for (double& r : rates) r = rate_;
    note_epoch(rate_ > 0.0);
  }
  [[nodiscard]] std::string name() const override { return "static"; }

 private:
  double rate_;
};

/// Fixed per-node rates (Fig. 5: throttle only one application by 90%).
class SelectiveStaticController final : public CongestionController {
 public:
  explicit SelectiveStaticController(std::vector<double> rates) : rates_(std::move(rates)) {}
  void on_epoch(Cycle, std::span<const NodeTelemetry>, const NetTelemetry&,
                std::span<double> rates) override {
    NOCSIM_CHECK(rates.size() == rates_.size());
    for (std::size_t i = 0; i < rates.size(); ++i) rates[i] = rates_[i];
    note_epoch(true);
  }
  [[nodiscard]] std::string name() const override { return "selective"; }

 private:
  std::vector<double> rates_;
};

std::unique_ptr<CongestionController> make_controller(const std::string& name,
                                                      const CcParams& params,
                                                      double static_rate = 0.0);

}  // namespace nocsim
