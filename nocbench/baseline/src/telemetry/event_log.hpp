// EventLog: deterministic congestion-provenance event stream.
//
// Where the TelemetryHub records per-epoch aggregates, the event log
// records *decisions* with the inputs that produced them: hotspot
// onset/offset, every per-node throttle change together with the (ipf,
// sigma, sigma_net) that drove Eq. 1/Eq. 2 and the escalation multiplier
// in force, per-node starvation episodes, and watchdog trips. Any
// Algorithm 1 action in a run is explainable — and recomputable — from
// this stream alone (tests/test_event_log.cpp asserts it).
//
// Determinism contract: every event is emitted from a SERIAL section of
// the cycle loop (epoch_update or the end-of-cycle epilogue), carries only
// simulated state, and doubles are formatted with %.17g (exact round
// trip). The CSV is therefore byte-identical for a fixed (config, seed)
// at any shard count — unlike the wall-clock profile (see DESIGN.md).
//
// The buffer is bounded (Options::max_events); events past the cap are
// counted as dropped, and the drop count is part of the CSV footer so
// truncation is visible rather than silent.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace nocsim {

enum class SimEventKind : std::uint8_t {
  HotspotOn,        ///< network congested this epoch, was not before
  HotspotOff,       ///< network calm this epoch, was congested before
  CcEpoch,          ///< per-epoch controller state while congested
  ThrottleOn,       ///< node rate 0 -> r
  ThrottleAdjust,   ///< node rate r -> r' (both nonzero)
  ThrottleOff,      ///< node rate r -> 0
  StarveOn,         ///< node sigma crossed its Eq. 1 threshold upward
  StarveOff,        ///< node sigma dropped back below its threshold
  WatchdogFlitAge,  ///< oldest in-flight flit age crossed the threshold
  WatchdogBlocked,  ///< node's consecutive-blocked-injection streak crossed
};

[[nodiscard]] const char* to_string(SimEventKind kind);

/// One provenance record. Field meaning depends on kind (see write_csv
/// header comment); unused fields are 0.
struct SimEvent {
  Cycle cycle = 0;
  SimEventKind kind = SimEventKind::CcEpoch;
  NodeId node = kInvalidNode;  ///< -1 for network-wide events
  double rate = 0.0;           ///< new throttle rate / escalation multiplier
  double ipf = 0.0;            ///< node ipf, or mean ipf for network events
  double sigma = 0.0;          ///< node starvation rate
  double sigma_net = 0.0;      ///< node network-starvation rate
  double value = 0.0;          ///< kind-specific: inflation / threshold / age / streak
};

class EventLog {
 public:
  struct Options {
    std::size_t max_events = std::size_t{1} << 20;
  };

  EventLog() : EventLog(Options{}) {}
  explicit EventLog(Options opts);

  void emit(const SimEvent& e) {
    if (events_.size() >= max_events_) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }

  [[nodiscard]] const std::vector<SimEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t num_events() const { return events_.size(); }
  [[nodiscard]] std::uint64_t dropped_events() const { return dropped_; }
  [[nodiscard]] std::size_t count_of(SimEventKind kind) const;

  /// CSV: header row, one row per event (%.17g doubles), then a
  /// `# dropped=<n>` footer so truncation is observable.
  void write_csv(std::ostream& out) const;
  bool write_csv_file(const std::string& path) const;

  /// Emit Chrome-trace instant ("i") events, each prefixed with ",\n", for
  /// merging into a ChromeTracer traceEvents array that already holds at
  /// least one event. Node events land on that router's lane (pid 0);
  /// network-wide events are global instants.
  void write_chrome_events(std::ostream& out) const;

 private:
  std::size_t max_events_;
  std::uint64_t dropped_ = 0;
  std::vector<SimEvent> events_;
};

}  // namespace nocsim
