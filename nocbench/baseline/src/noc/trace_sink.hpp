// Flit-level event observer interface.
//
// A fabric with a sink attached (Fabric::set_trace_sink) reports every
// inject, hop, deflect, and eject as it happens. The hooks sit on the
// routing hot paths, so the contract is strict: when no sink is attached
// the cost is one null-pointer test per event site, and implementations
// must not do I/O or unbounded work per call — buffer compactly and write
// files after the run (see src/telemetry/flit_trace.hpp).
#pragma once

#include "common/types.hpp"
#include "noc/flit.hpp"

namespace nocsim {

class FlitEventSink {
 public:
  virtual ~FlitEventSink() = default;

  /// Flit entered the network at router `at` (f.inject_cycle == now).
  virtual void on_inject(Cycle now, NodeId at, const Flit& f) = 0;
  /// Flit left router `from` toward router `to` (f.hops already counts it).
  virtual void on_hop(Cycle now, NodeId from, NodeId to, const Flit& f) = 0;
  /// Flit lost port allocation at `at` and was misrouted (BLESS only);
  /// an on_hop for the deflected traversal follows in the same cycle.
  virtual void on_deflect(Cycle now, NodeId at, const Flit& f) = 0;
  /// Flit left the network through `at`'s local port.
  virtual void on_eject(Cycle now, NodeId at, const Flit& f) = 0;
};

}  // namespace nocsim
