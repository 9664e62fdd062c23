// ChromeTracer: an opt-in FlitEventSink that records sampled flit events
// (inject / hop / deflect / eject) and exports them as Chrome trace-event
// JSON, loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Lanes: one process ("nocsim fabric", pid 0) with one thread per router
// (tid = router id), so each router gets its own swimlane and a packet's
// life shows as a diagonal of events marching across routers.
//
// Sampling: 1-in-N *packets* (every flit of a sampled packet is traced, so
// multi-flit wormholes stay intact in the view). A packet is sampled iff
// its per-source sequence number is divisible by N; with N == 1 every
// packet is traced. Sampling is a pure function of the flit, so traces are
// deterministic for a fixed (config, seed) at any --jobs.
//
// Hot-path contract (see noc/trace_sink.hpp): each callback is a modulus
// test and, for sampled flits, one push_back into a pre-reserved buffer —
// no I/O, no formatting. The buffer is bounded (Options::max_events);
// events past the cap are counted as dropped, not stored.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "noc/trace_sink.hpp"

namespace nocsim {

class EventLog;
class PhaseProfiler;

class ChromeTracer final : public FlitEventSink {
 public:
  struct Options {
    /// Trace packets whose sequence number is divisible by this (>= 1).
    std::uint32_t sample_every = 1;
    /// Hard cap on buffered events; excess events are dropped (counted).
    std::size_t max_events = std::size_t{1} << 20;
  };

  ChromeTracer() : ChromeTracer(Options{1, std::size_t{1} << 20}) {}
  explicit ChromeTracer(Options opts);

  void on_inject(Cycle now, NodeId at, const Flit& f) override;
  void on_hop(Cycle now, NodeId from, NodeId to, const Flit& f) override;
  void on_deflect(Cycle now, NodeId at, const Flit& f) override;
  void on_eject(Cycle now, NodeId at, const Flit& f) override;

  [[nodiscard]] std::uint32_t sample_every() const { return every_; }
  [[nodiscard]] std::size_t num_events() const { return events_.size(); }
  [[nodiscard]] std::uint64_t dropped_events() const { return dropped_; }

  /// JSON object format: {"traceEvents": [...], ...}. Valid JSON whether or
  /// not any events were recorded. Buffer-full drops are never silent: the
  /// count appears both in otherData and as a `tracer.dropped` metadata
  /// record inside traceEvents. Optionally merges the profiler's
  /// counter/slice tracks (pid 1) and the event log's instant events onto
  /// the same timeline, so simulator performance, congestion decisions and
  /// flit traffic are visible in one Perfetto view.
  void write_json(std::ostream& out, const PhaseProfiler* profile = nullptr,
                  const EventLog* events = nullptr) const;

  /// Convenience: write_json to `path`. Returns false if the file cannot be
  /// opened.
  bool write_json_file(const std::string& path, const PhaseProfiler* profile = nullptr,
                       const EventLog* events = nullptr) const;

 private:
  enum class Kind : std::uint8_t { Inject, Hop, Deflect, Eject };

  struct Event {
    Cycle ts;
    NodeId router;         ///< lane (tid)
    NodeId src, dst;       ///< packet endpoints
    NodeId to;             ///< hop target; kInvalidNode for other kinds
    std::uint32_t packet;
    std::uint8_t flit_idx;
    Kind kind;
  };

  [[nodiscard]] bool sampled(const Flit& f) const { return f.packet % every_ == 0; }
  void record(Cycle now, NodeId router, NodeId to, const Flit& f, Kind kind);

  std::uint32_t every_;
  std::size_t max_events_;
  std::uint64_t dropped_ = 0;
  std::vector<Event> events_;
};

}  // namespace nocsim
