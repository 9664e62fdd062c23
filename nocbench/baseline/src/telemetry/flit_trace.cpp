#include "telemetry/flit_trace.hpp"

#include <algorithm>
#include <fstream>

#include "common/check.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/profiler.hpp"

namespace nocsim {

namespace {

const char* kind_name(int k) {
  switch (k) {
    case 0: return "inject";
    case 1: return "hop";
    case 2: return "deflect";
    case 3: return "eject";
    default: return "?";
  }
}

}  // namespace

ChromeTracer::ChromeTracer(Options opts)
    : every_(opts.sample_every), max_events_(opts.max_events) {
  NOCSIM_CHECK(every_ >= 1 && max_events_ > 0);
  events_.reserve(std::min<std::size_t>(max_events_, 4096));
}

void ChromeTracer::record(Cycle now, NodeId router, NodeId to, const Flit& f, Kind kind) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(Event{now, router, f.src, f.dst, to, f.packet, f.flit_idx, kind});
}

void ChromeTracer::on_inject(Cycle now, NodeId at, const Flit& f) {
  if (sampled(f)) record(now, at, kInvalidNode, f, Kind::Inject);
}

void ChromeTracer::on_hop(Cycle now, NodeId from, NodeId to, const Flit& f) {
  if (sampled(f)) record(now, from, to, f, Kind::Hop);
}

void ChromeTracer::on_deflect(Cycle now, NodeId at, const Flit& f) {
  if (sampled(f)) record(now, at, kInvalidNode, f, Kind::Deflect);
}

void ChromeTracer::on_eject(Cycle now, NodeId at, const Flit& f) {
  if (sampled(f)) record(now, at, kInvalidNode, f, Kind::Eject);
}

void ChromeTracer::write_json(std::ostream& out, const PhaseProfiler* profile,
                              const EventLog* events) const {
  // One lane per router that appears in the trace, announced via thread_name
  // metadata, in router-id order (deterministic output).
  NodeId max_router = -1;
  for (const Event& e : events_) max_router = std::max(max_router, e.router);
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(max_router + 1), 0);
  for (const Event& e : events_) seen[static_cast<std::size_t>(e.router)] = 1;

  out << "{\n";
  out << "  \"displayTimeUnit\": \"ns\",\n";
  out << "  \"otherData\": {\"tool\": \"nocsim\", \"ts_unit\": \"cycle\", "
      << "\"sample_every\": " << every_ << ", \"dropped_events\": " << dropped_ << "},\n";
  out << "  \"traceEvents\": [\n";
  bool first = true;
  const auto emit_sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };

  emit_sep();
  out << "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
      << "\"args\": {\"name\": \"nocsim fabric\"}}";
  // Buffer-full drops as an in-band record, so a truncated trace announces
  // itself even to tools that ignore otherData.
  emit_sep();
  out << "    {\"name\": \"tracer.dropped\", \"ph\": \"M\", \"pid\": 0, "
      << "\"args\": {\"dropped_events\": " << dropped_ << ", \"max_events\": " << max_events_
      << "}}";
  for (std::size_t r = 0; r < seen.size(); ++r) {
    if (!seen[r]) continue;
    emit_sep();
    out << "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": " << r
        << ", \"args\": {\"name\": \"router " << r << "\"}}";
  }

  for (const Event& e : events_) {
    emit_sep();
    out << "    {\"name\": \"" << kind_name(static_cast<int>(e.kind))
        << "\", \"ph\": \"X\", \"ts\": " << e.ts << ", \"dur\": 1, \"pid\": 0, \"tid\": "
        << e.router << ", \"args\": {\"src\": " << e.src << ", \"dst\": " << e.dst
        << ", \"packet\": " << e.packet << ", \"flit\": " << static_cast<int>(e.flit_idx);
    if (e.kind == Kind::Hop) out << ", \"to\": " << e.to;
    out << "}}";
  }
  // Merged tracks: write_chrome_events emits ",\n"-prefixed entries, valid
  // here because the metadata records above guarantee a preceding event.
  if (events != nullptr) events->write_chrome_events(out);
  if (profile != nullptr) profile->write_chrome_events(out);
  out << "\n  ]\n}\n";
}

bool ChromeTracer::write_json_file(const std::string& path, const PhaseProfiler* profile,
                                   const EventLog* events) const {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out, profile, events);
  return static_cast<bool>(out);
}

}  // namespace nocsim
