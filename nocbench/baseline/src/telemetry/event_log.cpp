#include "telemetry/event_log.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/check.hpp"

namespace nocsim {

const char* to_string(SimEventKind kind) {
  switch (kind) {
    case SimEventKind::HotspotOn: return "hotspot_on";
    case SimEventKind::HotspotOff: return "hotspot_off";
    case SimEventKind::CcEpoch: return "cc_epoch";
    case SimEventKind::ThrottleOn: return "throttle_on";
    case SimEventKind::ThrottleAdjust: return "throttle_adjust";
    case SimEventKind::ThrottleOff: return "throttle_off";
    case SimEventKind::StarveOn: return "starve_on";
    case SimEventKind::StarveOff: return "starve_off";
    case SimEventKind::WatchdogFlitAge: return "wd_flit_age";
    case SimEventKind::WatchdogBlocked: return "wd_blocked";
  }
  return "?";
}

namespace {

// %.17g like the telemetry CSV and goldens: round-trip exact, so a reader
// can recompute Eq. 2 from the recorded inputs bit-for-bit.
void append_f(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

EventLog::EventLog(Options opts) : max_events_(opts.max_events) {
  NOCSIM_CHECK(max_events_ > 0);
  events_.reserve(std::min<std::size_t>(max_events_, 4096));
}

std::size_t EventLog::count_of(SimEventKind kind) const {
  std::size_t n = 0;
  for (const SimEvent& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

void EventLog::write_csv(std::ostream& out) const {
  // Column meaning by kind:
  //   throttle_*  node rate: new rate; ipf/sigma/sigma_net: that node's
  //               epoch report; value: escalation multiplier in force.
  //   hotspot_*/cc_epoch  node -1; rate: escalation; ipf: mean ipf;
  //               value: hop inflation.
  //   starve_*    value: the Eq. 1 threshold compared against sigma.
  //   wd_*        value: flit age (cycles) or blocked streak (cycles).
  out << "cycle,event,node,rate,ipf,sigma,sigma_net,value\n";
  std::string line;
  for (const SimEvent& e : events_) {
    line.clear();
    line += std::to_string(e.cycle);
    line += ',';
    line += to_string(e.kind);
    line += ',';
    line += std::to_string(e.node);
    line += ',';
    append_f(line, e.rate);
    line += ',';
    append_f(line, e.ipf);
    line += ',';
    append_f(line, e.sigma);
    line += ',';
    append_f(line, e.sigma_net);
    line += ',';
    append_f(line, e.value);
    line += '\n';
    out << line;
  }
  out << "# dropped=" << dropped_ << "\n";
}

bool EventLog::write_csv_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_csv(out);
  return static_cast<bool>(out);
}

void EventLog::write_chrome_events(std::ostream& out) const {
  for (const SimEvent& e : events_) {
    out << ",\n    {\"name\": \"" << to_string(e.kind) << "\", \"ph\": \"i\", \"ts\": " << e.cycle
        << ", \"pid\": 0, ";
    if (e.node >= 0) {
      out << "\"tid\": " << e.node << ", \"s\": \"t\"";
    } else {
      out << "\"tid\": 0, \"s\": \"g\"";
    }
    std::string args;
    args += "{\"rate\": ";
    append_f(args, e.rate);
    args += ", \"ipf\": ";
    append_f(args, e.ipf);
    args += ", \"sigma\": ";
    append_f(args, e.sigma);
    args += ", \"sigma_net\": ";
    append_f(args, e.sigma_net);
    args += ", \"value\": ";
    append_f(args, e.value);
    args += "}";
    out << ", \"args\": " << args << "}";
  }
}

}  // namespace nocsim
