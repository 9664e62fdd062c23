#include "telemetry/telemetry.hpp"

#include <cstdio>
#include <fstream>

#include "common/check.hpp"
#include "common/csv.hpp"

namespace nocsim {

namespace {

/// Shortest decimal string that round-trips the double exactly (17
/// significant digits always suffice for IEEE binary64), so a consumer —
/// including our own tests — can recompute controller decisions bit-exactly
/// from the CSV.
std::string format_gauge(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

}  // namespace

void TelemetryHub::add_gauge(std::string name, GaugeFn fn) {
  NOCSIM_CHECK_MSG(cycles_.empty(), "register instruments before the first sample");
  NOCSIM_CHECK(fn != nullptr);
  Instrument ins;
  ins.name = std::move(name);
  ins.kind = Kind::Gauge;
  ins.gauge = std::move(fn);
  instruments_.push_back(std::move(ins));
}

void TelemetryHub::add_counter(std::string name, CounterFn fn) {
  NOCSIM_CHECK_MSG(cycles_.empty(), "register instruments before the first sample");
  NOCSIM_CHECK(fn != nullptr);
  Instrument ins;
  ins.name = std::move(name);
  ins.kind = Kind::Counter;
  ins.counter = std::move(fn);
  ins.last = ins.counter();  // baseline: first sample reports growth from now
  instruments_.push_back(std::move(ins));
}

void TelemetryHub::add_text(std::string name, TextFn fn) {
  NOCSIM_CHECK_MSG(cycles_.empty(), "register instruments before the first sample");
  NOCSIM_CHECK(fn != nullptr);
  Instrument ins;
  ins.name = std::move(name);
  ins.kind = Kind::Text;
  ins.text = std::move(fn);
  instruments_.push_back(std::move(ins));
}

void TelemetryHub::sample(Cycle now) {
  std::vector<std::string> row;
  row.reserve(instruments_.size());
  for (Instrument& ins : instruments_) {
    switch (ins.kind) {
      case Kind::Gauge:
        row.push_back(format_gauge(ins.gauge()));
        break;
      case Kind::Counter: {
        const std::uint64_t v = ins.counter();
        NOCSIM_CHECK_MSG(v >= ins.last, "counter instrument went backwards");
        row.push_back(std::to_string(v - ins.last));
        ins.last = v;
        break;
      }
      case Kind::Text: {
        std::string cell = ins.text();
        NOCSIM_CHECK_MSG(cell.find(',') == std::string::npos &&
                             cell.find('\n') == std::string::npos,
                         "text instrument cell must stay a single CSV cell");
        row.push_back(std::move(cell));
        break;
      }
    }
  }
  cycles_.push_back(now);
  rows_.push_back(std::move(row));
}

void TelemetryHub::clear_rows() {
  cycles_.clear();
  rows_.clear();
}

std::size_t TelemetryHub::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < instruments_.size(); ++i) {
    if (instruments_[i].name == name) return i;
  }
  NOCSIM_CHECK_MSG(false, "unknown telemetry instrument");
  return instruments_.size();
}

const std::string& TelemetryHub::cell(std::size_t r, const std::string& name) const {
  return rows_.at(r).at(index_of(name));
}

void TelemetryHub::write_csv(std::ostream& out) const {
  CsvWriter w(out);
  w.comment("nocsim telemetry time-series; sample period = " + std::to_string(period_) +
            " cycles");
  w.comment("gauges: value at sample instant; counters: delta over the interval");
  std::vector<std::string> header;
  header.reserve(instruments_.size() + 1);
  header.emplace_back("cycle");
  for (const Instrument& ins : instruments_) header.push_back(ins.name);
  for (std::size_t i = 0; i < header.size(); ++i) out << (i ? "," : "") << header[i];
  out << '\n';
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out << cycles_[r];
    for (const std::string& cell : rows_[r]) out << ',' << cell;
    out << '\n';
  }
}

bool TelemetryHub::write_csv_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_csv(out);
  return static_cast<bool>(out);
}

}  // namespace nocsim
