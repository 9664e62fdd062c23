// Canonical SimResult serialization + checksum for differential golden
// tests. The serialization covers every deterministic metric a run
// produces (counters, accumulator moments, histograms, per-node results)
// so that any behavioural drift in the simulator — however small — changes
// the checksum. Doubles are printed with %.17g: round-trip exact, so the
// digest is byte-stable across runs and across -O levels on one platform.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "sim/metrics.hpp"

namespace nocsim::testutil {

inline void append_f(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
  out += '\n';
}

inline void append_u(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
  out += '\n';
}

inline void append_acc(std::string& out, const StatAccumulator& a) {
  append_u(out, a.count());
  append_f(out, a.sum());
  append_f(out, a.mean());
  append_f(out, a.variance());
  append_f(out, a.min());
  append_f(out, a.max());
}

inline void append_hist(std::string& out, const Histogram& h) {
  append_u(out, h.total());
  append_f(out, h.min());
  append_f(out, h.max());
  for (int i = 0; i < h.bins(); ++i) {
    if (h.bin_count(i) == 0) continue;  // sparse: most latency bins are empty
    out += std::to_string(i);
    out += '=';
    append_u(out, h.bin_count(i));
  }
}

/// Full deterministic-metric surface of one run, as line-oriented text.
inline std::string serialize_result(const SimResult& r) {
  std::string out;
  append_u(out, r.cycles);

  const FabricStats& f = r.fabric;
  append_u(out, f.cycles);
  append_u(out, f.flits_injected);
  append_u(out, f.flits_ejected);
  append_u(out, f.flit_hops);
  append_u(out, f.deflections);
  append_u(out, f.productive_hops);
  append_u(out, f.buffer_reads);
  append_u(out, f.buffer_writes);
  append_u(out, f.min_hops_total);
  append_u(out, f.flit_hops_delivered);
  append_acc(out, f.net_latency);
  append_acc(out, f.total_latency);
  append_acc(out, f.hops_per_flit);
  append_acc(out, f.deflections_per_flit);

  append_f(out, r.avg_net_latency);
  append_f(out, r.avg_total_latency);
  append_f(out, r.utilization);
  append_f(out, r.avg_starvation);
  append_f(out, r.avg_starvation_network);
  append_f(out, r.avg_hops);
  append_f(out, r.avg_deflections);
  append_f(out, r.congested_epoch_fraction);
  append_f(out, r.power.dynamic_energy);
  append_f(out, r.power.static_energy);

  append_hist(out, r.latency.net);
  append_hist(out, r.latency.total);
  for (const LatencyHistograms& lh : r.latency_by_class) {
    append_hist(out, lh.net);
    append_hist(out, lh.total);
  }

  for (const NodeResult& n : r.nodes) {
    out += n.app;
    out += '\n';
    append_u(out, n.retired);
    append_f(out, n.ipc);
    append_u(out, n.flits);
    append_f(out, n.ipf);
    append_f(out, n.starvation);
    append_f(out, n.starvation_network);
    append_f(out, n.l1_miss_rate);
    append_f(out, n.mean_throttle_rate);
    for (const double e : n.epoch_ipf) append_f(out, e);
  }
  return out;
}

/// FNV-1a 64-bit digest.
inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace nocsim::testutil
