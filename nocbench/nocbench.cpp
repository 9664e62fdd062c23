// nocbench: the measuring half of the nocsim end-to-end benchmark.
//
// Runs ONE workload (see README.md for why each exists) for a time budget
// through nocsim's public API only — Simulator construction, run_cycles,
// run, SweepRunner::run, AloneIpcCache::prime, attach_profiler /
// attach_events, make_topology / build_route_tables / check_cdg_acyclic and
// Core::prewarm — and prints one JSON object per line on stdout:
//
//   {"type":"env", ...}     build record (compiler, flags, build type, threads)
//   {"type":"rep", ...}     one full single-simulation run (setup -> result)
//   {"type":"sweep", ...}   one full population sweep
//   {"type":"end", ...}     peak RSS of this process
//
// run.py turns these into medians, compares digests with digests.json and
// prints the contract's result line. Every repetition re-runs the whole
// workload from the same seed, so every repetition must produce the same
// result digest; a repetition whose correctness checks fail lists them in
// "failures". With --pinned-seed one untimed repetition at that seed runs
// first ("pinned": true), for run.py to compare with the pinned digests.
// Every repetition reports its times in wall seconds and in CPU seconds of
// this process. Spans (one per public call, grouped by repetition) are kept
// in memory and written to --spans when the run ends.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "cpu/core.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/profiler.hpp"
#include "topology/route_tables.hpp"
#include "topology/topology.hpp"
#include "workload/app_profile.hpp"
#include "workload/synth_trace.hpp"
#include "workload/workload.hpp"

// tests/golden_util.hpp: the golden tests' canonical result digest.
#include "golden_util.hpp"

namespace nocbench {
namespace {

using namespace nocsim;
using Clock = std::chrono::steady_clock;

const Clock::time_point kStart = Clock::now();

double now_s() { return std::chrono::duration<double>(Clock::now() - kStart).count(); }

/// CPU seconds used by this process, every thread counted (finished ones
/// too). The end-to-end metrics are CPU time: on a shared host wall time
/// also counts the time other tenants hold the processor.
double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ------------------------------------------------------------------ spans

/// In-memory span recorder: one span per public call the benchmark makes.
/// Spans of one workload run share `run`; `parent` is the enclosing span.
class Spans {
 public:
  int begin(const std::string& name, int run, int parent = -1) {
    spans_.push_back({name, run, parent, now_s(), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.t1 = now_s();
    return s.t1 - s.t0;
  }
  /// A sweep point's wall time from its RunRecord: SweepRunner runs points
  /// on its own threads and exposes no start time, so these are kept as
  /// durations beside the spans.
  void point(int run, const std::string& label, double wall_s) {
    points_.push_back({label, run, wall_s});
  }
  /// Chrome trace-event JSON ("X" slices, one track per run), loadable in
  /// Perfetto; args carry the run id and parent span index.
  bool write(const std::string& path, const std::string& meta) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"metadata\": " << meta << ",\n\"sweepPoints\": [";
    for (std::size_t i = 0; i < points_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\n{\"label\": \"%s\", \"run\": %d, \"wall_s\": %.9g}",
                    i == 0 ? "" : ",", points_[i].label.c_str(), points_[i].run,
                    points_[i].wall_s);
      out << buf;
    }
    out << "],\n\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": %d, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, \"run\": %d, "
                    "\"parent\": %d}}",
                    i == 0 ? "" : ",", s.name.c_str(), s.run, s.t0 * 1e6,
                    (s.t1 - s.t0) * 1e6, i, s.run, s.parent);
      out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    int run;
    int parent;
    double t0, t1;
  };
  struct Point {
    std::string label;
    int run;
    double wall_s;
  };
  std::vector<Span> spans_;
  std::vector<Point> points_;
};

/// Times one call as a span; returns the call's duration in seconds.
template <typename Fn>
double timed(Spans& spans, const std::string& name, int run, int parent, Fn&& fn) {
  const int id = spans.begin(name, run, parent);
  fn();
  return spans.end(id);
}

// ------------------------------------------------------------------ digest

std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// The golden tests' digest of a simulated result: every deterministic
/// metric of the run (halo counters excluded: they describe the tiling, so
/// a tiled run digests equal to the one-tile run of the same config).
std::string digest_of(const SimResult& r) {
  return hex(testutil::fnv1a(testutil::serialize_result(r)));
}

// ------------------------------------------------------------------ json out

/// Minimal flat JSON object writer (numbers with all their digits).
class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(k, buf);
  }
  Json& num(const std::string& k, std::uint64_t v) { return raw(k, std::to_string(v)); }
  Json& str(const std::string& k, const std::string& v) {
    std::string esc;
    for (const char c : v) {
      if (c == '"' || c == '\\') esc += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) esc += c;
    }
    return raw(k, "\"" + esc + "\"");
  }
  Json& boolean(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  Json& strs(const std::string& k, const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ",\"" : "\"") + v[i] + "\"";
    return raw(k, s + "]");
  }
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + k + "\": ") + v;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void emit(const Json& j) { std::cout << j.str() << "\n" << std::flush; }

// ------------------------------------------------------------------ workloads

/// A workload that is one closed-loop simulation.
struct Single {
  SimConfig config;      ///< everything but the seed
  std::string category;  ///< application mix (make_category_workload)
  Cycle warmup = 0;      ///< untimed cycles before the timed window
  Cycle timed = 0;       ///< cycles in the timed window (one Simulator::run)
  bool expect_cc = false;
};

bool single_workload(const std::string& name, Single& w) {
  SimConfig& c = w.config;
  if (name == "bless_cc_hm_32") {
    // Figs 13-16 scale with the paper's mechanism on: exponential L2 map,
    // central controller whose epoch fires 8 times in the timed window.
    c.width = c.height = 32;
    c.l2_map = "exponential";
    c.cc = CcMode::Central;
    c.cc_params.epoch = 1'000;
    w.category = "HM";
    w.warmup = 1'000;
    w.timed = 4'000;
    w.expect_cc = true;
    return true;
  }
  if (name == "bless_light_64") {
    // Nearly idle 64x64 network: core phase and setup (prewarm) dominate,
    // route is bypassed. One tile: barrier spins would make the timing
    // depend on the scheduler.
    c.width = c.height = 64;
    c.l2_map = "exponential";
    w.category = "L";
    w.warmup = 500;
    w.timed = 2'500;
    return true;
  }
  if (name == "buffered_torus3d_hm") {
    // The buffered VC baseline on a 3D torus: 256 nodes, so routing goes
    // through the Dijkstra-built tables (route_table_max_nodes = 256).
    c.topology = "torus3d";
    c.width = c.height = 8;
    c.depth = 4;
    c.router = RouterKind::Buffered;
    w.category = "HM";
    w.warmup = 2'000;
    w.timed = 12'000;
    return true;
  }
  return false;
}

/// The population sweep: Figs 7/8/10 shape, sized down.
struct SweepDef {
  std::vector<int> sides{4, 8};
  Cycle warmup = 5'000;
  Cycle measure = 20'000;
  Cycle epoch = 2'500;
  int jobs = 4;
};

constexpr std::uint64_t kWorkloadStream = 0x6e6f6362656e6368ULL;  // workload draw

WorkloadSpec make_workload(const Single& w, std::uint64_t seed) {
  Rng rng(derive_seed(seed, kWorkloadStream));
  return make_category_workload(w.category, w.config.num_cores(), rng);
}

int tiles_of(const SimConfig& c) {
  return c.shard_dims.active() ? c.shard_dims.cols * c.shard_dims.rows : 1;
}

// ------------------------------------------------------------------ checks

/// Checks over one simulated result, with the aggregates they walk over.
struct Checked {
  std::vector<std::string> failures;
  std::uint64_t throttled_nodes = 0;
  std::uint64_t retired = 0;
  double l1_miss_rate = 0.0;
};

Checked check_result(const SimResult& r, bool expect_cc) {
  Checked c;
  const FabricStats& f = r.fabric;
  if (f.flit_hops != f.productive_hops + f.deflections) {
    c.failures.push_back("flit_hops != productive_hops + deflections");
  }
  int active = 0;
  for (const NodeResult& n : r.nodes) {
    if (n.mean_throttle_rate > 0.0) ++c.throttled_nodes;
    c.retired += n.retired;
    if (!n.app.empty()) {
      c.l1_miss_rate += n.l1_miss_rate;
      ++active;
    }
  }
  if (active > 0) c.l1_miss_rate /= active;
  if (r.cycles == 0 || c.retired == 0) c.failures.push_back("nothing retired");
  if (expect_cc && r.congested_epoch_fraction <= 0.0) {
    c.failures.push_back("central CC saw no congested epoch");
  }
  if (expect_cc && c.throttled_nodes == 0) c.failures.push_back("central CC throttled no node");
  return c;
}

/// Simulated counts of one result, or summed over a sweep's population
/// points (rates and ratios are then means over the points).
struct Counts {
  std::uint64_t flits = 0, hops = 0, productive = 0, deflections = 0, buffer_writes = 0,
                retired = 0, throttled_nodes = 0, latency_n = 0;
  double latency_sum = 0.0, utilization = 0.0, ipc = 0.0, l1_miss_rate = 0.0,
         starvation = 0.0, congested = 0.0;
  int results = 0;

  void add(const SimResult& r, const Checked& c) {
    const FabricStats& f = r.fabric;
    flits += f.flits_injected;
    hops += f.flit_hops;
    productive += f.productive_hops;
    deflections += f.deflections;
    buffer_writes += f.buffer_writes;
    retired += c.retired;
    throttled_nodes += c.throttled_nodes;
    latency_n += f.net_latency.count();
    latency_sum += f.net_latency.sum();
    utilization += r.utilization;
    ipc += r.system_throughput();
    l1_miss_rate += c.l1_miss_rate;
    starvation += r.avg_starvation;
    congested += r.congested_epoch_fraction;
    ++results;
  }

  void emit(Json& j) const {
    const double n = results > 0 ? results : 1;
    j.num("flits_injected", flits)
        .num("flit_hops", hops)
        .num("productive_hops", productive)
        .num("deflections", deflections)
        .num("buffer_writes", buffer_writes)
        .num("avg_net_latency",
             latency_n > 0 ? latency_sum / static_cast<double>(latency_n) : 0.0)
        .num("utilization", utilization / n)
        .num("retired", retired)
        .num("system_ipc", ipc / n)
        .num("l1_miss_rate", l1_miss_rate / n)
        .num("avg_starvation", starvation / n)
        .num("congested_epoch_frac", congested / n)
        .num("throttled_nodes", throttled_nodes);
  }
};

// ------------------------------------------------------------------ single

/// Benchmark-side replay of the Simulator's setup parts, so each layer's
/// setup cost is timed on its own: the topology with its route tables
/// (built only under the table cap, as the fabric does) and every core's
/// construction plus L1 prewarm.
struct SetupParts {
  double topology_build_s = 0.0;
  double prewarm_s = 0.0;
};

SetupParts time_setup_parts(const SimConfig& cfg, const WorkloadSpec& wl, Spans& spans,
                            int run, int parent, std::vector<std::string>& failures) {
  const double topo_s = timed(spans, "make_topology+build_route_tables", run, parent, [&] {
    auto topo = make_topology(
        TopologySpec{cfg.topology, cfg.width, cfg.height, cfg.depth, cfg.topology_file});
    if (topo->num_nodes() <= cfg.route_table_max_nodes) {
      const RouteTables tables = build_route_tables(*topo);
      if (!check_cdg_acyclic(*topo, tables)) failures.push_back("route tables not CDG-acyclic");
    }
  });
  const double prewarm_s = timed(spans, "Core+prewarm", run, parent, [&] {
    for (std::size_t i = 0; i < wl.app_names.size(); ++i) {
      if (wl.app_names[i].empty()) continue;
      const AppProfile& profile = app_by_name(wl.app_names[i]);
      CoreParams params = cfg.core;
      params.max_outstanding_misses = std::min(params.max_outstanding_misses, profile.max_mlp);
      Core core(static_cast<NodeId>(i), params,
                std::make_unique<SyntheticTrace>(profile, cfg.seed, i), [](Addr) {});
      core.prewarm(cfg.prewarm_instructions);
    }
  });
  return {topo_s, prewarm_s};
}

/// One full run of a single-simulation workload: setup, warm-up, timed
/// window, result. With `traced` the profiler and event log are attached
/// and the setup parts are timed separately. `pinned` marks the untimed
/// correctness run at the seed digests.json pins.
void single_rep(const Single& w, std::uint64_t seed, bool traced, bool pinned, int run,
                Spans& spans) {
  SimConfig cfg = w.config;
  cfg.seed = seed;
  cfg.warmup_cycles = 0;  // warm-up is the explicit run_cycles below
  cfg.measure_cycles = w.timed;
  Json j;
  j.str("type", "rep")
      .boolean("traced", traced)
      .boolean("pinned", pinned)
      .num("run", std::uint64_t(run));
  std::vector<std::string> failures;

  const int top = spans.begin(traced ? "workload_run_traced" : "workload_run", run);
  const double t0 = now_s();
  const double c0 = cpu_s();
  WorkloadSpec wl;
  const double gen_s = timed(spans, "make_category_workload", run, top,
                             [&] { wl = make_workload(w, seed); });
  if (traced) {
    const SetupParts parts = time_setup_parts(cfg, wl, spans, run, top, failures);
    j.num("topology_build_s", parts.topology_build_s).num("prewarm_s", parts.prewarm_s);
  }
  std::unique_ptr<Simulator> sim;
  const double construct_s = timed(spans, "Simulator()", run, top,
                                   [&] { sim = std::make_unique<Simulator>(cfg, wl); });
  const double setup_s = now_s() - t0;
  const double setup_cpu_s = cpu_s() - c0;

  std::optional<PhaseProfiler> prof;
  std::optional<EventLog> events;
  if (traced) sim->attach_events(&events.emplace());
  const double warm_s = timed(spans, "run_cycles(warmup)", run, top,
                              [&] { sim->run_cycles(w.warmup); });
  // The profiler covers exactly the timed window.
  if (traced) sim->attach_profiler(&prof.emplace());
  const std::uint64_t inflight0 = sim->fabric().in_flight();
  SimResult r;
  const double timed_c0 = cpu_s();
  const double timed_s = timed(spans, "run(timed window)", run, top, [&] { r = sim->run(); });
  const double timed_cpu_s = cpu_s() - timed_c0;

  std::string digest;
  Checked c;
  const double collect_s = timed(spans, "collect", run, top, [&] {
    digest = digest_of(r);
    c = check_result(r, w.expect_cc);
    const std::uint64_t inflight1 = sim->fabric().in_flight();
    if (r.fabric.flits_injected + inflight0 != r.fabric.flits_ejected + inflight1) {
      c.failures.push_back("injected - ejected != change in in_flight()");
    }
  });
  spans.end(top);
  const double wall_s = now_s() - t0;
  const double run_cpu_s = cpu_s() - c0;
  failures.insert(failures.end(), c.failures.begin(), c.failures.end());

  j.num("setup_s", setup_s)
      .num("wall_s", wall_s)
      .num("workload_gen_s", gen_s)
      .num("construct_s", construct_s)
      .num("warmup_s", warm_s)
      .num("timed_s", timed_s)
      .num("collect_s", collect_s)
      .num("setup_cpu_s", setup_cpu_s)
      .num("timed_cpu_s", timed_cpu_s)
      .num("run_cpu_s", run_cpu_s)
      .num("cycles", std::uint64_t(w.timed))
      .num("tiles", std::uint64_t(tiles_of(cfg)))
      .str("digest", digest);
  Counts counts;
  counts.add(r, c);
  counts.emit(j);
  if (traced) {
    std::uint64_t throttle_events = 0;
    for (const SimEvent& e : events->events()) {
      const bool throttle = e.kind == SimEventKind::ThrottleOn ||
                            e.kind == SimEventKind::ThrottleAdjust ||
                            e.kind == SimEventKind::ThrottleOff;
      if (throttle && e.cycle >= w.warmup) ++throttle_events;
    }
    j.num("throttle_events", throttle_events);
    for (int p = 0; p < prof->num_phases(); ++p) {
      std::uint64_t total = 0;
      for (int t = 0; t < prof->tiles(); ++t) total += prof->stat(p, t).total_ns;
      j.num("phase_ns." + prof->phase_names()[static_cast<std::size_t>(p)], total);
    }
  }
  j.strs("failures", failures);
  emit(j);
}

// ------------------------------------------------------------------ sweep

struct SweepJob {
  int side;
  std::string category;
  WorkloadSpec wl;
};

std::vector<SweepPoint> sweep_points(const SweepDef& d, std::uint64_t seed,
                                     std::vector<SweepJob>& jobs) {
  std::uint64_t stream = 0;
  for (const int side : d.sides) {
    for (const std::string& cat : workload_categories()) {
      Rng rng(derive_seed(seed, kWorkloadStream + stream++));
      jobs.push_back({side, cat, make_category_workload(cat, side * side, rng)});
    }
  }
  std::vector<SweepPoint> points;
  points.reserve(2 * jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    SimConfig c;
    c.width = c.height = jobs[j].side;
    c.warmup_cycles = d.warmup;
    c.measure_cycles = d.measure;
    c.cc_params.epoch = d.epoch;
    c.seed = seed;
    const std::string tag = std::to_string(jobs[j].side) + "x" +
                            std::to_string(jobs[j].side) + "/" + jobs[j].category;
    points.push_back({c, jobs[j].wl, tag + "/base", j});
    c.cc = CcMode::Central;
    points.push_back({c, jobs[j].wl, tag + "/cc", j});
  }
  return points;
}

constexpr int kSetupRepeats = 21;

double median_of(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
  return v[v.size() / 2];
}

/// One full sweep: point list, the (baseline, CC) population through
/// SweepRunner, alone-IPC priming per mesh size (the weighted-speedup
/// inputs).
/// `trace_dir` non-empty attaches the runner's profiler and event log and
/// writes their per-point files there. `pinned` as for single_rep.
void sweep_rep(const SweepDef& d, std::uint64_t seed, const std::string& trace_dir,
               bool pinned, int run, Spans& spans) {
  const bool traced = !trace_dir.empty();
  if (traced) std::filesystem::create_directories(trace_dir);
  Json j;
  j.str("type", "sweep")
      .boolean("traced", traced)
      .boolean("pinned", pinned)
      .num("run", std::uint64_t(run));
  std::vector<std::string> failures;

  const int top = spans.begin(traced ? "sweep_run_traced" : "sweep_run", run);
  const double t0 = now_s();
  const double c0 = cpu_s();
  // Building the point list takes tens of microseconds, so it is built
  // kSetupRepeats times and its set-up time is the median build.
  std::vector<SweepJob> jobs;
  std::vector<SweepPoint> points;
  std::vector<double> setup_walls, setup_cpus;
  timed(spans, "build_point_list", run, top, [&] {
    for (int i = 0; i < kSetupRepeats; ++i) {
      const double w0 = now_s(), cpu0 = cpu_s();
      jobs.clear();
      points = sweep_points(d, seed, jobs);
      setup_cpus.push_back(cpu_s() - cpu0);
      setup_walls.push_back(now_s() - w0);
    }
  });
  const double setup_s = median_of(setup_walls);
  const double setup_cpu_s = median_of(setup_cpus);
  if (traced) {
    // Setup parts of every population point, timed outside the runner.
    SetupParts sum;
    for (const SweepPoint& p : points) {
      SimConfig c = p.config;
      c.seed = derive_seed(c.seed, p.seed_stream.value_or(0));
      const SetupParts parts = time_setup_parts(c, p.workload, spans, run, top, failures);
      sum.topology_build_s += parts.topology_build_s;
      sum.prewarm_s += parts.prewarm_s;
    }
    j.num("topology_build_s", sum.topology_build_s).num("prewarm_s", sum.prewarm_s);
  }

  RunLog log;
  SweepOptions opt;
  opt.jobs = d.jobs;
  opt.derive_seeds = true;
  opt.log = &log;
  if (traced) {
    opt.profile = true;
    opt.events = true;
    opt.telemetry_stem = trace_dir + "/main";
  }
  SweepRunner runner(opt);
  std::vector<SimResult> results;
  const double run_s0 = now_s();
  const double run_c0 = cpu_s();
  timed(spans, "SweepRunner::run", run, top, [&] { results = runner.run(points); });

  std::string alone_ipcs;  // every alone IPC, serialized for one digest
  for (const int side : d.sides) {
    SimConfig base;
    base.width = base.height = side;
    base.warmup_cycles = d.warmup;
    base.measure_cycles = d.measure;
    base.cc_params.epoch = d.epoch;
    base.seed = seed;
    AloneIpcCache alone(base);
    std::vector<WorkloadSpec> wls;
    for (const SweepJob& job : jobs) {
      if (job.side == side) wls.push_back(job.wl);
    }
    SweepOptions aopt = opt;
    if (traced) aopt.telemetry_stem = trace_dir + "/alone" + std::to_string(side);
    SweepRunner alone_runner(aopt);
    timed(spans, "AloneIpcCache::prime/" + std::to_string(side), run, top,
          [&] { alone.prime(wls, alone_runner); });
    for (const WorkloadSpec& wl : wls) {
      for (const double ipc : alone.get(wl)) testutil::append_f(alone_ipcs, ipc);
    }
  }
  const double run_s = now_s() - run_s0;
  const double sweep_cpu_s = cpu_s() - run_c0;

  std::vector<std::string> point_digests;
  std::string failed_points;  // JSON list of point indices
  Counts counts;
  timed(spans, "collect", run, top, [&] {
    for (std::size_t i = 0; i < results.size(); ++i) {
      const SimResult& r = results[i];
      const Checked c = check_result(r, false);
      point_digests.push_back(digest_of(r));
      if (!c.failures.empty()) {
        failed_points += (failed_points.empty() ? "" : ",") + std::to_string(i);
        std::cerr << "nocbench: " << points[i].label << ": " << c.failures.front() << "\n";
      }
      counts.add(r, c);
    }
  });
  spans.end(top);
  const double wall_s = now_s() - t0;
  const double run_cpu_s = cpu_s() - c0;

  const std::vector<RunRecord> records = log.records();
  std::string walls = "[";
  std::uint64_t alone_points = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", records[i].wall_seconds);
    walls += buf;
    spans.point(run, records[i].label, records[i].wall_seconds);
    if (records[i].label.rfind("alone:", 0) == 0) ++alone_points;
  }
  walls += "]";
  const std::uint64_t total_points = results.size() + alone_points;
  j.num("setup_s", setup_s)
      .num("wall_s", wall_s)
      .num("run_s", run_s)
      .num("setup_cpu_s", setup_cpu_s)
      .num("sweep_cpu_s", sweep_cpu_s)
      .num("run_cpu_s", run_cpu_s)
      .num("jobs", std::uint64_t(d.jobs))
      .num("warmup", std::uint64_t(d.warmup))
      .num("points", std::uint64_t(results.size()))
      .num("alone_points", alone_points)
      .raw("failed_points", "[" + failed_points + "]")
      .num("cycles", total_points * (d.warmup + d.measure))
      .num("measured_cycles", std::uint64_t(results.size()) * d.measure)
      .raw("point_wall_s", walls)
      .strs("point_digests", point_digests)
      .str("alone_digest", hex(testutil::fnv1a(alone_ipcs)));
  counts.emit(j);
  j.strs("failures", failures);
  emit(j);
}

// ------------------------------------------------------------------ main

std::string env_json(const std::string& workload, std::uint64_t seed, int threads) {
  Json j;
  j.str("type", "env")
      .str("workload", workload)
      .num("seed", seed)
#if defined(__clang__)
      .str("compiler", std::string("clang ") + __VERSION__)
#else
      .str("compiler", std::string("gcc ") + __VERSION__)
#endif
      .str("cxx_flags", NOCBENCH_CXX_FLAGS)
      .str("build_type", NOCBENCH_BUILD_TYPE)
      .num("hardware_threads", std::uint64_t(std::thread::hardware_concurrency()))
      .num("workload_threads", std::uint64_t(threads));
  return j.str();
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string workload = flags.get_string("workload", "", "workload name (README.md)");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1, "workload seed"));
  const double seconds = flags.get_double("seconds", 10.0, "measurement budget, seconds");
  const bool trace = flags.get_bool("trace", false, "alternate untraced and traced runs");
  const bool tiled = flags.get_bool("tiled", false, "run a single workload on 2x2 tiles");
  const bool serve = flags.get_bool(
      "serve", false, "run one repetition per line read from stdin, until end of input");
  const int min_reps = static_cast<int>(flags.get_int("min-reps", 3, "minimum repetitions"));
  const std::int64_t pinned_seed = flags.get_int(
      "pinned-seed", -1, "first run one untimed repetition at this seed (-1: none)");
  const std::string spans_path = flags.get_string("spans", "", "write spans here at exit");
  const std::string trace_dir =
      flags.get_string("trace-dir", ".", "directory for the traced sweep's per-point files");
  if (flags.finish()) return 0;

  Single single;
  const bool is_sweep = workload == "paper_sweep_small";
  if (!is_sweep && !single_workload(workload, single)) {
    std::cerr << "nocbench: unknown workload '" << workload << "'\n";
    return 2;
  }
  if (tiled) single.config.shard_dims = ShardDims{2, 2};
  const SweepDef sweep;
  const int threads = is_sweep ? sweep.jobs : tiles_of(single.config);
  const std::string env = env_json(workload, seed, threads);
  std::cout << env << "\n";

  Spans spans;
  const auto one_rep = [&](std::uint64_t rep_seed, bool traced, bool pinned, int run) {
    if (is_sweep) {
      const std::string dir = traced ? trace_dir + "/rep" + std::to_string(run) : "";
      sweep_rep(sweep, rep_seed, dir, pinned, run, spans);
    } else {
      single_rep(single, rep_seed, traced, pinned, run, spans);
    }
  };
  // The pinned repetition runs first and counts against the budget, so the
  // run's length does not depend on it. It is run 0; timed runs follow.
  const double start = now_s();
  double last = 0.0, before_last = 0.0;
  int run_id = 0;
  if (pinned_seed >= 0) {
    one_rep(static_cast<std::uint64_t>(pinned_seed), false, true, run_id++);
    last = now_s() - start;
  }
  // With --serve the caller paces the repetitions (run.py alternates them
  // with the baseline's). Otherwise repeat whole workload runs while the
  // next one is expected to fit the budget (at least min_reps; with
  // --trace, untraced and traced alternate and at least one of each runs).
  // The next run is predicted to last as long as the longer of the last
  // two, which covers the alternation.
  for (std::string line; serve && std::getline(std::cin, line);) {
    one_rep(seed, false, false, run_id++);
  }
  const int need = trace ? std::max(2, min_reps) : min_reps;
  for (int rep = 0; !serve; ++rep) {
    const double elapsed = now_s() - start;
    if (rep >= need && elapsed + std::max(last, before_last) > seconds) break;
    const double r0 = now_s();
    one_rep(seed, trace && rep % 2 == 1, false, run_id++);
    before_last = last;
    last = now_s() - r0;
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Json end;
  end.str("type", "end").num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  emit(end);
  if (!spans_path.empty() && !spans.write(spans_path, env)) {
    std::cerr << "nocbench: cannot write " << spans_path << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nocbench

int main(int argc, char** argv) { return nocbench::run(argc, argv); }
