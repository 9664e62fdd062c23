#!/usr/bin/env python3
"""nocsim end-to-end benchmark (see nocbench/README.md).

    python3 nocbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 nocbench/run.py --all [--seconds S]       # every workload, one table
    python3 nocbench/run.py --record-digests          # re-pin digests.json (seed 1)

Builds nocbench (nocbench.cpp with the simulator's sources, Release) into
$CARGO_TARGET_DIR or .bench_build, once against the repository's src/ and
once against the frozen copy in nocbench/baseline/. With --trace 0 it
alternates whole repetitions of the workload between the two builds for the
time budget and reports the repository's figures corrected by the
baseline's (README.md, "Host-speed correction"); with --trace 1 it runs the
repository's build alone, untraced and traced, for the per-layer metrics.
Every run's simulated result is checked. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The per-layer report
and the span file are written to .bench_out/.
"""
import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.json")
BASELINE = os.path.join(HERE, "baseline")
WORKLOADS = ["bless_cc_hm_32", "bless_light_64", "buffered_torus3d_hm", "paper_sweep_small"]
DEFAULT_SEED = 1  # the seed digests.json pins
MIN_PAIRS = 2  # fewest (repository, baseline) repetition pairs in a --trace 0 run
# The frozen baseline's medians over 3 repetitions at seed 1 on a 4-CPU
# Xeon VM (cycles per CPU second, set-up CPU seconds, CPU seconds per
# repetition). They only set the scale of the corrected figures: a corrected
# figure is the repository's figure times (this nominal / the baseline's
# figure in the same run).
NOMINAL = {
    "bless_cc_hm_32": (1932.0, 0.9035, 3.294),
    "bless_light_64": (1106.0, 2.500, 5.402),
    "buffered_torus3d_hm": (5918.0, 0.2031, 2.615),
    "paper_sweep_small": (303000.0, 3.25e-05, 7.760),
}


def log(msg):
    print(f"nocbench: {msg}", file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    """Configure (once) and build nocbench against the repository's sources
    and against the frozen baseline; returns the two binary paths."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return (build_one(os.path.join(target, "nocbench"), []),
            build_one(os.path.join(target, "nocbench-baseline"), ["-DNOCSIM_ROOT=" + BASELINE]))


def build_one(build_dir, options):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] +
                     gen + options)
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise SystemExit(f"nocbench: build failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "nocbench")


# ------------------------------------------------------------------ environment

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_describe():
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def environment(child_env, seed):
    env = {k: v for k, v in child_env.items() if k != "type"}
    env.update({"cpu_model": cpu_model(), "nproc": os.cpu_count(), "git_describe": git_describe(),
                "seed": seed})
    if env.get("workload_threads", 1) > (os.cpu_count() or 1):
        env["warning"] = (f"{env['workload']} runs {env['workload_threads']} threads on "
                          f"{os.cpu_count()} CPUs")
        log("warning: " + env["warning"])
    return env


# ------------------------------------------------------------------ one run

def run_child(binary, workload, seed, seconds, trace, stem, extra=(), pinned=False):
    """Runs the workload for `seconds`; with `pinned`, one untimed repetition
    at DEFAULT_SEED runs first, inside the budget."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--spans", stem + ".spans.json", "--trace-dir", stem + ".sweep"]
    if trace:
        cmd.append("--trace")
    if pinned:
        cmd += ["--pinned-seed", str(DEFAULT_SEED)]
    cmd += list(extra)
    # The child stops starting repetitions at the budget; the margin covers
    # the last one and the minimum repetition count on a slow host.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=2 * seconds + 120)
    if proc.returncode != 0:
        raise SystemExit(f"nocbench: {workload} exited with code {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    env = next(x for x in lines if x["type"] == "env")
    end = next(x for x in lines if x["type"] == "end")
    reps = [x for x in lines if x["type"] in ("rep", "sweep")]
    return env, reps, end


def read_record(proc, types):
    """The child's next JSON line of one of `types`."""
    for line in proc.stdout:
        if line.startswith("{"):
            rec = json.loads(line)
            if rec["type"] in types:
                return rec
    raise SystemExit(f"nocbench: child exited with code {proc.wait()}")


def run_paired(binary, baseline, workload, seed, seconds, stem):
    """Alternates whole repetitions of the workload between the repository's
    build and the baseline's, one pair at a time, while the next pair is
    expected to fit the budget (at least MIN_PAIRS). Which build goes first
    alternates from pair to pair. The repository's build first runs one
    untimed repetition at DEFAULT_SEED, inside the budget; the baseline runs
    one beside it to warm up, and both are done before the first pair."""
    args = ["--workload", workload, "--seed", str(seed), "--serve",
            "--pinned-seed", str(DEFAULT_SEED)]
    start = time.monotonic()
    procs = []
    try:
        for cmd in ([binary] + args + ["--spans", stem + ".spans.json",
                                       "--trace-dir", stem + ".sweep"],
                    [baseline] + args):
            procs.append(subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                          text=True))
        prog, base = procs
        env = read_record(prog, ("env",))
        read_record(base, ("env",))
        reps = [read_record(prog, ("rep", "sweep"))]  # the pinned repetition
        read_record(base, ("rep", "sweep"))  # the baseline's warm-up
        pairs = []
        last = 0.0
        while len(pairs) < MIN_PAIRS or time.monotonic() - start + last <= seconds:
            t0 = time.monotonic()
            got = {}
            for p in (procs if len(pairs) % 2 == 0 else procs[::-1]):
                p.stdin.write("rep\n")
                p.stdin.flush()
                got[p] = read_record(p, ("rep", "sweep"))
            reps.append(got[prog])
            pairs.append((got[prog], got[base]))
            last = time.monotonic() - t0
        for p in procs:
            p.stdin.close()
        end = read_record(prog, ("end",))
        for p in procs:
            if p.wait() != 0:
                raise SystemExit(f"nocbench: {workload} exited with code {p.returncode}")
        return env, reps, pairs, end
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()


def load_digests():
    """The pinned digests of every workload; a missing or malformed file or
    entry is an error, never a skipped check."""
    try:
        with open(DIGESTS) as f:
            pinned = json.load(f)
    except (OSError, ValueError) as e:
        raise SystemExit(f"nocbench: cannot read {DIGESTS}: {e}")
    for w in WORKLOADS:
        want = pinned.get(w) if isinstance(pinned, dict) else None
        ok = isinstance(want, str) if w != "paper_sweep_small" else (
            isinstance(want, dict) and isinstance(want.get("points"), list) and
            isinstance(want.get("alone_ipc"), str))
        if not ok:
            raise SystemExit(f"nocbench: {DIGESTS} has no valid entry for {w}")
    return pinned


def point_count(rep):
    return rep["points"] + rep["alone_points"] if rep["type"] == "sweep" else 1


def pinned_form(rep):
    """A repetition's digests in the shape digests.json pins them."""
    if rep["type"] == "rep":
        return rep["digest"]
    return {"points": rep["point_digests"], "alone_ipc": rep["alone_digest"]}


def judge(workload, seed, reps, recorded):
    """Marks each rep's failures in place; returns (attempted, failed).

    The pinned repetition is compared with digests.json; every timed one
    with the run's first untraced timed repetition and, at DEFAULT_SEED,
    with digests.json too."""
    first = next((r for r in reps if not r["pinned"] and not r["traced"]), None)
    pinned = recorded[workload]
    attempted = failed = 0
    for r in reps:
        refs = ([("recorded", pinned)] if r["pinned"] else
                [("first untraced run", pinned_form(first))])
        if not r["pinned"] and seed == DEFAULT_SEED:
            refs.append(("recorded", pinned))
        bad = list(r["failures"])
        if r["type"] == "rep":
            for name, want in refs:
                if r["digest"] != want:
                    bad.append(f"digest {r['digest']} != {name} {want}")
            r["bad"] = bad
            attempted += 1
            failed += 1 if bad else 0
            continue
        # Sweep: a point fails on its own checks or a digest mismatch; the
        # alone runs share one digest over the alone IPCs they produce. A
        # check of the whole sweep (its "failures") fails every point.
        bad_points = set(r["failed_points"])
        for _, want in refs:
            if len(want["points"]) != len(r["point_digests"]):
                bad_points.update(range(len(r["point_digests"])))
            for i, (d, w) in enumerate(zip(r["point_digests"], want["points"])):
                if d != w:
                    bad_points.add(i)
        alone_bad = any(r["alone_digest"] != want["alone_ipc"] for _, want in refs)
        if bad_points:
            bad.append(f"{len(bad_points)} points failed")
        if alone_bad:
            bad.append("alone-run digest differs")
        r["bad"] = bad
        attempted += point_count(r)
        if r["failures"]:
            failed += point_count(r)
        else:
            failed += len(bad_points) + (r["alone_points"] if alone_bad else 0)
    return attempted, failed


# ------------------------------------------------------------------ metrics

def rate(r, clock="cpu"):
    # Single runs: cycles of the timed window over its CPU (or wall) time.
    # Sweep: every point's simulated cycles over the CPU time of the runner
    # and the alone priming (or the sweep's wall time).
    if clock == "wall":
        return r["cycles"] / (r["timed_s"] if r["type"] == "rep" else r["wall_s"])
    return r["cycles"] / (r["timed_cpu_s"] if r["type"] == "rep" else r["sweep_cpu_s"])


def end_to_end(workload, pairs, end):
    """Host-speed-corrected figures: medians over the pairs of the
    repository's figure over the baseline's, times the baseline's nominal."""
    rate_n, setup_n, run_n = NOMINAL[workload]
    return {
        "cycles_per_s": (median([rate(p) / rate(b) for p, b in pairs]) * rate_n, "1/s"),
        "setup_s": (median([p["setup_cpu_s"] / b["setup_cpu_s"] for p, b in pairs]) * setup_n,
                    "s"),
        "run_s": (median([p["run_cpu_s"] / b["run_cpu_s"] for p, b in pairs]) * run_n, "s"),
        "peak_rss_mb": (end["peak_rss_mb"], "MB"),
    }


def raw_figures(pairs):
    """Uncorrected medians, printed beside the result but not gated: on a
    shared host they move with the other tenants' load."""
    def med(fn, side):
        return median([fn(pair[side]) for pair in pairs])
    return {"pairs": len(pairs),
            "cycles_per_cpu_s": med(rate, 0), "baseline_cycles_per_cpu_s": med(rate, 1),
            "setup_cpu_s": med(lambda r: r["setup_cpu_s"], 0),
            "run_cpu_s": med(lambda r: r["run_cpu_s"], 0),
            "cycles_per_wall_s": med(lambda r: rate(r, "wall"), 0),
            "wall_s": med(lambda r: r["wall_s"], 0)}


def sweep_profile(rep_dir, warmup):
    """Sums phase ns over the traced sweep's per-point profile files, main
    points and alone runs apart, and counts the population points' throttle
    events in their measured windows."""
    totals = {"main": {}, "alone": {}}
    for path in glob.glob(os.path.join(rep_dir, "*.profile.json")):
        key = "main" if os.path.basename(path).startswith("main.") else "alone"
        with open(path) as f:
            prof = json.load(f)
        for ph in prof["phases"]:
            totals[key][ph["name"]] = totals[key].get(ph["name"], 0) + ph["total_ns"]
    throttle = 0
    for path in glob.glob(os.path.join(rep_dir, "main.*.events.csv")):
        with open(path) as f:
            next(f, None)  # header: cycle,event,...
            throttle += sum(1 for line in f
                            if ",throttle_" in line and int(line.split(",", 1)[0]) >= warmup)
    return totals, throttle


def per_layer(reps, stem):
    """Per-layer metrics: (value, unit, base) from the traced runs."""
    plain = [r for r in reps if not r["traced"] and not r["pinned"]]
    traced = [r for r in reps if r["traced"]]
    t0 = traced[0]
    sweep = t0["type"] == "sweep"
    phase_keys = ["begin", "deliver", "inject", "route", "core", "epilogue"]
    samples = []
    for r in traced:
        if sweep:
            totals, throttle = sweep_profile(f"{stem}.sweep/rep{r['run']}", r["warmup"])
            main = {k: totals["main"].get(k, 0) for k in phase_keys}
            # Profiles cover every point's warm-up + measurement; the counts
            # cover the population points' measured windows, so per-event
            # ratios use main-point time and counts scaled to whole runs.
            main_cycles = r["cycles"] / point_count(r) * r["points"]
            samples.append({"ph": {k: main[k] + totals["alone"].get(k, 0) for k in phase_keys},
                            "main": main, "cycles": r["cycles"], "scale": main_cycles / r["measured_cycles"],
                            "throttle": throttle})
        else:
            ph = {k: r[f"phase_ns.{k}"] for k in phase_keys}
            samples.append({"ph": ph, "main": ph, "cycles": r["cycles"],
                            "scale": 1.0, "throttle": r["throttle_events"]})

    def per_cycle_ns(*phases):
        return median([sum(s["ph"][p] for p in phases) / s["cycles"] for s in samples])

    def per_event_ns(count, *phases):
        return median([sum(s["main"][p] for p in phases) / (count * s["scale"]) if count else 0.0
                       for s in samples])

    hops, flits, insns = t0["flit_hops"], t0["flits_injected"], t0["retired"]
    # Sweep counts are summed over the population points' measured windows,
    # and its rates are means over those points.
    window = "population points' measured windows" if sweep else "timed window"
    m = {}

    def put(name, value, unit, base):
        m[name] = (value, unit, base)

    per_cycle = "per simulated cycle, timed window"
    put("noc.route_ns_per_cycle", per_cycle_ns("route"), "ns", per_cycle)
    put("noc.route_ns_per_hop", per_event_ns(hops, "route"), "ns",
        f"per simulated flit hop ({hops} hops)")
    put("noc.begin_ns_per_cycle", per_cycle_ns("begin"), "ns", per_cycle)
    put("cpu.core_ns_per_cycle", per_cycle_ns("core"), "ns", per_cycle)
    put("cpu.core_ns_per_insn", per_event_ns(insns, "core"), "ns",
        f"per retired instruction ({insns} insns)")
    put("cpu.prewarm_s", median([r["prewarm_s"] for r in traced]), "s",
        "Core construction + Core::prewarm for every core, per workload run")
    put("topology.build_s", median([r["topology_build_s"] for r in traced]), "s",
        "make_topology + build_route_tables + check_cdg_acyclic (tables under the cap)")
    put("sim.inject_ns_per_cycle", per_cycle_ns("inject", "deliver"), "ns",
        per_cycle + " (inject + deliver phases)")
    put("sim.inject_ns_per_flit", per_event_ns(flits, "inject", "deliver"), "ns",
        f"per injected flit ({flits} flits)")
    put("sim.epilogue_ns_per_cycle", per_cycle_ns("epilogue"), "ns",
        per_cycle + " (holds the controller epoch update)")
    if sweep:
        points = [x for r in plain for x in r["point_wall_s"]]
        busy = median([sum(r["point_wall_s"]) / (r["jobs"] * r["run_s"]) for r in plain])
        pbase = "per sweep point (RunRecord wall_seconds), untraced sweeps"
    else:
        points = [r["wall_s"] for r in plain]
        busy = 1.0
        pbase = "per run (one point, one worker), untraced runs"
    deciles = statistics.quantiles(points, n=10, method="inclusive")
    put("sim.sweep.point_s.p50", deciles[4], "s", pbase)
    put("sim.sweep.point_s.p90", deciles[8], "s", pbase)
    put("sim.sweep.point_samples", len(points), "count", "points behind p50/p90")
    put("sim.sweep.pool_busy_frac", busy, "ratio", "summed point time / (jobs x sweep run time)")
    put("noc.flits_injected", flits, "count", window)
    put("noc.flit_hops", hops, "count", window)
    put("noc.deflections", t0["deflections"], "count", window)
    put("noc.productive_hop_ratio", t0["productive_hops"] / hops if hops else 0.0, "ratio",
        "productive hops / hops")
    put("noc.buffer_writes", t0["buffer_writes"], "count", window + " (buffered router only)")
    put("noc.avg_net_latency_cycles", t0["avg_net_latency"], "cycles", "inject -> eject")
    put("noc.utilization", t0["utilization"], "ratio", "busy links / links / cycle")
    put("cpu.retired_insns", insns, "count", window)
    put("cpu.system_ipc", t0["system_ipc"], "insn/cycle", "sum of per-core IPC")
    put("cpu.l1_miss_rate", t0["l1_miss_rate"], "ratio", "mean over active cores")
    put("sim.avg_starvation", t0["avg_starvation"], "ratio", "mean Algorithm 2 sigma")
    put("core.congested_epoch_frac", t0["congested_epoch_frac"], "ratio",
        "congested controller epochs / epochs")
    put("core.throttled_nodes", t0["throttled_nodes"], "count", "nodes with mean throttle > 0")
    put("core.throttle_events", median([s["throttle"] for s in samples]), "count",
        "EventLog throttle_on/adjust/off, " + window)
    overhead = 1.0 - median([rate(r) for r in traced]) / median([rate(r) for r in plain])
    put("telemetry.trace_overhead", overhead, "ratio",
        "1 - traced cycles_per_cpu_s / untraced cycles_per_cpu_s")
    return m


# ------------------------------------------------------------------ main

def timed_out(signum, frame):
    raise SystemExit("nocbench: the run exceeded its time limit")


def run_one(binaries, workload, seed, seconds, trace):
    binary, baseline = binaries
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}.seed{seed}.trace{int(trace)}")
    shutil.rmtree(stem + ".sweep", ignore_errors=True)
    pinned = load_digests()
    raw = None
    if trace:
        child_env, reps, end = run_child(binary, workload, seed, seconds, trace, stem, pinned=True)
    else:
        signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(int(2 * seconds + 120))
        try:
            child_env, reps, pairs, end = run_paired(binary, baseline, workload, seed, seconds,
                                                     stem)
        finally:
            signal.alarm(0)
        raw = raw_figures(pairs)
        for _, b in pairs:
            if b["failures"]:
                log(f"warning: baseline repetition failed its checks: {b['failures']}")
    env = environment(child_env, seed)
    attempted, failed = judge(workload, seed, reps, pinned)
    for r in reps:
        if r["bad"]:
            log(f"run {r['run']} failed: {'; '.join(r['bad'])}")
    print(json.dumps({"environment": env}))
    if raw:
        print("# uncorrected, not gated: " + json.dumps(raw))
    if trace:
        layers = per_layer(reps, stem)
        report = [f"# per-layer report: {workload} seed {seed}", "# " + json.dumps(env)]
        report += [f"{k} {v:.9g} {u}  [{b}]" for k, (v, u, b) in layers.items()]
        with open(stem + ".layers.txt", "w") as f:
            f.write("\n".join(report) + "\n")
        print("\n".join(report))
        shutil.rmtree(stem + ".sweep", ignore_errors=True)
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in end_to_end(workload, pairs, end).items()}
    print(f"# runs {attempted} runs_failed {failed}; spans in {stem}.spans.json")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, raw


def record_digests(binary):
    out = {}
    for w in WORKLOADS:
        _, reps, _ = run_child(binary, w, DEFAULT_SEED, 0, False,
                               os.path.join(OUT_DIR, f"{w}.record"), ["--min-reps", "1"])
        r = reps[0]
        if r["failures"]:
            raise SystemExit(f"nocbench: {w} fails its checks: {r['failures']}")
        out[w] = r["digest"] if r["type"] == "rep" else {
            "points": r["point_digests"], "alone_ipc": r["alone_digest"]}
    with open(DIGESTS, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    log(f"wrote {DIGESTS}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, print a table")
    ap.add_argument("--record-digests", action="store_true",
                    help=f"re-pin {os.path.basename(DIGESTS)} at seed {DEFAULT_SEED}")
    args = ap.parse_args()
    if not (args.workload or args.all or args.record_digests):
        ap.error("give --workload, --all or --record-digests")
    binaries = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.record_digests:
        record_digests(binaries[0])
        return 0
    if args.all:
        rows = [(w, run_one(binaries, w, args.seed, args.seconds, False)) for w in WORKLOADS]
        print(f"{'workload':20} {'cycles_per_s':>14} {'setup_s':>9} {'run_s':>9} "
              f"{'peak_rss_mb':>12} {'uncorrected cycles/CPU s':>24} {'wall_s':>9} "
              f"{'runs':>5} {'runs_failed':>11}")
        for w, (res, raw) in rows:
            m = {k: v["value"] for k, v in res["metrics"].items()}
            print(f"{w:20} {m['cycles_per_s']:>10.1f} 1/s {m['setup_s']:>7.3g} s "
                  f"{m['run_s']:>7.3f} s {m['peak_rss_mb']:>9.1f} MB "
                  f"{raw['cycles_per_cpu_s']:>20.1f} 1/s {raw['wall_s']:>7.3f} s "
                  f"{res['attempted']:>5} {res['failed']:>11}")
        return 0 if all(res["correct"] for _, (res, _) in rows) else 1
    result, _ = run_one(binaries, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
