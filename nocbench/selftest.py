#!/usr/bin/env python3
"""Self-test of the nocsim benchmark: python3 nocbench/selftest.py

Checks the contracts the benchmark's digests rest on (about two minutes):

1. Tiling: bless_light_64 run on 2x2 tiles digests equal to the digest
   pinned in digests.json from its one-tile run (results are
   byte-identical for every tiling).
2. Instruments: for every workload the traced run (profiler + event log,
   per-point files for the sweep) digests equal to the untraced run of the
   same seed, and both match the pinned digest.
3. Held-out seed: a seed not used to pin anything gives the same digests in
   two separate processes, for every workload.

Exits 0 when every check passes, 1 otherwise.
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark itself)

HELD_OUT_SEED = 4242


def digests(rep):
    """Everything a run's result digest covers, as one comparable value."""
    return json.dumps(run.pinned_form(rep))


def main():
    binary, _ = run.build()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    pinned = run.load_digests()
    failures = []

    def child(workload, seed, trace=False, extra=()):
        stem = os.path.join(run.OUT_DIR, f"selftest.{workload}.seed{seed}")
        _, reps, _ = run.run_child(binary, workload, seed, 0, trace, stem, extra)
        return reps

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    tiled = child("bless_light_64", run.DEFAULT_SEED, extra=["--tiled", "--min-reps", "1"])
    check(tiled[0]["digest"] == pinned["bless_light_64"] and not tiled[0]["failures"],
          "bless_light_64 on 2x2 tiles digests equal to its pinned one-tile digest")

    for w in run.WORKLOADS:
        reps = child(w, run.DEFAULT_SEED, trace=True, extra=["--min-reps", "2"])
        plain = [digests(r) for r in reps if not r["traced"]]
        traced = [digests(r) for r in reps if r["traced"]]
        _, failed = run.judge(w, run.DEFAULT_SEED, reps, pinned)
        check(traced and set(traced) == set(plain) and failed == 0,
              f"{w}: traced digest == untraced digest == pinned digest")

    for w in run.WORKLOADS:
        a = child(w, HELD_OUT_SEED, extra=["--min-reps", "1"])[0]
        b = child(w, HELD_OUT_SEED, extra=["--min-reps", "1"])[0]
        check(digests(a) == digests(b) and not a["failures"] and not b["failures"],
              f"{w}: held-out seed {HELD_OUT_SEED} digests equal across two processes")

    print(f"{len(failures)} of {1 + 2 * len(run.WORKLOADS)} checks failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
