"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  numpy and its BLAS run on one thread, set here before numpy is
first imported, so figures do not depend on how many cores the machine
lends the process.

The run builds the workload's inputs and references (the set-up), then runs
whole rounds of the workload's operations until ``--seconds`` have passed,
at least one.  Checks run between operations and are not timed.  The last
line of standard output is one JSON object:

* ``--trace 0``: ``setup_s`` (process start to the end of set-up),
  ``wall_s`` and ``cpu_s`` (median over rounds of one round's wall-clock
  and process CPU time) and ``peak_rss_mb``;
* ``--trace 1``: after one untraced warm-up round, traced and untraced
  rounds alternate; the per-layer metrics of :mod:`layers` come from the
  traced ones, the tracing overhead is the difference of the two kinds'
  median round times, and the spans go to
  ``perfbench-out/<workload>/trace.json``.
"""

from __future__ import annotations

import os

# one BLAS thread; this has to happen before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

import check
import layers
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench-out"
MODULES = ("cli", "flowsheets", "ip", "metrics", "reformulate", "solvers")


def seconds_since_process_start() -> float:
    """Time since the process started, interpreter start-up included, from
    the start time in ``/proc/self/stat``; exits with an error where that is unreadable
    or implausible, so ``setup_s`` always means the same thing."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        elapsed = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError) as exc:
        sys.exit(f"error: cannot read the process start time: {exc}")
    if not 0.0 <= elapsed < 600.0:
        sys.exit(f"error: implausible time since process start: {elapsed} s")
    return elapsed


def import_program():
    """The checkout's ``flowqubo`` modules, or exit 2 if the checkout has none."""
    src = ROOT / "src"
    if not (src / "flowqubo" / "__init__.py").is_file():
        print(f"error: no flowqubo sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"flowqubo.{name}") for name in MODULES})


def run_round(groups, state, tracer=None):
    """Run one round; returns its (wall, cpu) seconds and the checks' counts."""
    wall = cpu = 0.0
    counts = {}
    for group in groups:
        results = {}
        ok = True
        for key, fn in group.ops:
            state["attempted"] += 1
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                if tracer is None:
                    results[key] = fn(results)
                else:
                    with tracer.installed():
                        results[key] = fn(results)
            except Exception:  # the program failed this operation; count it
                state["failed"] += 1
                ok = False
                traceback.print_exc(file=sys.stderr)
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
        if not ok:
            continue
        try:
            for key, value in (group.check(results) or {}).items():
                counts[key] = counts.get(key, 0) + value
        except check.ProgramFault as exc:
            state["failed"] += 1
            print(f"failed: {exc}", file=sys.stderr)
        except Exception as exc:  # a wrong or unreadable output
            state["correct"] = False
            print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    return wall, cpu, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    fq = import_program()
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](fq, args.seed, out)
    setup_s = seconds_since_process_start()

    state = {"attempted": 0, "failed": 0, "correct": True}
    tracer = layers.instrument(fq) if args.trace else None
    walls, cpus, counts = [], [], []
    start = time.perf_counter()
    while True:
        r = len(walls)
        # traced runs: round 0 warms up, then traced (odd) and untraced
        # (even) rounds alternate, ending on a whole pair
        traced = bool(args.trace) and r % 2 == 1
        if tracer is not None:
            tracer.round = r
        wall, cpu, extra = run_round(workload.round(r), state, tracer if traced else None)
        walls.append(wall)
        cpus.append(cpu)
        counts.append(extra)
        if time.perf_counter() - start >= args.seconds and (
                not args.trace or (r >= 2 and r % 2 == 0)):
            break

    if args.trace:
        spans = tracer.self_times()
        traced_rounds = list(range(1, len(walls), 2))
        metrics = layers.summarize(
            spans, traced_rounds, counts,
            untraced_walls=walls[2::2], traced_walls=walls[1::2])
        with open(out / "trace.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "round_wall_s": walls, "traced_rounds": traced_rounds,
                       "metrics": metrics, "spans": spans}, fh)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": state["correct"], "attempted": state["attempted"],
                      "failed": state["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
