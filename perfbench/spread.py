"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 1-10

Runs ``perfbench/run.py`` once per seed on every workload, one run at a
time, from the root of the checkout, at the ``run_seconds`` of
``BENCHMARK.json``, and prints for every metric the median,
the quartiles and the distance between the quartiles as a share of the
median (``statistics.quantiles(values, n=4)``), plus the share of failed
operations.  Each run's result line is appended to
``perfbench-out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact", "random-programs", "anneal", "il-sweep")


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    log = ROOT / "perfbench-out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)

    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in args.seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT\n{done.stderr}", file=sys.stderr)
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {len(args.seeds)} runs, failed share {sorted(shares)}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"  {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                  f"  spread {(q3 - q1) / med:.3f}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
