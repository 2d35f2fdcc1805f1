#!/usr/bin/env python3
"""Regenerate the reference figures of bench/README.md.

    python3 bench/reference.py [--seeds 1-10] [--seconds 30]

For every workload: one untraced run per seed, then one traced run at the
first seed, each a separate `bench/run.py` process, one after another.
Prints Markdown tables: per end-to-end metric the median over the seeds
and the spread (distance between the first and third quartile of
`statistics.quantiles(values, n=4)`, as a share of the median), the share
of failed operations, and the per-layer figures of the traced run.  Takes
about (3 x seeds + 3) x (seconds + 10) seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads    # noqa: E402


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(name: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=str(HERE.parent), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args()
    seeds = _seeds(args.seeds)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    plain, traced = {}, {}
    for name in workloads.WORKLOADS:
        plain[name] = [one_run(name, s, args.seconds, 0) for s in seeds]
        traced[name] = one_run(name, seeds[0], args.seconds, 1)

    print(f"End to end, {len(seeds)} seeds ({args.seeds}), median "
          "[spread]:\n")
    print("| workload | " + " | ".join(
        f"{m} ({bounds[m]:.2f})" for m in bounds) + " | failed |")
    print("|---" * (len(bounds) + 2) + "|")
    for name, runs in plain.items():
        cells = []
        for m in bounds:
            values = [r["metrics"][m]["value"] for r in runs]
            cells.append(f"{statistics.median(values):#.4g} "
                         f"[{spread(values):.3f}]" if len(values) > 1
                         else f"{values[0]:#.4g}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"| {name} | " + " | ".join(cells)
              + f" | {failed}/{attempted} |")

    print(f"\nPer layer, traced run at seed {seeds[0]}:\n")
    print("| metric | unit | " + " | ".join(traced) + " |")
    print("|---|---|" + "---|" * len(traced))
    for m in declared["per_layer"]:
        cells = [f"{traced[n]['metrics'][m['name']]['value']:.4g}"
                 for n in traced]
        print(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
