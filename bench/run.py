#!/usr/bin/env python3
"""Benchmark of b2dunkl: one workload, end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is taken from `src/` beside this directory; nothing needs to be
installed.  A run first byte-compiles `src/` (the build step), then starts
fresh Python processes (`bench/worker.py`), one after another: five that
only import `b2dunkl.cli` (set-up probes), then whole rounds of the
workload until S seconds have passed.  Each round is a new process, so
every round pays the import and starts with cold caches, as a CLI user
does.  With `--trace 1` rounds alternate untraced/traced and the per-layer
figures come from the traced ones.

Operations are the workload's `b2dunkl` commands.  One fails when it
crashes, exits with the wrong status, prints other bytes than the same
command in the first round, or fails its independent oracle
(`bench/oracles.py`).  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; metric names and units come
from BENCHMARK.json.  A human-readable summary goes to stderr, and the full
report (per-round figures, problems, spans) to `.bench_results/`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import operator
import os
import random
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results"
sys.path.insert(0, str(HERE))

import oracles     # noqa: E402
import workloads   # noqa: E402

PROBES = 5
WORKER_TIMEOUT_S = 170
_RATIONAL = re.compile(r"(-?\d+)/(\d+)")


class BenchError(Exception):
    pass


def _median(values):
    return statistics.median(list(values))


# ---- processes --------------------------------------------------------------


def _clean_env() -> dict:
    return {k: v for k, v in os.environ.items()
            if not k.startswith("B2DUNKL_")}


def spawn(spec=None, spans=None) -> dict:
    """Run one worker process to its end; a probe when spec is None."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT)]
    if spec is None:
        cmd.append("--probe")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, input=json.dumps(spec or {}),
                              capture_output=True, text=True,
                              env=_clean_env(), cwd=str(ROOT),
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran longer than {WORKER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BenchError(f"worker exited with {proc.returncode}: "
                         + " | ".join(tail))
    report = json.loads(lines[-1])
    # CLOCK_MONOTONIC is shared by every process on the machine
    report["setup_s"] = report["ready"] - started
    return report


def _tag(spec) -> str:
    smoke = "-smoke" if spec["info"]["size"] == "smoke" else ""
    return f"{spec['workload']}-seed{spec['seed']}{smoke}"


def measure(spec, seconds: float, trace: bool, probes: int = PROBES):
    """Set-up probes, then whole rounds for as long as the next round,
    taking as long as the last one, still ends within `seconds`; at least
    one round, and with `trace` at least one untraced and one traced.
    Returns (set-up times, [(traced, worker report), ...])."""
    spans = RESULTS / f"{_tag(spec)}-spans.json"
    setups = [spawn()["setup_s"] for _ in range(probes)]
    rounds = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        began = time.perf_counter()
        report = spawn(spec, spans if traced else None)
        setups.append(report["setup_s"])
        rounds.append((traced, report))
        now = time.perf_counter()
        if (now - start) + (now - began) > seconds and \
                (not trace or len(rounds) >= 2):
            return setups, rounds


# ---- correctness ------------------------------------------------------------


def evaluate(spec, rounds):
    """(attempted, failed, problems) over every operation of every round.
    The first untraced round is the reference: it goes through the
    oracles, and every other round must print the same bytes."""
    reference = rounds[0][1]["results"]
    bad = oracles.check(spec, reference)
    attempted = failed = 0
    problems = []
    for r, (traced, report) in enumerate(rounds):
        for i, (op, res) in enumerate(zip(spec["ops"], report["results"])):
            attempted += 1
            why = []
            if res["crash"]:
                why.append(f"crashed: {res['crash']}")
            elif res["rc"] != op["rc"]:
                why.append(f"exit status {res['rc']}, expected {op['rc']}")
            if res["stdout"] != reference[i]["stdout"]:
                why.append("stdout differs from the first round"
                           + (" (traced)" if traced else ""))
            why += bad.get(i, [])
            if why:
                failed += 1
                problems.append(f"round {r} op {i} "
                                f"({' '.join(op['argv'][:4])}): "
                                + "; ".join(why))
    return attempted, failed, problems


# ---- metrics ----------------------------------------------------------------


def end_to_end(setups, rounds) -> dict:
    plain = [rep for traced, rep in rounds if not traced]
    return {
        "wall_s": _median(r["wall_s"] for r in plain),
        "cpu_s": _median(r["cpu_s"] for r in plain),
        "setup_s": _median(setups),
        "peak_rss_mib": _median(r["peak_rss_kib"] / 1024 for r in plain),
    }


def _per_call(fn, args, budget: float) -> float:
    """Median seconds per call of fn(*a) over the argument tuples."""
    def one_pass(loops):
        t0 = time.perf_counter()
        for _ in range(loops):
            for a in args:
                fn(*a)
        return time.perf_counter() - t0

    loops = 1
    while one_pass(loops) < budget and loops < 1 << 20:
        loops *= 2
    return _median(one_pass(loops) for _ in range(5)) / (loops * len(args))


def _operand_polys(spec):
    """The workload's own polynomials: its basis states at its degree, or
    for prove-symbolic the monomials its appendixA suite checks together
    with their Dunkl Laplacian images under symbolic couplings."""
    from b2dunkl.basis import BasisLabel, psi
    from b2dunkl.operators import apply_named
    from b2dunkl.params import Params
    from b2dunkl.poly import MPoly

    info = spec["info"]
    d = info["degree"]
    if spec["workload"] == "prove-symbolic":
        monos = [MPoly(("z", "zb"), {(a, d - a): 1}) for a in range(d + 1)]
        return monos + [apply_named("DeltaKappa", m, Params.symbolic())
                        for m in monos]
    triples = info["triples"] if "triples" in info else [info["triple"]]
    return [psi(BasisLabel(d - b, b), Params.numeric(*t))
            for t in triples for b in range(d + 1)]


def micro_timings(spec, outputs, seed: int, budget: float) -> dict:
    """Layer micro-timings on operands taken from the workload itself."""
    from b2dunkl.group import act, ell, reflection
    from b2dunkl.scalars import QI

    polys = _operand_polys(spec)
    pairs = [(p, polys[(i + 1) % len(polys)]) for i, p in enumerate(polys)]
    quotients = []
    for p in polys:
        for j in range(4):
            diff = p - act(reflection(j), p)
            if not diff.is_zero():
                quotients.append((diff, ell(j)))
    fractions = [(int(n), int(d)) for o in outputs
                 for n, d in _RATIONAL.findall(o["stdout"])]
    bits = max(max(abs(n).bit_length(), d.bit_length())
               for n, d in fractions)
    rng = random.Random(seed)

    def gaussian():
        return QI(Fraction(*rng.choice(fractions)),
                  Fraction(*rng.choice(fractions)))
    qis = [(gaussian(), gaussian()) for _ in range(64)]
    return {
        "poly.mul_us": 1e6 * _per_call(operator.mul, pairs, budget),
        "poly.divide_linear_us": 1e6 * _per_call(
            lambda p, q: p.divide_linear(q), quotients, budget),
        "scalars.max_coeff_bits": bits,
        "scalars.qi_mul_ns": 1e9 * _per_call(operator.mul, qis, budget),
        "scalars.qi_add_ns": 1e9 * _per_call(operator.add, qis, budget),
    }


def per_layer(spec, rounds, seed: int, budget: float) -> dict:
    traced = [rep for t, rep in rounds if t]
    plain = [rep for t, rep in rounds if not t]
    out = {k: _median(r["layers"][k] for r in traced)
           for k in traced[0]["layers"]}
    out.update(micro_timings(spec, plain[0]["results"], seed, budget))
    wall = _median(r["wall_s"] for r in traced)
    base = _median(r["wall_s"] for r in plain)
    out.update({"trace.wall_s": wall, "trace.untraced_wall_s": base,
                "trace.overhead_pct": 100 * (wall / base - 1)})
    return out


# ---- command line -----------------------------------------------------------


def _declared_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return doc["end_to_end"], doc["per_layer"]


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = workloads.build(name, seed)
    setups, rounds = measure(spec, seconds, trace)
    attempted, failed, problems = evaluate(spec, rounds)
    if trace:
        values = per_layer(spec, rounds, seed, 0.05)
    else:
        values = end_to_end(setups, rounds)
    declared = _declared_metrics()[1 if trace else 0]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]],
                                      "unit": m["unit"]}
                          for m in declared}}
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "result": result,
              "problems": problems, "setup_s": setups,
              "rounds": [{"traced": t, "wall_s": r["wall_s"],
                          "cpu_s": r["cpu_s"],
                          "peak_rss_kib": r["peak_rss_kib"],
                          "setup_s": r["setup_s"]} for t, r in rounds]}
    out = RESULTS / f"{_tag(spec)}-trace{int(trace)}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for line in problems[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    for key, m in result["metrics"].items():
        print(f"{name:>15} {key:<32} {m['value']:>14.6g} {m['unit']}",
              file=sys.stderr)
    return result


def _prepare() -> None:
    """Fail unless the program's sources are beside the benchmark, then
    byte-compile them so that set-up time does not include compiling."""
    if not (ROOT / "src" / "b2dunkl" / "cli.py").is_file():
        raise BenchError(f"no b2dunkl sources under {ROOT / 'src'}")
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        raise BenchError("src/ does not compile")
    RESULTS.mkdir(exist_ok=True)
    # the oracles and micro-timings import the program too
    sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS,
                    required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        _prepare()
        print(json.dumps(run(args.workload, args.seed, args.seconds,
                             bool(args.trace))))
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
