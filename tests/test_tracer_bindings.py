"""The benchmark's tracer against the program it binds.

`bench/tracing.py` wraps public functions of the package by name, and
`bench/run.py --trace 1` reports the per-layer figures that BENCHMARK.json
declares.  A change that drops or renames a name the tracer binds would
otherwise only show in a traced benchmark run.  Here a fresh process
installs the tracer, runs one command of each kind, and reports the keys
of `Tracer.layer_stats`; nothing in `bench/` is changed.
"""

import json
import os
import subprocess
import sys

import b2dunkl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")

COMMANDS = [
    ["verify", "--suite", "all", "--max-degree", "2"],
    ["table", "j2", "--degree", "2"],
    ["table", "norms", "--degree", "2"],
    ["prove", "--identity", "radius-lowering"],
    ["apply", "--op", "Hhat", "--label", "1,0", "--expand"],
]

# per-layer figures that bench/run.py measures itself, outside the tracer
RUN_ADDS = {"poly.mul_us", "poly.divide_linear_us", "scalars.max_coeff_bits",
            "scalars.qi_mul_ns", "scalars.qi_add_ns"}

CHILD = """
import contextlib, io, json, sys
from tracing import Tracer
from b2dunkl import cli
tracer = Tracer()
tracer.install()
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv, env={}))
print(json.dumps({"codes": codes, "stats": tracer.layer_stats()}))
"""


def test_tracer_binds_every_declared_layer_figure():
    package_root = os.path.dirname(os.path.dirname(b2dunkl.__file__))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("B2DUNKL_")}
    env["PYTHONPATH"] = os.pathsep.join([package_root, BENCH])
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(COMMANDS)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(COMMANDS)
    stats = report["stats"]
    assert stats["cli.commands"] == len(COMMANDS)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    assert RUN_ADDS <= set(declared)
    missing = [name for name in declared
               if name not in RUN_ADDS and not name.startswith("trace.")
               and name not in stats]
    assert not missing
