"""One fresh benchmark process: import b2dunkl, run a workload's commands.

    python3 bench/worker.py --root CHECKOUT [--probe] [--spans PATH] < spec

The spec (JSON on stdin) is the output of `workloads.build`.  The process
imports `b2dunkl.cli` from CHECKOUT/src before anything else, records the
monotonic clock when that import returns (the parent subtracts its spawn
time to get the set-up time), then calls `b2dunkl.cli.main` once per
operation with stdout and stderr captured.  With `--probe` it stops after
the import.  With `--spans` the layer functions are traced and the spans
written to PATH at the end.  The result is one JSON line on stdout.
"""

import sys
import time


def _import_program(root: str):
    src = root.rstrip("/") + "/src"
    sys.path.insert(0, src)
    import b2dunkl.cli
    ready = time.perf_counter()
    if not b2dunkl.cli.__file__.startswith(src + "/"):
        raise SystemExit(f"worker: b2dunkl was imported from "
                         f"{b2dunkl.cli.__file__}, not from {src}")
    return b2dunkl.cli, ready


def main() -> int:
    argv = sys.argv[1:]
    root = argv[argv.index("--root") + 1]
    cli, ready = _import_program(root)

    import contextlib
    import io
    import json
    import os
    import resource

    if "--probe" in argv:
        print(json.dumps({"ready": ready}))
        return 0
    spec = json.load(sys.stdin)
    tracer = None
    if "--spans" in argv:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    results = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in spec["ops"]:
        out, err = io.StringIO(), io.StringIO()
        rc, crash = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(op["argv"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:    # a crash is a failed operation
                crash = f"{type(exc).__name__}: {exc}"
        results.append({"rc": rc, "stdout": out.getvalue(),
                        "stderr": err.getvalue(), "crash": crash})
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {"ready": ready, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_kib": rss_kib, "results": results}
    if tracer is not None:
        report["layers"] = tracer.layer_stats()
        tracer.write_spans(argv[argv.index("--spans") + 1])
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
