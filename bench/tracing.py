"""Span tracing around the public functions of each b2dunkl layer.

Nothing inside the program changes: `Tracer.install` replaces each public
layer function, at every module that imported it by name, with a wrapper
that records a span (name, start, end, parent).  Spans are kept in memory
and written out once, at the end of the process.  A span's self time is its
duration minus the durations of its direct children; the nesting is
cli/verify -> spectra/kernel/weighted/basis -> operators
-> poly/group/linsolve.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional

from workloads import SUITES


class Tracer:
    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []
        self._child: List[float] = []
        # name -> [calls, inclusive seconds, self seconds]
        self.agg: Dict[str, List[float]] = {}
        self._caches: Dict[str, Callable] = {}

    # ---- recording -----------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             classify: Optional[Callable] = None) -> Callable:
        """`fn` with a span around each call.  `classify(args, kwargs)`, if
        given, names the span or returns None to pass the call through."""
        spans, stack, child, agg = self.spans, self._stack, self._child, \
            self.agg
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = name if classify is None else classify(args, kwargs)
            if span is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inner = child.pop()
                dur = end - start
                spans[idx] = (span, start, end, parent)
                row = agg.get(span)
                if row is None:
                    row = agg[span] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dur
                row[2] += dur - inner
                if child:
                    child[-1] += dur

        traced.__wrapped__ = fn
        return traced

    def patch(self, name: str, modules, attr: str,
              classify: Optional[Callable] = None) -> None:
        """Wrap `attr` in every module (or class) of `modules`."""
        for mod in modules:
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), classify))

    def install(self) -> None:
        from b2dunkl import (basis, cli, group, kernel, linsolve, operators,
                             poly, spectra, verify, weighted)

        self._caches = {
            "psi": basis.psi, "seed": basis.harmonic_seed,
            "khat": spectra.khat_expansion,
            "h0_shifted": spectra.h0_shifted_expansion,
            "j2": spectra.j2_expansion,
        }

        def suite(args, kwargs):
            return "verify." + (args[0] if args else kwargs["name"])

        def first_order(args, kwargs):
            expr = args[0] if args else kwargs["expr"]
            return ("kernel.first_order"
                    if isinstance(expr, operators.Dunkl) else None)

        self.patch("cli", [cli], "main")
        self.patch("verify.suite", [verify], "run_suite", suite)
        for fn in ("h0_table", "k_table", "j2_table", "norm_table"):
            self.patch("spectra.table", [spectra, cli], fn)
        for fn in ("h0_shifted_expansion", "khat_expansion", "j2_expansion"):
            self.patch("spectra.expansion", [spectra, verify], fn)
        self.patch("spectra.expand", [spectra, verify], "expand")
        self.patch("kernel.prove", [kernel, cli], "prove")
        self.patch("kernel.first_order", [kernel], "k_apply", first_order)
        self.patch("weighted.conjugation", [weighted, verify],
                   "verify_weighted_conjugation")
        self.patch("basis.psi", [basis, spectra, verify, cli], "psi")
        self.patch("operators.apply",
                   [operators, verify, spectra, weighted], "apply_named")
        self.patch("operators.apply", [cli], "op_apply")
        self.patch("operators.dunkl", [operators], "apply_dunkl")
        self.patch("group.act",
                   [group, operators, basis, kernel, weighted, verify], "act")
        self.patch("poly.divide_linear", [poly.MPoly], "divide_linear")
        self.patch("linsolve.build", [linsolve.LinearSolver], "__init__")
        self.patch("linsolve.solve", [linsolve.LinearSolver], "solve")

    # ---- reporting -----------------------------------------------------

    def _row(self, name: str) -> List[float]:
        return self.agg.get(name, [0, 0.0, 0.0])

    def layer_stats(self) -> Dict[str, float]:
        """Per-layer counts and times of everything recorded so far."""
        calls = lambda n: self._row(n)[0]           # noqa: E731
        total = lambda n: self._row(n)[1]           # noqa: E731
        own = lambda n: self._row(n)[2]             # noqa: E731
        info = {k: fn.cache_info() for k, fn in self._caches.items()}

        def ratio(hits, misses):
            return hits / (hits + misses) if hits + misses else 0.0

        exp = [info[k] for k in ("khat", "h0_shifted", "j2")]
        exp_hits = sum(i.hits for i in exp)
        exp_misses = sum(i.misses for i in exp)
        out = {f"verify.{s}_s": total(f"verify.{s}") for s in SUITES}
        out.update({
            "cli.commands": calls("cli"),
            "cli.self_s": own("cli"),
            "operators.apply_calls": calls("operators.apply"),
            "operators.apply_self_s": own("operators.apply"),
            "operators.dunkl_calls": calls("operators.dunkl"),
            "operators.dunkl_self_s": own("operators.dunkl"),
            "poly.divide_linear_calls": calls("poly.divide_linear"),
            "poly.divide_linear_s": total("poly.divide_linear"),
            "group.act_calls": calls("group.act"),
            "group.act_s": total("group.act"),
            "linsolve.builds": calls("linsolve.build"),
            "linsolve.build_s": total("linsolve.build"),
            "linsolve.solves": calls("linsolve.solve"),
            "linsolve.solve_s": total("linsolve.solve"),
            "basis.psi_calls": calls("basis.psi"),
            "basis.psi_misses": info["psi"].misses,
            "basis.psi_hit_ratio": ratio(info["psi"].hits,
                                         info["psi"].misses),
            "basis.psi_s": total("basis.psi"),
            "basis.seed_misses": info["seed"].misses,
            "spectra.expand_calls": calls("spectra.expand"),
            "spectra.expand_s": total("spectra.expand"),
            "spectra.expansion_hits": exp_hits,
            "spectra.expansion_hit_ratio": ratio(exp_hits, exp_misses),
            "kernel.prove_calls": calls("kernel.prove"),
            "kernel.prove_s": total("kernel.prove"),
            "kernel.first_order_calls": calls("kernel.first_order"),
            "kernel.first_order_s": total("kernel.first_order"),
            "weighted.conjugation_calls": calls("weighted.conjugation"),
            "weighted.conjugation_s": total("weighted.conjugation"),
        })
        return out

    def write_spans(self, path: str) -> None:
        """Write every recorded span as one JSON document."""
        names = sorted({s[0] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[index[s[0]], round(s[1], 9),
                                  round(s[2], 9), s[3]]
                                 for s in self.spans if s is not None],
                       "aggregate": self.agg}, fh)
