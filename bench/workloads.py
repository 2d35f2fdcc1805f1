"""Workload definitions for the b2dunkl benchmark.

A workload is a list of operations, each one `b2dunkl` command line with the
exit status it must return, plus the inputs the oracles need.  Everything is
drawn from the seed with `random.Random`, so the same seed gives the same
commands.  This module uses the standard library only: the program under
test receives nothing but the generated command lines.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("verify-all", "prove-symbolic", "table-sweep")

DEFAULT_TRIPLE = (Fraction(3, 7), Fraction(5, 11), Fraction(2, 3))

SUITES = ("eigen", "j2", "rho1", "h0", "k", "cai", "kernel", "appendixA",
          "superint")

# The identity catalogue as the paper states it: nineteen operator
# identities, of which exactly one (the angular/quartic commutator) fails.
IDENTITIES = (
    "angular-quartic", "component-square-sum", "component-sum-02",
    "component-sum-13", "hamiltonian-angular", "hamiltonian-component-0",
    "hamiltonian-component-1", "hamiltonian-component-2",
    "hamiltonian-component-3", "laplacian-coordinate",
    "opposite-components-02", "opposite-components-13",
    "quartic-hamiltonian", "quartic-reflection-0", "quartic-reflection-1",
    "quartic-reflection-2", "quartic-reflection-3", "radius-lowering",
    "rotation-relabels-components",
)
REFUTED = ("angular-quartic",)

# Input sizes.  "full" is what the benchmark measures; "smoke" runs every
# workload and every oracle in seconds.
SIZES = {
    "full": {"verify_degree": 4, "appendix_degree": 8, "table_degree": 4,
             "triples": 4, "identities": IDENTITIES, "oracle_degree": 2,
             "oracle_polys": 2},
    "smoke": {"verify_degree": 2, "appendix_degree": 2, "table_degree": 3,
              "triples": 2,
              "identities": ("angular-quartic", "component-sum-02",
                             "laplacian-coordinate", "radius-lowering"),
              "oracle_degree": 1, "oracle_polys": 1},
}

# Height ranges of the drawn parameter triples.
LOW_DENOMINATORS = (2, 19)          # denominators below 20
HIGH_RANGE = (10 ** 6, 2 * 10 ** 6)  # numerators and denominators ~ 10^6


def rat(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def is_generic(k0: Fraction, k1: Fraction) -> bool:
    """Couplings the program accepts and on which the oracles' closed forms
    have no vanishing factor: k0 + k1 outside {0, 1} and k0 != k1."""
    return k0 + k1 not in (0, 1) and k0 != k1


def _low(rng: random.Random) -> Fraction:
    q = rng.randint(*LOW_DENOMINATORS)
    return Fraction(rng.randint(1, 2 * q), q)


def _high(rng: random.Random) -> Fraction:
    while True:
        p, q = rng.randint(*HIGH_RANGE), rng.randint(*HIGH_RANGE)
        if math.gcd(p, q) == 1:     # keep the drawn height
            return Fraction(p, q)


def draw_triple(rng: random.Random, high: bool):
    draw = _high if high else _low
    while True:
        k0, k1, w = draw(rng), draw(rng), draw(rng)
        if is_generic(k0, k1):
            return k0, k1, w


def _triple_flags(triple):
    k0, k1, w = triple
    return ["--k0", rat(k0), "--k1", rat(k1), "--omega", rat(w)]


def _random_poly(rng: random.Random, degree: int):
    """Every monomial z^a zb^b with a + b <= degree, each with a nonzero
    Gaussian-integer coefficient; returned as [a, b, re, im] rows."""
    rows = []
    for d in range(degree + 1):
        for a in range(d, -1, -1):
            re = im = 0
            while re == 0 and im == 0:
                re, im = rng.randint(-9, 9), rng.randint(-9, 9)
            rows.append([a, d - a, re, im])
    return rows


def build(name: str, seed: int, size: str = "full") -> dict:
    """The workload `name` at `seed`: its operations and oracle inputs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from "
                         + ", ".join(WORKLOADS))
    sz = SIZES[size]
    rng = random.Random(f"{name}:{seed}")
    ops = []
    info = {"size": size}
    if name == "verify-all":
        degree = sz["verify_degree"]
        info.update(degree=degree,
                    triple=[rat(v) for v in DEFAULT_TRIPLE])
        ops.append({"kind": "verify", "rc": 0,
                    "argv": ["verify", "--suite", "all",
                             "--max-degree", str(degree)]})
    elif name == "prove-symbolic":
        names = list(sz["identities"])
        rng.shuffle(names)
        for ident in names:
            ops.append({"kind": "prove", "identity": ident,
                        "rc": 1 if ident in REFUTED else 0,
                        "argv": ["prove", "--identity", ident]})
        degree = sz["appendix_degree"]
        ops.append({"kind": "appendixA", "rc": 0,
                    "argv": ["verify", "--suite", "appendixA",
                             "--max-degree", str(degree)]})
        info.update(degree=degree,
                    oracle_triple=[rat(v)
                                   for v in draw_triple(rng, high=False)],
                    oracle_polys=[_random_poly(rng, sz["oracle_degree"])
                                  for _ in range(sz["oracle_polys"])])
    else:
        degree = sz["table_degree"]
        triples = [draw_triple(rng, high=bool(i % 2))
                   for i in range(sz["triples"])]
        info.update(degree=degree,
                    triples=[[rat(v) for v in t] for t in triples])
        deg = ["--degree", str(degree)]
        for i, triple in enumerate(triples):
            flags = _triple_flags(triple)
            b = rng.randint(0, degree)
            label = f"{degree - b},{b}"
            for kind, argv in (
                    ("basis", ["basis"] + deg),
                    ("norms", ["table", "norms"] + deg),
                    ("h0", ["table", "h0"] + deg),
                    ("k", ["table", "k"] + deg),
                    ("j2", ["table", "j2"] + deg),
                    ("apply", ["apply", "--op", "Hhat", "--label", label,
                               "--expand"]),
                    ("k1", ["table", "k", "--degree", "1"])):
                ops.append({"kind": kind, "triple": i, "rc": 0,
                            "argv": argv + flags})
    return {"workload": name, "seed": seed, "ops": ops, "info": info}
