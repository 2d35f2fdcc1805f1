"""Expansion in one energy level by eliminating the whole level.

`spectra.expand` solves the (N + 1) x (N + 1) system of the level's
top-degree coefficients and rebuilds the polynomial exactly.  The tests
check it against this independent slow path: one system with a row for
every monomial the level can hold, whose residual rows decide membership.
"""

from functools import lru_cache
from typing import Dict, List, Tuple

from b2dunkl.basis import BasisLabel, enumerate_basis, psi
from b2dunkl.linsolve import LinearSolver, NotInSpanError
from b2dunkl.params import Params
from b2dunkl.poly import MPoly, unpack
from b2dunkl.scalars import QI


def _monomial_grid(degree: int) -> List[Tuple[int, int]]:
    """Monomial exponents reachable inside one energy level, graded order."""
    grid = []
    for d in range(degree, -1, -2):
        for a in range(d, -1, -1):
            grid.append((a, d - a))
    return grid


@lru_cache(maxsize=None)
def _level_solver(degree: int, params: Params):
    labels = enumerate_basis(degree)
    grid = _monomial_grid(degree)
    index = {exp: i for i, exp in enumerate(grid)}
    columns = [psi(lb, params) for lb in labels]
    rows = [[col.coefficient({"z": a, "zb": b}) for col in columns]
            for (a, b) in grid]
    return index, LinearSolver(rows)


def expand(p: MPoly, degree: int, params: Params) -> Dict[BasisLabel, QI]:
    """Exact coordinates of p in the basis of the given energy level.

    Raises NotInSpanError if p does not lie in the level (wrong parity,
    too high degree, or simply not an eigenspace element).
    """
    for v in p.vars:
        if v not in ("z", "zb"):
            raise ValueError(f"not a coordinate polynomial: contains {v!r}")
    index, solver = _level_solver(degree, params)
    rhs = [QI(0)] * len(index)
    for exp, c in p.terms.items():
        key = unpack(exp)[:2]
        if key not in index:
            raise NotInSpanError(
                f"monomial z^{key[0]} zb^{key[1]} is outside the "
                f"degree-{degree} level")
        rhs[index[key]] = c
    coords = solver.solve(rhs)
    out: Dict[BasisLabel, QI] = {}
    for lb, c in zip(enumerate_basis(degree), coords):
        if c:
            out[lb] = c
    return out
