"""Exact linear solving over the Gaussian rationals.

A ``LinearSolver`` reduces its coefficient matrix once and records the row
operations, so many right-hand sides can be solved against the same matrix
without re-eliminating.  Solutions are exact; consistency of overdetermined
systems is checked exactly (residual must vanish identically).
"""

from __future__ import annotations

from typing import List, Sequence

from .scalars import QI, ScalarLike


class NotInSpanError(ValueError):
    """The right-hand side is not in the column span of the matrix."""


class UnderdeterminedError(ValueError):
    """The matrix does not have full column rank."""


_SWAP, _SCALE, _AXPY = 0, 1, 2


class LinearSolver:
    def __init__(self, rows: Sequence[Sequence[ScalarLike]]):
        mat = [[QI.of(v) for v in row] for row in rows]
        if not mat:
            raise ValueError("empty matrix")
        ncols = len(mat[0])
        if any(len(row) != ncols for row in mat):
            raise ValueError("ragged matrix")
        self.nrows = len(mat)
        self.ncols = ncols

        ops = []
        pivots: List[int] = []
        r = 0
        for col in range(ncols):
            pr = next((i for i in range(r, self.nrows) if mat[i][col]), None)
            if pr is None:
                continue
            if pr != r:
                mat[r], mat[pr] = mat[pr], mat[r]
                ops.append((_SWAP, r, pr))
            piv = mat[r][col]
            if piv != QI(1):
                inv = QI(1) / piv
                mat[r] = [v * inv for v in mat[r]]
                ops.append((_SCALE, r, inv))
            for i in range(self.nrows):
                f = mat[i][col]
                if i == r or not f:
                    continue
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
                ops.append((_AXPY, i, (r, f)))
            pivots.append(col)
            r += 1
            if r == self.nrows:
                break
        self._ops = ops
        self._pivots = pivots
        self.rank = len(pivots)

    def solve(self, rhs: Sequence[ScalarLike]) -> List[QI]:
        """Unique exact solution of A x = rhs.

        Raises UnderdeterminedError when columns are dependent and
        NotInSpanError when the system is inconsistent.
        """
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side has wrong length")
        if self.rank < self.ncols:
            raise UnderdeterminedError(
                f"rank {self.rank} < {self.ncols} columns")
        v = [QI.of(x) for x in rhs]
        for op, i, arg in self._ops:
            if op == _SWAP:
                v[i], v[arg] = v[arg], v[i]
            elif op == _SCALE:
                v[i] = v[i] * arg
            else:
                r, f = arg
                v[i] = v[i] - f * v[r]
        for i in range(self.rank, self.nrows):
            if v[i]:
                raise NotInSpanError("nonzero residual in row "
                                     f"{i}: {v[i]}")
        x = [QI(0)] * self.ncols
        for r, col in enumerate(self._pivots):
            x[col] = v[r]
        return x
