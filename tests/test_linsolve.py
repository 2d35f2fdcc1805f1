"""Exact linear solving with a reusable factorization."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from b2dunkl.linsolve import LinearSolver, NotInSpanError, UnderdeterminedError
from b2dunkl.scalars import QI


def test_frozen_2x2():
    x = LinearSolver([[1, 2], [3, 4]]).solve([5, 6])
    assert x == [QI(-4), QI(Q(9, 2))]


def test_complex_entries():
    assert LinearSolver([[QI(0, 1)]]).solve([1]) == [QI(0, -1)]


def test_tall_system_consistency_check():
    solver = LinearSolver([[1, 0], [0, 1], [1, 1]])
    assert solver.rank == 2
    assert solver.solve([2, 3, 5]) == [QI(2), QI(3)]
    with pytest.raises(NotInSpanError):
        solver.solve([2, 3, 4])


def test_zero_first_pivot_replays_the_row_swap():
    # the first column's pivot sits in row 1, so every solve replays a swap
    solver = LinearSolver([[0, 1], [1, 0], [1, 1]])
    assert solver.rank == 2
    assert solver.solve([3, 2, 5]) == [QI(2), QI(3)]
    assert solver.solve([QI(0, 1), 4, QI(4, 1)]) == [QI(4), QI(0, 1)]
    with pytest.raises(NotInSpanError):
        solver.solve([3, 2, 4])


def test_malformed_systems_rejected():
    with pytest.raises(ValueError, match="empty matrix"):
        LinearSolver([])
    with pytest.raises(ValueError, match="ragged matrix"):
        LinearSolver([[1, 2], [3]])
    with pytest.raises(ValueError, match="wrong length"):
        LinearSolver([[1, 0], [0, 1]]).solve([1])


def test_inconsistent_raises():
    with pytest.raises(NotInSpanError):
        LinearSolver([[1], [1]]).solve([1, 2])


def test_underdetermined_raises():
    with pytest.raises(UnderdeterminedError):
        LinearSolver([[1, 1]]).solve([2])
    with pytest.raises(UnderdeterminedError):
        LinearSolver([[1, 2], [2, 4]]).solve([3, 6])


def test_solver_is_reusable():
    solver = LinearSolver([[2, 0], [0, 4]])
    assert solver.solve([2, 4]) == [QI(1), QI(1)]
    assert solver.solve([0, 2]) == [QI(0), QI(Q(1, 2))]


rats = st.fractions(min_value=-8, max_value=8, max_denominator=5)


@given(st.lists(st.lists(rats, min_size=3, max_size=3), min_size=3,
                max_size=5),
       st.lists(rats, min_size=3, max_size=3))
@settings(max_examples=50)
def test_solution_reproduces_rhs(rows, x):
    rhs = [sum((Q(r) * Q(v) for r, v in zip(row, x)), Q(0)) for row in rows]
    solver = LinearSolver(rows)
    try:
        got = solver.solve(rhs)
    except UnderdeterminedError:
        assert solver.rank < 3
        return
    assert got == [QI(v) for v in x]
