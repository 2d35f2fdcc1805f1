"""Exact complex-rational scalar arithmetic."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from b2dunkl.scalars import QI, format_rat, parse_rat


def test_construction_coerces_ints():
    x = QI(3, -2)
    assert x.re == Fraction(3) and x.im == Fraction(-2)
    assert isinstance(x.re, Fraction)


def test_of_accepts_fraction_int_and_self():
    assert QI.of(5) == QI(5)
    assert QI.of(Fraction(2, 7)) == QI(Fraction(2, 7))
    w = QI(1, 1)
    assert QI.of(w) is w


def test_basic_arithmetic_frozen_values():
    a = QI(Fraction(1, 2), Fraction(3, 4))
    b = QI(Fraction(-2, 3), Fraction(1, 6))
    assert a + b == QI(Fraction(-1, 6), Fraction(11, 12))
    assert a - b == QI(Fraction(7, 6), Fraction(7, 12))
    # (1/2 + 3/4 i)(-2/3 + 1/6 i) = (-1/3 - 1/8) + (1/12 - 1/2) i
    assert a * b == QI(Fraction(-11, 24), Fraction(-5, 12))


def test_division_frozen_value():
    # (1 + i) / (1 - i) = i
    assert QI(1, 1) / QI(1, -1) == QI(0, 1)
    # (3 + 4i) / (2 + i) = (10 + 5i) / 5 = 2 + i
    assert QI(3, 4) / QI(2, 1) == QI(2, 1)
    with pytest.raises(ZeroDivisionError):
        QI(1) / QI(0)


def test_i_powers_cycle():
    assert [QI.i_power(k) for k in range(4)] == [
        QI(1), QI(0, 1), QI(-1), QI(0, -1)
    ]
    assert QI.i_power(-1) == QI(0, -1)
    assert QI.i_power(7) == QI.i_power(3)


def test_phases_rotate_the_triple():
    for x in (QI(Fraction(2, 5), Fraction(-1, 3)), QI(3), QI(0, -7), QI(0)):
        assert x.phases() == tuple(x * QI.i_power(r) for r in range(4))
        assert x.phases()[0] is x


def test_conjugate_and_predicates():
    x = QI(Fraction(2, 5), Fraction(-1, 3))
    assert x.conj() == QI(Fraction(2, 5), Fraction(1, 3))
    assert x.im != 0
    assert QI(Fraction(9, 2)).im == 0
    assert bool(QI(0, Fraction(1, 9))) and not bool(QI(0))


rats = st.fractions(min_value=-40, max_value=40, max_denominator=12)
scalars = st.builds(QI, rats, rats)


@given(scalars, scalars, scalars)
def test_field_axioms_sample(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - b) + b == a


@given(scalars, scalars)
def test_division_inverts_multiplication(a, b):
    if not b:
        return
    assert (a / b) * b == a


@given(scalars)
def test_conjugation_is_involutive_and_multiplicative(a):
    assert a.conj().conj() == a
    assert (a * a.conj()).im == 0


def test_parse_and_format_round_trip():
    assert parse_rat("3/7") == Fraction(3, 7)
    assert parse_rat("-5") == Fraction(-5)
    assert parse_rat(" 4/6 ") == Fraction(2, 3)
    assert format_rat(Fraction(2, 3)) == "2/3"
    # explicit denominator even for integers, so artifacts are uniform
    assert format_rat(Fraction(5)) == "5/1"
    assert format_rat(Fraction(0)) == "0/1"
    assert format_rat(Fraction(-1, 4)) == "-1/4"
    with pytest.raises(ValueError):
        parse_rat("1.5")
    with pytest.raises(ValueError, match="exact rational literal"):
        parse_rat("1/0")


@pytest.mark.parametrize("value", [1, None, 0.5, [1], True])
def test_parse_rat_rejects_a_non_string(value):
    # JSON readers pass whatever a document holds
    with pytest.raises(ValueError, match="not an exact rational literal"):
        parse_rat(value)


def test_real_values_hash_like_equal_rationals():
    assert QI(3) == 3 and hash(QI(3)) == hash(3)
    assert {3: "x"}.get(QI(3)) == "x"
    assert {QI(-7): "y"}.get(-7) == "y"
    assert hash(QI(0)) == hash(0) and {0: "z"}[QI(0)] == "z"
    half = Fraction(-5, 2)
    assert QI(half) == half and hash(QI(half)) == hash(half)
    assert {half: "h"}.get(QI(half)) == "h"
    # a Fraction with denominator 1 and its int are one key
    assert {Fraction(4): "f"}.get(QI(4)) == "f"
    # non-real values: equal however they were built, so one key
    a = QI(Fraction(2, 4), 3)
    b = QI(Fraction(1, 2), Fraction(6, 2))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert QI(0, 1) != 1 and QI(1, 1) != 1


# --- the integer-triple QI against an oracle on (Fraction, Fraction) pairs --

small_rats = st.fractions(min_value=-40, max_value=40, max_denominator=12)
high_rats = st.builds(
    lambda sign, p, q: Fraction(sign * p, q), st.sampled_from((1, -1)),
    st.integers(10 ** 6, 2 * 10 ** 6), st.integers(10 ** 6, 2 * 10 ** 6))
oracle_rats = st.one_of(small_rats, high_rats, st.integers(-9, 9))
pairs = st.tuples(oracle_rats, oracle_rats).map(
    lambda t: (Fraction(t[0]), Fraction(t[1])))
plain = st.one_of(st.integers(-10 ** 6, 10 ** 6), small_rats, high_rats)


def o_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def o_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def o_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def o_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def o_pow(x, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = o_mul(out, x)
    return o_div((Fraction(1), Fraction(0)), out) if k < 0 else out


def o_str(x):
    re = f"{x[0].numerator}/{x[0].denominator}"
    if x[1] == 0:
        return re
    return f"{re}+{x[1].numerator}/{x[1].denominator}i"


def as_pair(v):
    """Check the canonical triple of a QI and read it back as a pair."""
    assert isinstance(v, QI)
    a, b, d = v.triple
    assert all(type(t) is int for t in (a, b, d))
    assert d > 0 and gcd(a, b, d) == 1
    return (Fraction(a, d), Fraction(b, d))


def test_fast_paths_give_canonical_triples():
    sixth = QI(Fraction(1, 6), Fraction(1, 6))
    # equal denominators that reduce: 1/6 + 1/6 = 1/3
    assert (QI(Fraction(1, 6)) + QI(Fraction(1, 6))).triple == (1, 0, 3)
    assert (sixth + QI(Fraction(1, 6), Fraction(-1, 6))).triple == (1, 0, 3)
    assert (sixth - sixth).triple == (0, 0, 1)
    # a Gaussian-integer addend, on either side
    assert (sixth + QI(1, 1)).triple == (7, 7, 6)
    assert (QI(2, -1) + sixth).triple == (13, -5, 6)
    # real times real, Gaussian integers, and int scalars sharing a factor
    assert (QI(Fraction(2, 3)) * QI(Fraction(9, 4))).triple == (3, 0, 2)
    assert (QI(1, 2) * QI(3, -1)).triple == (5, 5, 1)
    assert (sixth * 4).triple == (2, 2, 3)
    assert (sixth * 6).triple == (1, 1, 1)
    assert (sixth * -3).triple == (-1, -1, 2)
    # division by a negative real and by a non-real
    assert (sixth / QI(Fraction(-1, 3))).triple == (-1, -1, 2)
    assert (QI(1, 1) / QI(1, -1)).triple == (0, 1, 1)
    assert (sixth / 1) is sixth


@given(pairs, pairs)
def test_field_operations_match_pair_oracle(x, y):
    qx, qy = QI(*x), QI(*y)
    assert as_pair(qx) == x and as_pair(qy) == y
    assert as_pair(qx + qy) == o_add(x, y)
    assert as_pair(qx - qy) == o_sub(x, y)
    assert as_pair(qx * qy) == o_mul(x, y)
    assert as_pair(-qx) == (-x[0], -x[1])
    assert as_pair(qx.conj()) == (x[0], -x[1])
    if y != (0, 0):
        assert as_pair(qx / qy) == o_div(x, y)
    else:
        with pytest.raises(ZeroDivisionError):
            qx / qy
    assert (qx == qy) == (x == y)
    assert (qx != qy) == (x != y)
    assert str(qx) == o_str(x)
    assert bool(qx) == (x != (0, 0))
    assert (qx.re, qx.im) == x


@given(pairs, plain)
def test_mixed_operands_on_both_sides_match_pair_oracle(x, r):
    qx, o = QI(*x), (Fraction(r), Fraction(0))
    assert as_pair(qx + r) == as_pair(r + qx) == o_add(x, o)
    assert as_pair(qx - r) == o_sub(x, o)
    assert as_pair(r - qx) == o_sub(o, x)
    assert as_pair(qx * r) == as_pair(r * qx) == o_mul(x, o)
    if r != 0:
        assert as_pair(qx / r) == o_div(x, o)
    if x != (0, 0):
        assert as_pair(r / qx) == o_div(o, x)
    assert (qx == r) == (r == qx) == (x == o)
    assert as_pair(QI(r)) == o and QI(r) == r and hash(QI(r)) == hash(r)
    assert str(QI(r)) == o_str(o)


@given(pairs, st.integers(-4, 4))
def test_powers_match_pair_oracle(x, k):
    qx = QI(*x)
    if x == (0, 0) and k < 0:
        with pytest.raises(ZeroDivisionError):
            qx ** k
        return
    assert as_pair(qx ** k) == o_pow(x, k)


@given(pairs, pairs)
def test_equal_values_have_equal_triples_and_hashes(x, y):
    # the same value reached along two routes of arithmetic
    qx, qy = QI(*x), QI(*y)
    s = (qx + qy) - qy
    assert s == qx and s.triple == qx.triple and hash(s) == hash(qx)
    if y != (0, 0):
        t = (qx * qy) / qy
        assert t.triple == qx.triple and hash(t) == hash(qx)
