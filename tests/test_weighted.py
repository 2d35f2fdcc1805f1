"""Weighted-space calculus: reduction, derivatives, reflections, and the
conjugation identity for the second-order conserved operator."""

from fractions import Fraction as Q

import pytest

from b2dunkl.group import ALL_ELEMENTS, act, ell, reflection, rotation
from b2dunkl.params import DEFAULT_PARAMS, Params
from b2dunkl.poly import MPoly
from b2dunkl.scalars import QI
from b2dunkl.weighted import WeightedElem, verify_weighted_conjugation

Z = MPoly.var("z")
ZB = MPoly.var("zb")
K0 = MPoly.var("k0")
K1 = MPoly.var("k1")


def test_construction_reduces_and_validates():
    # a numerator divisible by a mirror line sheds that denominator power
    e = WeightedElem(0, ell(1) * (Z + 3 * ZB), (0, 2, 0, 0))
    assert e.den == (0, 1, 0, 0)
    assert e.num == Z + 3 * ZB
    assert WeightedElem(1, MPoly.zero(), (1, 1, 0, 0)) == WeightedElem(0, 0)
    with pytest.raises(ValueError):
        WeightedElem(2, Z)
    with pytest.raises(ValueError):
        WeightedElem(0, Z, (1, -1, 0, 0))
    with pytest.raises(AttributeError):
        e.den = (0, 0, 0, 0)


def test_mirror_multiply_then_divide_is_identity():
    probe = WeightedElem(1, Z * Z * ZB + 3, (1, 0, 0, 2))
    for j in range(4):
        assert probe.times(ell(j)).div_ell(j) == probe


def test_equality_cross_multiplies():
    a = WeightedElem(0, Z + ZB, (0, 0, 0, 0))
    b = WeightedElem(0, (Z + ZB) * ell(2), (0, 0, 1, 0))
    assert a == b
    assert a != WeightedElem(1, Z + ZB)
    assert WeightedElem(0, ell(0), (0, 0, 1, 0)) != a
    # different weight powers never coincide except at zero
    assert WeightedElem(1, 0) == WeightedElem(-1, 0)


def test_addition_requires_matching_weight_power():
    a = WeightedElem(1, Z, (1, 0, 0, 0))
    b = WeightedElem(1, ZB, (0, 0, 1, 0))
    s = a + b
    assert s == WeightedElem(1, Z * ell(2) + ZB * ell(0), (1, 0, 1, 0))
    assert (s - a) == b
    with pytest.raises(ValueError):
        a + WeightedElem(-1, Z)
    assert a + WeightedElem(0, 0) == a


def test_weight_derivative_frozen_value():
    d = WeightedElem(1, 1).diff("z")
    want_num = 2 * K0 * Z * (ell(1) * ell(3)) + 2 * K1 * Z * (ell(0) * ell(2))
    assert d == WeightedElem(1, want_num, (1, 1, 1, 1))
    assert d.den == (1, 1, 1, 1)
    # inverse weight flips the sign of the logarithmic term
    dinv = WeightedElem(-1, 1).diff("z")
    assert dinv == WeightedElem(-1, -want_num, (1, 1, 1, 1))


def test_plain_denominator_derivative():
    # d/dz of 1/l0 is -1/l0^2 and d/dzb of 1/l2 is +i^2/l2^2 = ... -(-1)
    d = WeightedElem(0, 1, (1, 0, 0, 0)).diff("z")
    assert d == WeightedElem(0, -1, (2, 0, 0, 0))
    d2 = WeightedElem(0, 1, (0, 0, 1, 0)).diff("zb")
    assert d2 == WeightedElem(0, QI.i_power(2), (0, 0, 2, 0))


def test_mixed_partials_commute():
    for e in (WeightedElem(1, Z * Z * ZB + 3),
              WeightedElem(0, Z, (1, 1, 0, 0)),
              WeightedElem(-1, ZB * ZB, (0, 0, 0, 1))):
        assert e.diff("z").diff("zb") == e.diff("zb").diff("z")


def test_derivative_matches_product_rule():
    # d(l0 * e) = e + l0 * d(e) since dl0/dz = 1
    e = WeightedElem(1, Z + 2, (0, 1, 0, 0))
    lhs = e.times(ell(0)).diff("z")
    rhs = e + e.diff("z").times(ell(0))
    assert lhs == rhs


def test_reflections_permute_mirror_lines():
    one_over_l1 = WeightedElem(0, 1, (0, 1, 0, 0))
    assert one_over_l1.reflect(reflection(0)) == \
        WeightedElem(0, MPoly.const(QI(0, 1)), (0, 0, 0, 1))
    assert one_over_l1.reflect(rotation(2)) == \
        WeightedElem(0, -1, (0, 1, 0, 0))
    # the action is consistent with acting on the line as a numerator
    for g in ALL_ELEMENTS:
        for j in range(4):
            as_num = WeightedElem(0, act(g, ell(j)))
            inverted = WeightedElem(0, 1, tuple(
                1 if k == j else 0 for k in range(4))).reflect(g)
            assert as_num.times(inverted) == WeightedElem(0, 1)


def test_reflection_respects_group_composition():
    probe = WeightedElem(1, Z * ZB + 5, (1, 0, 2, 1))
    from b2dunkl.group import mul
    for g in ALL_ELEMENTS:
        for h in ALL_ELEMENTS:
            assert probe.reflect(h).reflect(g) == probe.reflect(mul(g, h))


def test_conjugation_identity_low_degree():
    assert verify_weighted_conjugation(MPoly.const(1))
    assert verify_weighted_conjugation(Z * Z)
    assert verify_weighted_conjugation(Z * ZB)
    assert verify_weighted_conjugation(ZB ** 3)


def test_conjugation_identity_all_monomials_degree_six():
    for d in range(7):
        for a in range(d + 1):
            p = MPoly(("z", "zb"), {(a, d - a): 1})
            assert verify_weighted_conjugation(p), (a, d - a)


def test_conjugation_identity_numeric_params():
    pr = DEFAULT_PARAMS
    for d in range(5):
        for a in range(d + 1):
            p = MPoly(("z", "zb"), {(a, d - a): 1})
            assert verify_weighted_conjugation(p, pr), (a, d - a)


def test_conjugation_identity_linearity_probe():
    p = 3 * Z * Z * ZB - Q(5, 7) * ZB + 2
    assert verify_weighted_conjugation(p)
