"""The weight-conjugation identity for the second-order conserved operator,
checked as one cleared-denominator polynomial equation per polynomial."""

from contextlib import nullcontext
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from b2dunkl import weighted
from b2dunkl.operators import apply_named
from b2dunkl.poly import MPoly
from b2dunkl.scalars import QI
from b2dunkl.weighted import verify_weighted_conjugation
from weighted_oracle import lhs_minus_rhs

Z = MPoly.var("z")
ZB = MPoly.var("zb")
K0 = MPoly.var("k0")
K1 = MPoly.var("k1")
EVEN = Z ** 2 - ZB ** 2
ODD = Z ** 2 + ZB ** 2


def _holds_through_degree_three():
    return all(verify_weighted_conjugation(Z ** a * ZB ** (d - a))
               for d in range(4) for a in range(d + 1))


def test_weight_potential_frozen_value():
    # D d log h = a, and D^2 (d_z d_zb h) / h = 4 z zb (k0 (1 - k0) O^2
    # - k1 (1 - k1) E^2) with E = z^2 - zb^2, O = z^2 + zb^2, by hand
    weight = weighted._weight()
    assert weight.a_z == 2 * Z * (K0 * ODD + K1 * EVEN)
    assert weight.a_zb == 2 * ZB * (K1 * EVEN - K0 * ODD)
    assert weight.v == 4 * Z * ZB * (K0 * (1 - K0) * ODD ** 2
                                     - K1 * (1 - K1) * EVEN ** 2)


# faults injected into the module: the Hcal operator in place of the Dunkl
# Laplacian, and reflections that leave their input alone
FAULTS = {
    "wrong-operator": ("apply_named",
                       lambda name, p, params: apply_named("Hcal", p, params)),
    "missing-reflections": ("act", lambda g, p: p),
}


def test_conjugation_identity_rejects_wrong_operator(monkeypatch):
    monkeypatch.setattr(weighted, *FAULTS["wrong-operator"])
    assert not _holds_through_degree_three()


def test_conjugation_identity_rejects_missing_reflections(monkeypatch):
    monkeypatch.setattr(weighted, *FAULTS["missing-reflections"])
    assert not _holds_through_degree_three()


@st.composite
def coordinate_polys(draw):
    """Degree <= 5 in z, zb with Gaussian-rational coefficients."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.integers(0, 5))
        b = draw(st.integers(0, 5 - a))
        terms[(a, b)] = QI(draw(st.fractions(-9, 9, max_denominator=6)),
                           draw(st.fractions(-9, 9, max_denominator=6)))
    return MPoly(("z", "zb"), terms)


@pytest.mark.parametrize("fault", [None, *FAULTS])
@given(coordinate_polys())
@settings(max_examples=15, deadline=None)
def test_precombined_residual_equals_term_by_term_oracle(fault, p):
    # the coefficients combined at import against both sides built term by
    # term; under a fault the residual is in general nonzero, and must
    # still agree
    with (mock.patch.object(weighted, *FAULTS[fault]) if fault
          else nullcontext()):
        assert weighted._residual(p) == lhs_minus_rhs(p)


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


def test_conjugation_identity_linearity_probe():
    p = 3 * Z * Z * ZB - Q(5, 7) * ZB + 2
    assert verify_weighted_conjugation(p)
