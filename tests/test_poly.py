"""Sparse exact multivariate polynomials: ring ops, division, serialization."""

import json
from fractions import Fraction as Q
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from b2dunkl.poly import LIMIT, UNIVERSE, MPoly, ExactDivisionError, unpack
from b2dunkl.scalars import QI

Z = MPoly.var("z")
ZB = MPoly.var("zb")
K0 = MPoly.var("k0")


def test_constructor_canonicalizes():
    # zero coefficients are dropped, unused variables leave vars, and
    # exponents span the whole universe
    p = MPoly(("z", "zb"), {(2, 0): 1, (0, 1): 0})
    assert p.vars == ("z",)
    assert {unpack(e): c for e, c in p.terms.items()} == \
        {(2, 0, 0, 0, 0, 0, 0): QI(1)}
    assert MPoly(("z",), {}) == MPoly.zero()
    assert MPoly.const(0).is_zero()


def test_constructor_orders_vars_canonically():
    p = MPoly(("zb", "z"), {(1, 2): 5})   # means zb^1 z^2
    q = MPoly(("z", "zb"), {(2, 1): 5})
    assert p == q


def test_unknown_variable_rejected():
    with pytest.raises(ValueError):
        MPoly.var("x")
    with pytest.raises(ValueError, match="unknown variable 'x'"):
        MPoly(("x",), {(1,): 1})
    with pytest.raises(ValueError, match="unknown variable 'x'"):
        Z.coefficient({"x": 1})


def test_repeated_variable_and_arity_mismatch_rejected():
    with pytest.raises(ValueError, match="repeated variable"):
        MPoly(("z", "z"), {(1, 1): 1})
    with pytest.raises(ValueError, match="arity mismatch"):
        MPoly(("z", "zb"), {(1,): 1})


def test_zero_term_with_wrong_arity_rejected():
    # a zero coefficient is dropped only after its exponent is checked
    with pytest.raises(ValueError, match="arity mismatch"):
        MPoly(("z",), {(1, 2, 3): 0})


def test_repeated_exponents_add_up():
    # as a mapping or as (exponent, coefficient) pairs, and from JSON
    assert MPoly(("z", "zb"), [((1, 0), 1), ((1, 0), 2), ([0, 1], 3)]) \
        == 3 * Z + 3 * ZB
    assert MPoly.from_json_dict({"vars": ["z"], "terms": [
        {"exp": [1], "re": "1", "im": "0"},
        {"exp": [1], "re": "2", "im": "0"}]}) == 3 * Z
    # the constructor checks the arity before the exponents' type
    with pytest.raises(ValueError, match="arity mismatch"):
        MPoly.from_json_dict({"vars": ["z"], "terms": [
            {"exp": [1, True], "re": "1", "im": "0"}]})


def test_polynomials_refuse_assignment():
    with pytest.raises(AttributeError, match="immutable"):
        Z.terms = {}


def test_negative_or_non_integer_exponents_rejected():
    for exp in ((-1,), (Q(1, 2),), (1.0,), ("2",)):
        with pytest.raises(ValueError, match="nonnegative integers"):
            MPoly(("z",), {exp: 1})
        # malformed even where the coefficient is zero
        with pytest.raises(ValueError, match="nonnegative integers"):
            MPoly(("z",), {exp: 0})
    with pytest.raises(ValueError, match="nonnegative integers"):
        MPoly.from_json_dict({"vars": ["z", "zb"], "terms": [
            {"exp": [2, -1], "re": "1/1", "im": "0/1"}]})
    with pytest.raises(ValueError, match="negative power"):
        Z ** -1


def test_frozen_products():
    assert (Z + ZB) * (Z - ZB) == Z**2 - ZB**2
    assert (Z + ZB) ** 2 == Z**2 + 2 * Z * ZB + ZB**2
    p = (1 - 2 * K0) * Z + QI(0, 1) * ZB
    assert p.coefficient({"z": 1}) == QI(1)
    assert p.coefficient({"z": 1, "k0": 1}) == QI(-2)
    assert p.coefficient({"zb": 1}) == QI(0, 1)
    assert p.coefficient({"zb": 2}) == QI(0)


def test_scalar_coercion_both_sides():
    assert 2 * Z == Z * 2 == Z + Z
    assert Q(1, 2) * (Z + Z) == Z
    assert (Z + 3) - 3 == Z
    assert 1 + MPoly.zero() == MPoly.const(1)


def test_degrees():
    p = Z**3 * ZB + K0
    assert p.total_degree() == 4
    assert MPoly.zero().total_degree() == -1


def test_diff():
    p = Z**3 * ZB + 2 * ZB
    assert p.diff("z") == 3 * Z**2 * ZB
    assert p.diff("zb") == Z**3 + MPoly.const(2)
    assert p.diff("w").is_zero()
    assert MPoly.const(5).diff("z").is_zero()


def test_subst_scalars_and_polys():
    p = Z**2 + K0 * ZB
    assert p.subst({"k0": Q(3, 7)}) == Z**2 + Q(3, 7) * ZB
    # only exact scalars substitute
    with pytest.raises(TypeError):
        p.subst({"z": ZB, "zb": Z, "k0": 1})
    with pytest.raises(TypeError):
        (Z**2).subst({"z": MPoly.var("u") + 1})


def test_exact_division_by_reflection_lines():
    assert (Z**2 - ZB**2).divide_linear(Z - ZB) == Z + ZB
    # z^2 + zb^2 = (z - i zb)(z + i zb)
    d = Z - QI(0, 1) * ZB
    assert (Z**2 + ZB**2).divide_linear(d) == Z + QI(0, 1) * ZB
    # a scaled line
    assert (Z**3 * ZB - Z**2 * ZB**2).divide_linear(2 * Z - 2 * ZB) == \
        Q(1, 2) * Z**2 * ZB


def test_division_with_parameter_coefficients():
    q = K0 * Z**2 + ZB**2
    d = Z + 3 * ZB
    assert (q * d).divide_linear(d) == q


def test_inexact_division_raises():
    with pytest.raises(ExactDivisionError):
        (Z**2 + 1).divide_linear(Z - ZB)
    with pytest.raises(ExactDivisionError):
        (Z + ZB).divide_linear(2 * Z - 2 * ZB)
    with pytest.raises(ValueError):
        Z.divide_linear(Z**2 - ZB)     # not a linear form
    with pytest.raises(ZeroDivisionError):
        Z.divide_linear(MPoly.zero())
    # dividend without the pivot variable at all
    with pytest.raises(ExactDivisionError):
        MPoly.const(5).divide_linear(Z - ZB)
    with pytest.raises(ExactDivisionError):
        ZB.divide_linear(Z - 3 * ZB)


def test_one_term_divisor_is_rejected():
    # every caller divides by a mirror line z - i^j zb; a monomial divisor
    # is not a line and raises, even where it would divide exactly
    for d in (2 * Z, ZB, QI(0, 2) * K0):
        with pytest.raises(ValueError, match="two terms"):
            (Z**3 * ZB * K0).divide_linear(d)


def test_json_round_trip_is_byte_stable():
    p = QI(Q(1, 3), Q(-2, 7)) * Z**2 * ZB + 5 * ZB**3
    obj = p.to_json_dict()
    assert MPoly.from_json_dict(obj) == p
    s1 = json.dumps(obj, sort_keys=False)
    s2 = json.dumps(MPoly.from_json_dict(obj).to_json_dict(), sort_keys=False)
    assert s1 == s2
    # graded order: same total degree, higher power of z first; exact
    # rationals carry explicit denominators
    assert obj["terms"][0]["exp"] == [2, 1]
    assert obj["terms"][0]["im"] == "-2/7"
    assert obj["terms"][1]["re"] == "5/1"


def test_json_lists_used_variables_in_universe_order():
    p = MPoly(("w", "z", "u"), {(1, 2, 0): Q(1, 2), (0, 1, 3): QI(0, -1)})
    text = json.dumps(p.to_json_dict(), sort_keys=False)
    assert text == (
        '{"vars": ["z", "u", "w"], "terms": ['
        '{"exp": [1, 3, 0], "re": "0/1", "im": "-1/1"}, '
        '{"exp": [2, 0, 1], "re": "1/2", "im": "0/1"}]}')
    assert MPoly.from_json_dict(json.loads(text)) == p
    assert str(p) == "(0/1+-1/1i)*z*u^3 + (1/2)*z^2*w"
    assert repr(p) == ("MPoly(('z', 'u', 'w'), {(2, 0, 1): QI(Fraction(1, 2), "
                       "Fraction(0, 1)), (1, 3, 0): QI(Fraction(0, 1), "
                       "Fraction(-1, 1))})")


coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def small_polys(draw, vars=("z", "zb")):
    n = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n):
        exp = tuple(draw(st.integers(min_value=0, max_value=4))
                    for _ in vars)
        terms[exp] = draw(coeffs)
    return MPoly(vars, terms)


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60)
def test_ring_axioms_sample(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a + MPoly.zero() == a


@given(small_polys(), st.integers(min_value=0, max_value=3))
@settings(max_examples=40)
def test_multiply_then_divide_by_line_is_identity(q, j):
    d = Z - QI.i_power(j) * ZB
    assert (q * d).divide_linear(d) == q


@given(small_polys())
@settings(max_examples=40)
def test_json_round_trip(p):
    assert MPoly.from_json_dict(p.to_json_dict()) == p


@given(small_polys(vars=("z", "zb", "k0")))
@settings(max_examples=40)
def test_diff_is_a_derivation(p):
    q = Z**2 + K0 * ZB
    lhs = (p * q).diff("z")
    rhs = p.diff("z") * q + p * q.diff("z")
    assert lhs == rhs


# --- packed exponents -----------------------------------------------------

exponent_tuples = st.tuples(*[st.integers(0, LIMIT - 1) for _ in UNIVERSE])


@given(exponent_tuples, exponent_tuples)
def test_packed_exponents_round_trip_and_keep_tuple_order(e, f):
    (packed_e,), (packed_f,) = (MPoly(UNIVERSE, {x: 1}).terms for x in (e, f))
    assert unpack(packed_e) == e and unpack(packed_f) == f
    assert (packed_e < packed_f) == (e < f)


def test_exponent_limit():
    # the constructor takes 2^31 - 1 and refuses 2^31, also from JSON
    big = MPoly(("zb",), {(LIMIT - 1,): 1})
    assert big.coefficient({"zb": LIMIT - 1}) == 1
    assert big.coefficient({"zb": LIMIT}) == 0
    with pytest.raises(ValueError, match="exponent too large"):
        MPoly(("z", "w"), {(1, LIMIT): 1})
    with pytest.raises(ValueError, match="exponent too large"):
        MPoly.from_json_dict({"vars": ["z"], "terms": [
            {"exp": [LIMIT], "re": "1", "im": "0"}]})
    # a product that would reach 2^31 raises instead of carrying into z
    with pytest.raises(ValueError, match="exponent too large"):
        big * ZB
    with pytest.raises(ValueError, match="exponent too large"):
        Z ** LIMIT
    with pytest.raises(ValueError, match="exponent too large"):
        (Z * big).divide_linear(Z - ZB)
    assert (big * Z).coefficient({"z": 1, "zb": LIMIT - 1}) == 1


# --- ring-operation results against the validating constructor ----------

U = MPoly.var("u")
W = MPoly.var("w")
gauss = st.builds(QI, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def mixed_polys(draw):
    """Polynomials over a drawn subset of variables, in a drawn order, with
    coefficients that often cancel under + and -."""
    names = draw(st.lists(st.sampled_from(("z", "zb", "u", "w")),
                          unique=True, max_size=3))
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        exp = tuple(draw(st.integers(min_value=0, max_value=2))
                    for _ in names)
        terms[exp] = draw(gauss)
    return MPoly(names, terms)


def assert_canonical(r):
    # every key is a packed exponent over the whole universe: unpacked and
    # packed again by the constructor, it comes back unchanged
    rebuilt = MPoly(UNIVERSE, {unpack(e): c for e, c in r.terms.items()})
    assert r.vars == rebuilt.vars and r.terms == rebuilt.terms
    assert all(type(c) is QI and c for c in r.terms.values())


def test_cancellation_removes_variables():
    assert ((Z + U) - U).vars == ("z",)
    assert (Z * U - U * Z).vars == () and (Z * U - U * Z).is_zero()
    assert ((Z + ZB) * (Z - ZB) + ZB**2).vars == ("z",)
    assert (Z * U + W).diff("z").vars == ("u",)
    assert (((Z - ZB) * U + W * Z) - W * Z).divide_linear(Z - ZB).vars == \
        ("u",)
    for r in ((Z + U) - U, (Z * U + W).diff("z"), (U + 1) * (U - 1) - U * U):
        assert_canonical(r)


@given(mixed_polys(), mixed_polys(), mixed_polys())
@settings(max_examples=80)
def test_ring_results_equal_validated_rebuild(p, q, r):
    for res in (p + q, p - q, p * q, (p + q) - q, p * (q + r) - p * r,
                p + (-p), -p):
        assert_canonical(res)
    assert (p + q) - q == p
    for name in ("z", "zb", "u", "w", "k0"):
        assert_canonical(p.diff(name))
        assert_canonical((p * q).diff(name))


@given(mixed_polys(), mixed_polys(), st.integers(min_value=0, max_value=3),
       st.sampled_from(("zb", "u", "w")))
@settings(max_examples=60)
def test_divide_linear_results_equal_validated_rebuild(p, q, j, other):
    lines = (Z - QI.i_power(j) * MPoly.var(other), 3 * U - QI(1, 2) * W,
             QI(0, 2) * MPoly.var(other) - MPoly.var("ub"))
    for d in lines:
        for num in (p * d, (p + q) * d - q * d):
            res = num.divide_linear(d)
            assert_canonical(res)
            assert res == p


def general_product(p, q):
    """The term-by-term product, with no constant-factor shortcut."""
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            exp = tuple(map(add, unpack(ea), unpack(eb)))
            out[exp] = out.get(exp, QI(0)) + ca * cb
    return MPoly(UNIVERSE, out)


gauss_rationals = st.one_of(st.just(QI(0)), st.builds(QI, coeffs, coeffs))


@given(mixed_polys(), gauss_rationals)
@settings(max_examples=80)
def test_constant_factor_matches_general_product(p, c):
    # p has spectators u, w besides z, zb; c may be zero
    k = MPoly.const(c)
    expected = general_product(p, k)
    for res in (p * k, k * p, p * c, c * p, k * k * p):
        assert_canonical(res)
    assert p * k == k * p == p * c == c * p == expected
    assert k * k * p == general_product(general_product(k, k), p)
