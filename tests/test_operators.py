"""First-order operators against hand-computed values, then the algebraic
identities that tie the named second- and fourth-order operators together."""

from fractions import Fraction as Q

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from b2dunkl import operators
from b2dunkl.group import (ALL_ELEMENTS, act, central_element_terms,
                           elem_name, ell, inv, reflection)
from b2dunkl.kernel import KernelState, k_apply, k_initial, prove
from b2dunkl.operators import (
    Commutator, Compose, Dunkl, GroupOp, Mul, Sum, apply, apply_dunkl,
    apply_named, expr_from_json, named,
)
from b2dunkl.params import DEFAULT_PARAMS, Params
from b2dunkl.poly import MPoly
from b2dunkl.scalars import QI
from division_oracle import direct_dunkl, reflection_quotients

Z = MPoly.var("z")
ZB = MPoly.var("zb")
K0 = MPoly.var("k0")
K1 = MPoly.var("k1")
SYM = Params.symbolic()
GAMMA = 2 * K0 + 2 * K1


def monomial_span(max_degree):
    """All monomials z^a zb^b of total degree <= max_degree."""
    return [Z ** a * ZB ** (d - a)
            for d in range(max_degree + 1) for a in range(d, -1, -1)]


def central_element_apply(p, params):
    """The central group-algebra element applied term by term."""
    return sum((coeff * act(g, p)
                for g, coeff in central_element_terms(params)), MPoly.zero())


def T(p, params=SYM):
    return apply_named("T", p, params)


def Tb(p, params=SYM):
    return apply_named("Tb", p, params)


def test_first_order_frozen_values_symbolic():
    one = MPoly.const(1)
    assert T(one).is_zero()
    assert Tb(one).is_zero()
    assert T(Z) == (1 + GAMMA) * one
    assert T(ZB).is_zero()
    assert Tb(ZB) == (1 + GAMMA) * one
    assert Tb(Z).is_zero()
    assert T(Z ** 2) == (2 + GAMMA) * Z
    assert Tb(Z ** 2) == -2 * (K0 - K1) * ZB
    assert T(ZB ** 2) == -2 * (K0 - K1) * Z
    assert Tb(ZB ** 2) == (2 + GAMMA) * ZB
    assert T(Z * ZB) == ZB
    assert Tb(Z * ZB) == Z


def test_first_order_numeric_matches_symbolic_instantiation():
    p = Z ** 3 * ZB + 2 * ZB ** 2
    for params in (DEFAULT_PARAMS, Params.numeric("7/5", "2/9", "5/7")):
        assert T(p, params) == params.instantiate(T(p))
        assert Tb(p, params) == params.instantiate(Tb(p))


gaussian_ints = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(
    any).map(lambda t: QI(*t))
couplings = st.fractions(min_value=0, max_value=3, max_denominator=12)


@st.composite
def numeric_triples(draw):
    k0, k1 = draw(couplings), draw(couplings)
    assume(k0 + k1 not in (0, 1))
    w = draw(st.fractions(min_value=Q(1, 12), max_value=3,
                          max_denominator=12))
    return Params(k0, k1, w)


@st.composite
def polys(draw, spectators=()):
    """Degree <= 6 in z, zb with nonzero Gaussian-integer coefficients,
    times powers of the spectator variables."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        a = draw(st.integers(0, 6))
        b = draw(st.integers(0, 6 - a))
        rest = tuple(draw(st.integers(0, 2)) for _ in spectators)
        terms[(a, b) + rest] = draw(gaussian_ints)
    return MPoly(("z", "zb") + spectators, terms)


@given(polys(), numeric_triples())
@settings(max_examples=60, deadline=None)
def test_memoised_dunkl_matches_direct_quotient(p, params):
    for var in ("z", "zb"):
        assert apply_dunkl(var, p, params) == direct_dunkl(var, p, params)


def test_numeric_dunkl_leaves_prover_memo_empty():
    # the per-monomial image fills from the closed-form quotients, not from
    # the prover's memo, so numeric couplings never enter that memo
    for memo in (operators._monomial_image, operators.monomial_quotients):
        memo.cache_clear()
    p = Z ** 3 * ZB + 2 * ZB ** 2 + 1
    assert apply_dunkl("z", p, DEFAULT_PARAMS) == \
        direct_dunkl("z", p, DEFAULT_PARAMS)
    assert operators._monomial_image.cache_info().currsize == 3
    assert operators.monomial_quotients.cache_info().currsize == 0


@given(st.sampled_from([("u",), ("w",), ("k1",)]).flatmap(polys),
       st.one_of(numeric_triples(), st.just(Params.symbolic())))
@settings(max_examples=30, deadline=None)
def test_spectator_polynomials_through_memo_equal_direct_quotient(p, params):
    for var in ("z", "zb"):
        assert apply_dunkl(var, p, params) == direct_dunkl(var, p, params)


@given(st.sampled_from([(), ("u",), ("u", "ub")]).flatmap(polys),
       st.fractions(min_value=Q(1, 12), max_value=3, max_denominator=12))
@settings(max_examples=30, deadline=None)
def test_zero_couplings_give_ordinary_derivatives(p, w):
    # at k0 = k1 = 0 every reflection quotient drops out: the Dunkl
    # operators are the partial derivatives, and Hcal is the oscillator
    # w^2 z zb - 4 d_z d_zb; neither call asks for generic params
    pr = Params.numeric(0, 0, w)
    for var in ("z", "zb"):
        assert apply_dunkl(var, p, pr) == p.diff(var)
    assert apply(named("Hcal"), p, pr) == \
        w * w * Z * ZB * p - 4 * p.diff("z").diff("zb")


@pytest.mark.parametrize("params", [
    DEFAULT_PARAMS,
    Params.numeric("9973/10007", "7919/8081", "4999/5003"),
    Params.numeric("0", "1/2", "1"),     # the k0 lines divide to zero
    SYM,
], ids=["default", "high-height", "k0-zero", "symbolic"])
def test_closed_form_quotients_equal_division_oracle(params):
    # both memos, filled cold from the geometric sums, against reflecting,
    # subtracting and dividing; the prover's parameter-free quotients are
    # expanded as kappa_j times the sum of i^r z^x zb^y over their (x, y, r)
    # terms, and zero quotients carry no terms on either side
    for memo in (operators._monomial_image, operators.monomial_quotients):
        memo.cache_clear()
    for var in ("z", "zb"):
        for a in range(13):
            for b in range(13):
                mono = Z ** a * ZB ** b
                want = {j: q.terms for j, q in
                        reflection_quotients(var, mono, params) if q.terms}
                got = {}
                for j, terms in enumerate(
                        operators.monomial_quotients(var, a, b)):
                    quot = params.kappa(j) * MPoly(
                        ("z", "zb"),
                        [((x, y), QI.i_power(r)) for x, y, r in terms])
                    if quot.terms:
                        got[j] = quot.terms
                assert got == want, (var, a, b)
                image = operators._monomial_image(var, a, b, params)
                assert dict(image) == direct_dunkl(var, mono, params).terms


def test_first_order_lowers_degree():
    p = Z ** 4 + Z * ZB ** 3
    assert T(p, DEFAULT_PARAMS).total_degree() == 3
    assert Tb(p, DEFAULT_PARAMS).total_degree() == 3


def test_dunkl_operators_commute():
    for p in monomial_span(6):
        pq = T(Tb(p, DEFAULT_PARAMS), DEFAULT_PARAMS)
        qp = Tb(T(p, DEFAULT_PARAMS), DEFAULT_PARAMS)
        assert pq == qp
    # and as a symbolic polynomial identity on a smaller span
    for p in monomial_span(4):
        assert T(Tb(p)) == Tb(T(p))


def test_laplacian_frozen_values():
    assert apply_named("DeltaKappa", Z * ZB, SYM) == 4 * (1 + GAMMA)
    assert apply_named("DeltaKappa", Z ** 2, SYM).is_zero()
    assert apply_named("DeltaKappa", Z ** 2 + ZB ** 2, SYM).is_zero()
    assert apply_named("DeltaKappa", Z ** 2 - ZB ** 2, SYM).is_zero()


def test_angular_momentum_frozen_values():
    assert apply_named("J", Z, SYM) == (1 + GAMMA) * Z
    assert apply_named("J", ZB, SYM) == -(1 + GAMMA) * ZB
    assert apply_named("J", Z * ZB, SYM).is_zero()


def test_oscillator_lowest_energies():
    w = MPoly.var("w")
    # constant: energy 2w(gamma+1); degree one: 2w(gamma+2)
    assert apply_named("Hhat", MPoly.const(1), SYM) == 2 * w * (1 + GAMMA)
    assert apply_named("Hhat", Z, SYM) == 2 * w * (2 + GAMMA) * Z
    assert apply_named("Hhat", ZB, SYM) == 2 * w * (2 + GAMMA) * ZB


def test_component_zero_on_degree_one_is_pure_cross_term():
    # (Hhat_0 - E_1/2) z = -w (1 + 2 k1) zb, checked by hand
    w = MPoly.var("w")
    e1_half = w * (2 + GAMMA)
    res = apply_named("Hhat_0", Z, SYM) - e1_half * Z
    assert res == -w * (1 + 2 * K1) * ZB


def test_component_sums_reassemble_full_operators():
    for p in monomial_span(6):
        full = apply_named("Hhat", p, DEFAULT_PARAMS)
        assert apply_named("Hhat_0", p, DEFAULT_PARAMS) + \
            apply_named("Hhat_2", p, DEFAULT_PARAMS) == full
        assert apply_named("Hhat_1", p, DEFAULT_PARAMS) + \
            apply_named("Hhat_3", p, DEFAULT_PARAMS) == full
        bare = apply_named("Hcal", p, DEFAULT_PARAMS)
        assert apply_named("H_0", p, DEFAULT_PARAMS) + \
            apply_named("H_2", p, DEFAULT_PARAMS) == bare
        assert apply_named("H_1", p, DEFAULT_PARAMS) + \
            apply_named("H_3", p, DEFAULT_PARAMS) == bare


def test_components_are_half_anticommutators_of_ladder_pairs():
    for j in range(4):
        lo = named(f"Lower_{j}")
        hi = named(f"Raise_{j}")
        phase = QI.i_power(j) * Q(1, 2)
        for p in monomial_span(5):
            anti = (apply(lo, apply(hi, p, DEFAULT_PARAMS), DEFAULT_PARAMS)
                    + apply(hi, apply(lo, p, DEFAULT_PARAMS), DEFAULT_PARAMS))
            assert phase * anti == apply_named(f"Hhat_{j}", p,
                                               DEFAULT_PARAMS)


def test_group_conjugation_permutes_components():
    span = monomial_span(5)
    for g in ALL_ELEMENTS:
        for j in range(4):
            jj = (2 * g.k - j) % 4 if g.refl else (j + 2 * g.k) % 4
            for p in span:
                lhs = act(inv(g),
                          apply_named(f"Hhat_{j}", act(g, p),
                                      DEFAULT_PARAMS))
                assert lhs == apply_named(f"Hhat_{jj}", p, DEFAULT_PARAMS)


def test_central_operator_matches_group_algebra_and_commutes():
    # R is central for the group algebra and commutes with the conserved
    # quantities, though not with the first-order operators themselves
    pr = DEFAULT_PARAMS
    for p in monomial_span(4):
        rp = apply_named("R", p, pr)
        assert rp == central_element_apply(p, pr)
        for name in ("Hhat", "J2"):
            assert apply_named(name, rp, pr) == \
                apply_named("R", apply_named(name, p, pr), pr)


def test_square_sum_collapses_to_invariants():
    # sum of squared components = 3/2 Hhat^2 - 2 w^2 J^2 - 2 w^2 R
    pr = DEFAULT_PARAMS
    w2 = pr.w ** 2

    def sq(name, p):
        return apply_named(name, apply_named(name, p, pr), pr)

    for p in monomial_span(4):
        lhs = MPoly.zero()
        for j in range(4):
            lhs = lhs + sq(f"Hhat_{j}", p)
        rhs = Q(3, 2) * sq("Hhat", p) - 2 * w2 * apply_named("J2", p, pr) \
            - 2 * w2 * apply_named("R", p, pr)
        assert lhs == rhs


def test_signature_invariant_closed_form():
    # Khat = -1/2 Hhat^2 + 2 w^2 J^2 + 2 w^2 R + 4 (Hhat_0 - Hhat/2)^2
    pr = DEFAULT_PARAMS
    w2 = pr.w ** 2
    for p in monomial_span(4):
        h = apply_named("Hhat", p, pr)
        hh = apply_named("Hhat", h, pr)
        half_diff = apply_named("Hhat_0", p, pr) - Q(1, 2) * h
        half_diff = (apply_named("Hhat_0", half_diff, pr)
                     - Q(1, 2) * apply_named("Hhat", half_diff, pr))
        rhs = -Q(1, 2) * hh + 2 * w2 * apply_named("J2", p, pr) \
            + 2 * w2 * apply_named("R", p, pr) + 4 * half_diff
        assert apply_named("Khat", p, pr) == rhs


def signature(components):
    """The paper's form of the quartic invariant: sum_j (-1)^j X_j^2."""
    minus = Mul(MPoly.const(-1))
    return Sum(tuple(Compose((x, x)) if j % 2 == 0 else Compose((minus, x, x))
                     for j, x in enumerate(components)))


PAPER_FORMS = {
    "K": signature([named(f"H_{j}") for j in range(4)]),
    "Khat": signature([named(f"Hhat_{j}") for j in range(4)]),
}


@pytest.mark.parametrize("name", sorted(PAPER_FORMS))
def test_two_square_form_proven_equal_to_signature_form(name):
    assert prove(PAPER_FORMS[name], named(name)).proven


@given(polys(), numeric_triples())
@settings(max_examples=30, deadline=None)
def test_two_square_form_matches_signature_form_numerically(p, params):
    for name, paper in PAPER_FORMS.items():
        assert apply(named(name), p, params) == apply(paper, p, params), name


def test_two_square_form_matches_signature_form_on_prover_states():
    seeds = [k_initial()] + [KernelState({reflection(j): MPoly.const(1)})
                             for j in range(4)]
    seeds.append(k_apply(named("J2"), k_initial()))
    for state in seeds:
        for name, paper in PAPER_FORMS.items():
            assert k_apply(named(name), state) == k_apply(paper, state), \
                (name, state)


# The hatted operators written out by hand, as the oracle for `_hat`: the
# Gaussian conjugates of Hcal, H_j and K expanded with the commutators of
# T, Tb with z, zb moved into symmetric products.
W = MPoly.var("w")
DT, DTB = operators.T, operators.TB


def scaled(c, *parts):
    return Compose((Mul(MPoly.const(c)),) + parts)


def hand_hhat():
    return Sum((
        scaled(-4, DT, DTB),
        Compose((Mul(W), Sum((
            Compose((Mul(Z), DT)),
            Compose((DT, Mul(Z))),
            Compose((Mul(ZB), DTB)),
            Compose((DTB, Mul(ZB))),
        )))),
    ))


def hand_hhat_component(j):
    lower = Sum((DT, scaled(-QI.i_power(-j), DTB)))
    return Sum((
        scaled(QI.i_power(j), DT, DT),
        scaled(-2, DT, DTB),
        scaled(QI.i_power(-j), DTB, DTB),
        scaled(Q(1, 2), Compose((Mul(W * ell(j)), lower))),
        scaled(Q(1, 2), Compose((lower, Mul(W * ell(j))))),
    ))


def hand_quartic_hat():
    # Ahat^2 + Bhat^2 with Ahat = 2T^2 - w (zb T + T zb)
    def half(d, x):
        return Sum((scaled(2, d, d), Compose((Mul(-W * x), d)),
                    Compose((Mul(-W), d, Mul(x)))))
    a, b = half(DT, ZB), half(DTB, Z)
    return Sum((Compose((a, a)), Compose((b, b))))


HAND_FORMS = {"Hhat": hand_hhat(), "Khat": hand_quartic_hat(),
              **{f"Hhat_{j}": hand_hhat_component(j) for j in range(4)}}


@pytest.mark.parametrize("name", sorted(HAND_FORMS))
def test_hatted_operator_proven_equal_to_hand_form(name):
    assert prove(named(name), HAND_FORMS[name]).proven


# What lowers degree in Khat and Hhat_0, by hand: with S = T zb + zb T,
# Khat = 4T^4 - 2w (T^2 S + S T^2) + (the same in Tb and Sb = Tb z + z Tb)
# plus its degree-preserving part, and Hhat_0 = (T - Tb)^2 plus its part.
# Each term here holds more Dunkl steps than multiplications by z, zb.
def lowering_quartic_hat():
    def lowering(d, x):
        s = Sum((Compose((d, Mul(x))), Compose((Mul(x), d))))
        return Sum((scaled(4, d, d, d, d), Compose((Mul(-2 * W), d, d, s)),
                    Compose((Mul(-2 * W), s, d, d))))
    return Sum((lowering(DT, ZB), lowering(DTB, Z)))


LOWER_0 = Sum((DT, scaled(-1, DTB)))
LOWERING_PARTS = {"Khat": lowering_quartic_hat(),
                  "Hhat_0": Compose((LOWER_0, LOWER_0))}


@pytest.mark.parametrize("name", sorted(operators.DEGREE_PRESERVING))
def test_degree_preserving_part_completes_the_lowering_terms(name):
    whole = Sum((LOWERING_PARTS[name], operators.DEGREE_PRESERVING[name]))
    assert prove(named(name), whole).proven


@given(polys(("u",)), st.one_of(numeric_triples(), st.just(SYM)))
@example(Z ** 3 * ZB ** 2 * MPoly.var("u") + 1, SYM)
@settings(max_examples=25, deadline=None)
def test_hatted_operators_match_hand_forms(p, params):
    for name, hand in HAND_FORMS.items():
        assert apply(named(name), p, params) == apply(hand, p, params), name


def test_hat_rejects_commutator():
    # a commutator passed through unchanged would keep T, Tb unconjugated
    with pytest.raises(TypeError):
        operators._hat(Commutator(named("T"), named("Tb")))


def test_commutator_node():
    c = Commutator(named("T"), named("Tb"))
    for p in monomial_span(3):
        assert apply(c, p, DEFAULT_PARAMS).is_zero()


def expr_to_json(expr):
    """The JSON form of an operator tree, which `expr_from_json` reads."""
    if isinstance(expr, Dunkl):
        return {"op": "dunkl", "var": expr.var}
    if isinstance(expr, Mul):
        return {"op": "mul", "poly": expr.poly.to_json_dict()}
    if isinstance(expr, GroupOp):
        return {"op": "group", "element": elem_name(expr.elem)}
    if isinstance(expr, Commutator):
        return {"op": "commutator", "a": expr_to_json(expr.a),
                "b": expr_to_json(expr.b)}
    assert isinstance(expr, (Sum, Compose)), expr
    kind = "sum" if isinstance(expr, Sum) else "compose"
    return {"op": kind, "parts": [expr_to_json(e) for e in expr.parts]}


def test_expr_json_round_trip():
    for name in ("T", "Hhat_1", "Khat", "R", "Raise_2"):
        e = named(name)
        assert expr_from_json(expr_to_json(e)) == e
    c = Commutator(named("J2"), named("Khat"))
    assert expr_from_json(expr_to_json(c)) == c
    assert expr_from_json({"op": "named", "name": "Hcal"}) == named("Hcal")


def test_unknown_operator_name():
    with pytest.raises(KeyError):
        named("nope")
