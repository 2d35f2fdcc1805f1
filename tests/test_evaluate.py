"""The shared tree walk of `operators.evaluate` against a direct walk.

`evaluate` instantiates each `Mul` coefficient once per parameter triple and
lets the parts of a Sum share their Dunkl results, and `apply` answers a
numeric registry call, at top level or inside a walk, from per-monomial
images.  The oracle here is the plain recursive walk: no sharing, and the
coefficient substituted on every visit.  Both must give equal results on
polynomials and on prover states.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from b2dunkl import kernel, operators
from b2dunkl.group import act, reflection
from b2dunkl.kernel import KernelState, k_apply, k_initial
from b2dunkl.operators import (OPERATOR_NAMES, Commutator, Compose, Dunkl,
                               GroupOp, Mul, Sum, apply, apply_dunkl,
                               coefficient, expr_from_json, named)
from b2dunkl.params import Params
from b2dunkl.poly import MPoly
from b2dunkl.scalars import QI
from memos import clear_memos


def direct_walk(expr, x, params, dunkl, group_act):
    """The tree walk without sharing: every Dunkl leaf applies its operator
    and every `Mul` substitutes params into its coefficient on every visit."""
    def walk(e, y):
        if isinstance(e, Dunkl):
            return dunkl(e.var, y, params)
        if isinstance(e, Mul):
            return y * params.instantiate(e.poly)
        if isinstance(e, GroupOp):
            return group_act(e.elem, y)
        if isinstance(e, Sum):
            return sum((walk(part, y) for part in e.parts), y * MPoly.zero())
        if isinstance(e, Compose):
            for part in reversed(e.parts):
                y = walk(part, y)
            return y
        if isinstance(e, Commutator):
            return walk(e.a, walk(e.b, y)) - walk(e.b, walk(e.a, y))
        raise TypeError(f"not an operator expression: {e!r}")
    return walk(expr, x)


def direct_apply(expr, p, params):
    return direct_walk(expr, p, params, apply_dunkl, act)


def direct_k_apply(expr, state, params=Params.symbolic()):
    # a leaf applied on its own opens no scope, so k_apply on a leaf is the
    # prover's first-order step or relabelling itself
    return direct_walk(expr, state, params,
                       lambda var, s, pr: k_apply(Dunkl(var), s, pr),
                       lambda g, s: k_apply(GroupOp(g), s, params))


couplings = st.fractions(min_value=0, max_value=3, max_denominator=12)


@st.composite
def numeric_triples(draw):
    k0, k1 = draw(couplings), draw(couplings)
    assume(k0 + k1 not in (0, 1))
    w = draw(st.fractions(min_value=Q(1, 12), max_value=3,
                          max_denominator=12))
    return Params(k0, k1, w)


@st.composite
def coordinate_polys(draw):
    """Degree <= 4 in z, zb with Gaussian-rational coefficients."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.integers(0, 4))
        b = draw(st.integers(0, 4 - a))
        terms[(a, b)] = QI(draw(st.fractions(-9, 9, max_denominator=6)),
                           draw(st.fractions(-9, 9, max_denominator=6)))
    return MPoly(("z", "zb"), terms)


@given(coordinate_polys(), numeric_triples())
@settings(max_examples=6, deadline=None)
def test_apply_matches_direct_walk_on_every_named_operator(p, pr):
    for name in OPERATOR_NAMES:
        assert apply(named(name), p, pr) == direct_apply(named(name), p, pr), \
            name


HIGH_HEIGHT = Params.numeric("9973/10007", "7919/8081", "4999/5003")


@st.composite
def spectator_polys(draw):
    """Degree <= 4 in z, zb, times powers of the spectators u and w."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.integers(0, 4))
        b = draw(st.integers(0, 4 - a))
        u, w = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        terms[(a, b, u, w)] = QI(draw(st.fractions(-9, 9, max_denominator=6)),
                                 draw(st.fractions(-9, 9, max_denominator=6)))
    return MPoly(("z", "zb", "u", "w"), terms)


@given(st.sampled_from(OPERATOR_NAMES), spectator_polys(),
       st.one_of(numeric_triples(), st.just(HIGH_HEIGHT)))
@settings(max_examples=40, deadline=None)
def test_image_table_matches_direct_walk(name, p, pr):
    # a numeric top-level call of a registry tree combines per-monomial
    # images; T and Tb keep their own monomial memo and get no table
    op = named(name)
    table = operators._image_table(id(op), pr)
    assert apply(op, p, pr) == direct_apply(op, p, pr), name
    if name in ("T", "Tb"):
        assert table == {}
        return
    assert {exp[:2] for exp in p.terms} <= table.keys()
    filled = dict(table)
    # apply_named and a JSON named node reach the same entry, and a
    # second application fills none
    assert expr_from_json({"op": "named", "name": name}) is op
    assert operators.apply_named(name, p, pr) == direct_apply(op, p, pr)
    assert table == filled


@given(st.sampled_from(OPERATOR_NAMES), spectator_polys())
@settings(max_examples=10, deadline=None)
def test_symbolic_params_bypass_the_image_table(name, p):
    sym = Params.symbolic()
    made = operators._image_table.cache_info().currsize
    assert apply(named(name), p, sym) == direct_apply(named(name), p, sym)
    assert operators._image_table.cache_info().currsize == made


@given(spectator_polys(), numeric_triples())
@settings(max_examples=10, deadline=None)
def test_registry_trees_inside_a_walk_answer_from_their_tables(p, pr):
    # a tree that is no registry tree walks, and its registry subtrees K
    # and Hcal answer from their tables, filled by the walk from cold memos
    clear_memos()
    k, hcal = named("K"), named("Hcal")
    op = Commutator(k, hcal)
    assert apply(op, p, pr) == direct_apply(op, p, pr)
    for tree in (k, hcal):
        table = operators._image_table(id(tree), pr)
        assert {exp[:2] for exp in p.terms} <= table.keys()


def test_k_apply_matches_direct_walk():
    reflected = KernelState({reflection(1): MPoly.const(1)})
    ops = [named("K"), named("Khat"), named("J2"),
           Commutator(named("J2"), named("K"))]
    for state in (k_initial(), reflected):
        for op in ops:
            assert k_apply(op, state) == direct_k_apply(op, state), op


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(var, x, params):
        calls.append(var)
        return inner(var, x, params)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_quartic_shares_first_order_steps(monkeypatch):
    # K = A^2 + B^2 with A = 2T^2 - 1/2 w^2 zb^2, B = 2Tb^2 - 1/2 w^2 z^2:
    # two first-order steps per application of A or B; the paper's form
    # sum_j (-1)^j H_j^2 takes 25 steps with sharing, 48 without; a call
    # outside any image scope starts from an empty memo, so every step runs,
    # and leaves the memo empty
    calls = _count_calls(monkeypatch, kernel, "_first_order")
    k_apply(named("K"), k_initial())
    assert len(calls) == 8
    with kernel.image_scope() as memo:
        assert memo == {}


def test_quartic_hat_shares_first_order_steps(monkeypatch):
    # Khat is K with T -> T - w zb/2, Tb -> Tb - w z/2: one application of
    # Ahat = 2(T - w zb/2)^2 - w^2 zb^2/2 takes two steps, as A does; the
    # paper's form takes 41
    calls = _count_calls(monkeypatch, kernel, "_first_order")
    k_apply(named("Khat"), k_initial())
    assert len(calls) == 8


def _dunkl_applications(calls, name):
    """Dunkl applications of one numeric `apply` of `name` on z^3 zb^2 from
    cold memos, whose image must equal the direct walk's."""
    p = MPoly.var("z") ** 3 * MPoly.var("zb") ** 2
    pr = Params.numeric("13/17", "19/23", "29/31")
    clear_memos()
    calls.clear()
    image = apply(named(name), p, pr)
    assert image == direct_apply(named(name), p, pr)
    return len(calls)


def test_quartic_hat_numeric_dunkl_applications(monkeypatch):
    # as many as K takes; the paper's form takes 41
    calls = _count_calls(monkeypatch, operators, "apply_dunkl")
    assert _dunkl_applications(calls, "Khat") == 8
    assert _dunkl_applications(calls, "K") == 8


def test_hatted_hamiltonians_numeric_dunkl_applications(monkeypatch):
    # each as many as its twin: Hhat and Hcal take two, Hhat_j and H_j
    # five, since their parts T Tb and Tb^2 share Tb x
    calls = _count_calls(monkeypatch, operators, "apply_dunkl")
    for hat, twin, steps in ([("Hhat", "Hcal", 2)]
                             + [(f"Hhat_{j}", f"H_{j}", 5) for j in range(4)]):
        assert _dunkl_applications(calls, hat) == steps, hat
        assert _dunkl_applications(calls, twin) == steps, twin


JSON_SUM = {"op": "sum", "parts": [
    {"op": "dunkl", "var": "z"},
    {"op": "compose", "parts": [{"op": "dunkl", "var": "z"},
                                {"op": "dunkl", "var": "z"}]}]}


def test_json_generators_share_registry_images(monkeypatch):
    # a JSON Dunkl node is the registry T, so Sum(T, T T) applies T to x
    # once and to Tx once, on polynomials and on prover states
    op = expr_from_json(JSON_SUM)
    assert op.parts[0] is named("T")
    dunkl = _count_calls(monkeypatch, operators, "apply_dunkl")
    steps = _count_calls(monkeypatch, kernel, "_first_order")
    p = MPoly.var("z") ** 3 * MPoly.var("zb") ** 2
    pr = Params.numeric("13/17", "19/23", "29/31")
    image = apply(op, p, pr)
    assert len(dunkl) == 2
    assert image == direct_apply(op, p, pr)
    state = k_apply(op, k_initial())
    assert len(steps) == 2
    assert state == direct_k_apply(op, k_initial())


def _mul_nodes(expr, seen):
    if isinstance(expr, Mul):
        seen[id(expr)] = expr
    elif isinstance(expr, (Sum, Compose)):
        for part in expr.parts:
            _mul_nodes(part, seen)
    elif isinstance(expr, Commutator):
        _mul_nodes(expr.a, seen)
        _mul_nodes(expr.b, seen)
    return seen


def test_mul_coefficient_instantiated_once_per_node(monkeypatch):
    khat = named("Khat")
    nodes = _mul_nodes(khat, {})
    pr = Params.numeric("13/17", "19/23", "29/31")
    calls = []
    instantiate = Params.instantiate

    def counted(self, p):
        calls.append(p)
        return instantiate(self, p)

    monkeypatch.setattr(Params, "instantiate", counted)
    clear_memos()
    p = MPoly.var("z") ** 2 * MPoly.var("zb")
    first = apply(khat, p, pr)
    assert 0 < len(calls) <= len(nodes)
    before = len(calls)
    again = apply(khat, p, Params.numeric("13/17", "19/23", "29/31"))
    assert len(calls) == before
    assert again == first


def test_equal_mul_nodes_share_one_coefficient_entry():
    coeff = MPoly.var("k0") * MPoly.var("z")
    a, b = Mul(coeff), Mul(MPoly.var("z") * MPoly.var("k0"))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != Mul(MPoly.var("k1") * MPoly.var("z"))
    pr = Params.numeric("1/2", "1/3", "1")
    coefficient.cache_clear()
    assert coefficient(a, pr) == Q(1, 2) * MPoly.var("z")
    assert coefficient(b, Params.numeric("1/2", "1/3", "1")) \
        is coefficient(a, pr)
    assert coefficient.cache_info().currsize == 1


def test_evaluate_rejects_a_non_expression():
    with pytest.raises(TypeError, match="not an operator expression"):
        apply("T", MPoly.var("z"), Params.numeric("13/17", "19/23", "29/31"))
