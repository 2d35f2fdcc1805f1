"""Prover states against hand-computed values, then the identity catalogue.

The first half pins the action of the generators on explicit states; the
second half runs every catalogued identity fully symbolically and checks
the expected verdicts, including the one deliberate refutation.
"""

import time
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from b2dunkl import kernel
from b2dunkl.group import (ALL_ELEMENTS, IDENTITY, act, inv, mul,
                           reflection, rotation)
from b2dunkl.kernel import (
    IDENTITIES, IDENTITY_NAMES, KernelState, ProofResult, get_identity,
    k_apply, k_initial, prove, prove_named,
)
from b2dunkl.operators import (Commutator, Compose, Dunkl, GroupOp, Mul,
                                apply, named)
from b2dunkl.params import Params
from b2dunkl.poly import LIMIT, UNIVERSE, MPoly, unpack
from b2dunkl.scalars import QI
from division_oracle import reflection_quotients
import first_order_oracle

Z = MPoly.var("z")
ZB = MPoly.var("zb")
U = MPoly.var("u")
UB = MPoly.var("ub")
K0 = MPoly.var("k0")
# every monomial of total degree <= 2
LOW_MONOMIALS = [Z ** a * ZB ** (d - a)
                 for d in range(3) for a in range(d + 1)]


def test_seed_state_and_serialization():
    seed = k_initial()
    assert seed.parts == {IDENTITY: MPoly.const(1)}
    assert not seed.is_zero()
    # zero amplitudes are dropped on construction
    assert KernelState({IDENTITY: MPoly.zero()}).is_zero()
    assert (seed - seed).is_zero()

    mixed = KernelState({reflection(2): 3 * Z * U - 1,
                         rotation(1): MPoly.const(Q(5, 7))})
    assert mixed.to_json_dict() == {"entries": [
        {"element": "rot1", "amplitude": MPoly.const(Q(5, 7)).to_json_dict()},
        {"element": "ref2", "amplitude": (3 * Z * U - 1).to_json_dict()},
    ]}
    with pytest.raises(AttributeError):
        seed.parts = {}


def test_state_is_unhashable():
    # equality compares polynomial amplitudes, which do not hash
    state = KernelState({reflection(1): Z * U + 2})
    with pytest.raises(TypeError, match="unhashable"):
        hash(state)
    with pytest.raises(TypeError):
        {state: 1}


def test_conjugate_generator_on_seed():
    state = k_apply(named("Tb"), k_initial())
    assert state == KernelState({IDENTITY: Q(1, 2) * U})
    # and the plain generator picks the conjugate dual variable
    assert k_apply(named("T"), k_initial()) == \
        KernelState({IDENTITY: Q(1, 2) * UB})


def test_generator_on_even_difference():
    start = KernelState({IDENTITY: Z * Z - ZB * ZB})
    state = k_apply(named("T"), start)
    assert state == KernelState({
        IDENTITY: Q(1, 2) * (Z * Z - ZB * ZB) * UB + 2 * Z,
        reflection(0): 2 * K0 * (Z + ZB),
        reflection(2): 2 * K0 * (Z - ZB),
    })


def test_group_ops_relabel_and_compose():
    assert k_apply(GroupOp(reflection(0)), k_initial()) == \
        KernelState({reflection(0): MPoly.const(1)})
    probe = KernelState({IDENTITY: Z + 2 * U, reflection(1): ZB * ZB - 3})
    for g in ALL_ELEMENTS:
        for h in ALL_ELEMENTS:
            two = k_apply(GroupOp(g), k_apply(GroupOp(h), probe))
            one = k_apply(GroupOp(mul(g, h)), probe)
            assert two == one


def test_dual_polynomial_eigen_relation():
    # on amplitudes free of z, zb both generators act by multiplication
    for q in (MPoly.const(1), U, 3 * U * U * UB + U - 7, UB ** 3):
        state = KernelState({IDENTITY: q})
        assert k_apply(named("Tb"), state) == \
            KernelState({IDENTITY: Q(1, 2) * U * q})
        assert k_apply(named("T"), state) == \
            KernelState({IDENTITY: Q(1, 2) * UB * q})


def test_catalogue_verdicts():
    assert set(IDENTITY_NAMES) == set(IDENTITIES)
    for name in IDENTITY_NAMES:
        res = prove_named(name)
        assert res.proven == IDENTITIES[name].provable, name
        assert res.name == name


def test_prover_agrees_with_direct_application():
    # the prover's verdict against lhs - rhs applied to polynomials directly,
    # at one generic numeric triple, on every monomial of degree <= 2
    pr = Params.numeric("7/5", "2/9", "5/7")
    for name in IDENTITY_NAMES:
        ident = IDENTITIES[name]
        nonzero = [str(m) for m in LOW_MONOMIALS
                   if not (apply(ident.lhs, m, pr)
                           - apply(ident.rhs, m, pr)).is_zero()]
        assert (not nonzero) == prove_named(name).proven, (name, nonzero)
        assert (not nonzero) == ident.provable, (name, nonzero)


couplings = st.fractions(min_value=0, max_value=3, max_denominator=12)


@st.composite
def numeric_triples(draw):
    k0, k1 = draw(couplings), draw(couplings)
    assume(k0 + k1 not in (0, 1))
    w = draw(st.fractions(min_value=Q(1, 12), max_value=3,
                          max_denominator=12))
    return Params(k0, k1, w)


@st.composite
def cubic_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        a = draw(st.integers(0, 3))
        b = draw(st.integers(0, 3 - a))
        terms[(a, b)] = QI(draw(st.fractions(-9, 9, max_denominator=6)),
                           draw(st.fractions(-9, 9, max_denominator=6)))
    return MPoly(("z", "zb"), terms)


@given(cubic_polys(), numeric_triples())
@settings(max_examples=8, deadline=None)
def test_direct_application_agrees_with_catalogue_verdicts(p, pr):
    # every provable identity (the prover's verdicts are pinned by
    # test_catalogue_verdicts) annihilates a drawn polynomial of degree <= 3
    # at a drawn numeric triple; the refuted one is nonzero on the degree <= 2
    # monomials there
    for name in IDENTITY_NAMES:
        ident = IDENTITIES[name]
        if ident.provable:
            residual = apply(ident.lhs, p, pr) - apply(ident.rhs, p, pr)
            assert residual.is_zero(), name
        else:
            assert any(not (apply(ident.lhs, m, pr)
                            - apply(ident.rhs, m, pr)).is_zero()
                       for m in LOW_MONOMIALS), name


def moved_dual(w):
    """The dual point (u, ub) moved by the inverse of w, from the action
    on the coordinates z, zb renamed to u, ub."""
    return tuple(MPoly(("u", "ub"), {unpack(exp)[:2]: c for exp, c in
                                     act(inv(w), coord).terms.items()})
                 for coord in (Z, ZB))


def direct_first_order(var, state, params):
    """The first-order step on whole amplitudes: diff + 1/2 factor p at w,
    and each reflection quotient of p at the reflected copy."""
    out = KernelState()
    for w, p in state.parts.items():
        uw, ubw = moved_dual(w)
        factor = uw if var == "zb" else ubw
        out = out + KernelState({w: p.diff(var) + Q(1, 2) * (factor * p)})
        for j, quot in reflection_quotients(var, p, params):
            out = out + KernelState({mul(reflection(j), w): quot})
    return out


def test_half_dual_closed_form_matches_the_group_action():
    # the zb step takes u, the z step ub, in every copy
    assert moved_dual(IDENTITY) == (U, UB)
    for w in ALL_ELEMENTS:
        uw, ubw = moved_dual(w)
        for var, factor in (("zb", uw), ("z", ubw)):
            slot, half = kernel._half_dual(var, w)
            assert 2 * half * MPoly.var(UNIVERSE[slot]) == factor, (var, w)


@st.composite
def amplitudes(draw):
    """Degree <= 5 in z, zb with Gaussian-rational coefficients, each term
    times a monomial in the spectators u, ub, k0, k1, w."""
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        a = draw(st.integers(0, 5))
        b = draw(st.integers(0, 5 - a))
        rest = tuple(draw(st.integers(0, 2)) for _ in UNIVERSE[2:])
        terms[(a, b) + rest] = QI(draw(st.fractions(-9, 9, max_denominator=6)),
                                  draw(st.fractions(-9, 9, max_denominator=6)))
    return MPoly(UNIVERSE, terms)


SYMBOLIC = Params.symbolic()
states = st.dictionaries(st.sampled_from(ALL_ELEMENTS), amplitudes(),
                         min_size=1, max_size=8)


@given(states)
@settings(max_examples=40, deadline=None)
def test_memoised_first_order_matches_whole_amplitude_quotients(parts):
    state = KernelState(parts)
    for var in ("z", "zb"):
        assert k_apply(Dunkl(var), state) == \
            direct_first_order(var, state, SYMBOLIC)


@given(states)
@settings(max_examples=40, deadline=None)
def test_flat_first_order_equals_the_per_copy_step(parts):
    # one pass over the state's term dict against one term dict per copy;
    # the parts view gives back the copies the state was built from
    state = KernelState(parts)
    assert state.parts == {g: p for g, p in parts.items() if not p.is_zero()}
    assert KernelState(state.parts) == state
    for var in ("z", "zb"):
        assert kernel._first_order(var, state, SYMBOLIC) == \
            first_order_oracle.first_order(var, state)


def test_first_order_past_the_limit_raises():
    # the z step of a reflected copy raises u, the zb step raises ub
    state = KernelState({reflection(1): Z * MPoly(("u",), {(LIMIT - 1,): 1})})
    with pytest.raises(ValueError, match="exponent too large"):
        k_apply(Dunkl("z"), state)
    assert k_apply(Dunkl("zb"), state) == \
        first_order_oracle.first_order("zb", state)


@given(states)
@settings(max_examples=25, deadline=None)
def test_registry_generators_match_whole_amplitude_quotients(parts):
    # named T and Tb go through the image memo: twice on one state (the
    # second a hit on the same result), once on an equal but distinct state
    state, twin = KernelState(parts), KernelState(dict(parts))
    with kernel.image_scope() as memo:
        for name, var in (("T", "z"), ("Tb", "zb")):
            expected = direct_first_order(var, state, SYMBOLIC)
            first = k_apply(named(name), state)
            assert first == expected
            assert k_apply(named(name), state) is first
            assert k_apply(named(name), twin) == expected
    assert memo == {}


def test_numeric_params_are_refused_at_top_level():
    # the prover decides identities with the couplings symbolic; a numeric
    # triple raises rather than return a state that looks valid
    pr = Params.numeric(Q(3, 7), Q(5, 11), Q(2, 3))
    start = KernelState({IDENTITY: Z ** 3 - Z * ZB * ZB})
    for op in (named("Hcal"), Dunkl("z"), GroupOp(reflection(1))):
        with pytest.raises(ValueError, match="symbolic"):
            k_apply(op, start, pr)
    with kernel.image_scope() as memo:
        with pytest.raises(ValueError, match="symbolic"):
            k_apply(named("T"), start, pr)
    assert memo == {}


def _count_first_order(monkeypatch):
    calls = []
    inner = kernel._first_order

    def counted(var, state, params):
        calls.append(var)
        return inner(var, state, params)

    monkeypatch.setattr(kernel, "_first_order", counted)
    return calls


def test_catalogue_first_order_steps(monkeypatch):
    # in one image scope each registry operator is applied once per
    # distinct state across the whole catalogue; each proof in its own
    # scope shares images only between its two sides, and each proof from
    # scratch takes 275 steps in all
    calls = _count_first_order(monkeypatch)
    with kernel.image_scope():
        for name in IDENTITY_NAMES:
            prove_named(name)
    assert 0 < len(calls) <= 95
    del calls[:]
    for name in IDENTITY_NAMES:
        prove_named(name)
    assert 95 < len(calls) < 275
    assert len(calls) == 245


def test_image_memo_is_emptied_when_its_scope_closes():
    # the memo never outlives the call that filled it, so a process that
    # proves many identities does not accumulate images; every scope, nested
    # or not, yields the one memo
    prove_named("angular-quartic")
    with kernel.image_scope() as memo:
        assert memo == {}
    with kernel.image_scope() as again:
        assert again is memo
        prove_named("angular-quartic")
        with kernel.image_scope() as inner:
            assert inner is memo
            k_apply(named("K"), k_initial())
        held = len(memo)
        assert held > 0
        prove_named("quartic-hamiltonian")
        assert len(memo) > held
    assert memo == {}


def test_shared_images_give_cold_proofs():
    # every proof on a memo warmed by the others equals the same proof in
    # a scope of its own, whichever order the catalogue is proven in
    cold = {name: prove_named(name) for name in IDENTITY_NAMES}
    for order in (IDENTITY_NAMES, IDENTITY_NAMES[::-1]):
        with kernel.image_scope():
            for name in order:
                res = prove_named(name)
                assert res.status == cold[name].status, name
                assert res.residual == cold[name].residual, name
                assert res == cold[name], name


def test_repeated_proof_divides_nothing(monkeypatch):
    # a proof on warm memos divides nothing; test_cli checks cold fills
    prove_named("laplacian-coordinate")

    def no_division(self, divisor):
        raise AssertionError("division outside a memo fill")

    monkeypatch.setattr(MPoly, "divide_linear", no_division)
    assert prove_named("laplacian-coordinate").proven


def test_square_sum_identity_is_fast():
    t0 = time.monotonic()
    res = prove_named("component-square-sum")
    assert res.proven
    assert time.monotonic() - t0 < 60


def test_refutation_carries_nonzero_witness():
    res = prove_named("angular-quartic")
    assert not res.proven
    assert res.status == "REFUTED"
    assert not res.residual.is_zero()
    blob = res.to_json_dict()
    assert blob["status"] == "REFUTED"
    assert blob["witness"] == res.residual.to_json_dict()
    # a proven result serializes without a witness
    ok = prove_named("component-sum-02")
    assert ok.to_json_dict() == {"status": "PROVEN",
                                 "identity": "component-sum-02"}


def test_prove_defaults_to_zero_rhs():
    good = prove(Commutator(Mul(Z * ZB), named("T")), Mul(-ZB))
    assert good.proven
    bad = prove(named("T"))
    assert not bad.proven
    assert IDENTITY in bad.residual.parts


def test_unknown_identity_is_rejected():
    with pytest.raises(KeyError):
        get_identity("no-such-identity")
    assert get_identity("quartic-hamiltonian").provable
