"""The hand-written value classes: operator-tree nodes, group elements,
basis labels, parameter triples, identities, proof results, prover states
and reports.

Each keeps the behaviour a frozen dataclass had: positional constructors
with their validation, equality that is sensitive to class, hashes that
agree with equality (records holding a list or a dict do not hash),
lexicographic order on group elements and basis labels, and a
constructor-style repr.
"""

from fractions import Fraction as Q

import pytest

from b2dunkl.basis import BasisLabel, enumerate_basis
from b2dunkl.group import (ALL_ELEMENTS, IDENTITY, GroupElem, elem_name,
                           reflection)
from b2dunkl.kernel import (Identity, KernelState, ProofResult, ZERO_OP,
                            k_initial)
from b2dunkl.operators import (Commutator, Compose, Dunkl, GroupOp, Mul, Sum,
                               named)
from b2dunkl.params import DEFAULT_PARAMS, Params
from b2dunkl.poly import MPoly
from b2dunkl.record import Record
from b2dunkl.spectra import CoeffTable
from b2dunkl.verify import Case, SuiteReport

Z = MPoly.var("z")
T = Dunkl("z")


def test_equality_is_sensitive_to_class():
    parts = (T, Mul(Z))
    assert Sum(parts) != Compose(parts)
    assert GroupElem(False, 1) != (False, 1)
    assert BasisLabel(1, 0) != (1, 0)
    assert DEFAULT_PARAMS != (Q(3, 7), Q(5, 11), Q(2, 3))
    assert Case("c", True) != Identity("c", T, T, True)


def test_hash_agrees_with_equality():
    # two Mul nodes built apart from equal polynomials share one memo entry
    a, b = Mul(Z * Z + 1), Mul(1 + Z * Z)
    assert a is not b and a == b and hash(a) == hash(b)
    assert Mul(Z) != Mul(2 * Z)
    pairs = [
        (Sum((a, T)), Sum((b, T))),
        (Commutator(a, T), Commutator(b, T)),
        (GroupOp(GroupElem(True, 1)), GroupOp(GroupElem(True, 5))),
        (GroupElem(False, 7), GroupElem(False, 3)),
        (BasisLabel(2, 1), BasisLabel(2, 1)),
        (Params.numeric("1/2", "1/3", "2"), Params(Q(1, 2), Q(1, 3), Q(2))),
        (Case("c", True), Case("c", True, "")),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
        assert len({x: 0, y: 1}) == 1
    assert Params.symbolic() == Params(None, None, None)
    assert named("K") == named("K") and named("K") != named("Khat")


def test_group_elements_and_labels_sort_lexicographically():
    names = [elem_name(g) for g in sorted(reversed(ALL_ELEMENTS))]
    assert names == ["rot0", "rot1", "rot2", "rot3",
                     "ref0", "ref1", "ref2", "ref3"]
    labels = sorted(reversed(enumerate_basis(4)))
    assert [(lb.a, lb.b) for lb in labels] == [
        (0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]
    lo, hi = BasisLabel(1, 3), BasisLabel(2, 0)
    assert lo < hi and lo <= hi and hi > lo and hi >= lo
    assert lo <= BasisLabel(1, 3) and lo >= BasisLabel(1, 3)
    assert not (hi < lo or hi <= lo or lo > hi or lo >= hi)


@pytest.mark.parametrize("compare", [
    lambda x, y: x < y, lambda x, y: x <= y,
    lambda x, y: x > y, lambda x, y: x >= y])
def test_order_across_classes_is_refused(compare):
    with pytest.raises(TypeError):
        compare(GroupElem(False, 1), (False, 1))
    with pytest.raises(TypeError):
        compare(BasisLabel(1, 0), GroupElem(True, 0))


def test_frozen_records_refuse_assignment():
    frozen = [(T, "var"), (Mul(Z), "poly"),
              (GroupOp(GroupElem(False, 0)), "elem"), (Sum((T,)), "parts"),
              (Compose((T,)), "parts"), (Commutator(T, T), "a"),
              (GroupElem(False, 0), "k"), (BasisLabel(0, 0), "b"),
              (DEFAULT_PARAMS, "w"), (Identity("i", T, T, True), "lhs"),
              (ProofResult(True, k_initial()), "proven"),
              (Case("c", True), "detail")]
    for obj, field in frozen:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        DEFAULT_PARAMS._key = None


def test_reports_and_states_are_immutable_and_unhashable():
    report = SuiteReport("rho1", 1, DEFAULT_PARAMS, [Case("c", False)])
    table = CoeffTable("quartic", 0, DEFAULT_PARAMS, {})
    state = KernelState({reflection(1): Z + 1})
    for obj, field in ((report, "cases"), (table, "degree"),
                       (state, "parts")):
        assert isinstance(obj, Record)
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    assert not report.passed
    assert table == CoeffTable("quartic", 0, DEFAULT_PARAMS, {})
    assert state == KernelState({reflection(1): 1 + Z,
                                 IDENTITY: MPoly.zero()})
    assert state != KernelState({reflection(2): Z + 1})


def test_constructors_validate_and_normalise():
    with pytest.raises(ValueError):
        Dunkl("x")
    with pytest.raises(ValueError):
        BasisLabel(-1, 0)
    with pytest.raises(ValueError):
        Params(None, Q(1), None)
    assert GroupElem(True, 5).k == 1
    assert GroupElem(False, -1) == GroupElem(False, 3)
    with pytest.raises(TypeError):
        Sum()
    with pytest.raises(TypeError):
        Identity("i", T)
    assert ProofResult(True, k_initial()).name is None
    assert Case("c", True).detail == ""


def test_repr_names_the_fields_in_order():
    g = GroupElem(True, 5)
    assert repr(g) == "GroupElem(refl=True, k=1)"
    assert repr(BasisLabel(2, 1)) == "BasisLabel(a=2, b=1)"
    assert repr(Params(Q(1, 2), Q(1, 3), Q(2))) == (
        "Params(k0=Fraction(1, 2), k1=Fraction(1, 3), w=Fraction(2, 1))")
    assert repr(Params.symbolic()) == "Params(k0=None, k1=None, w=None)"
    assert repr(T) == "Dunkl(var='z')"
    assert repr(ZERO_OP) == f"Mul(poly={MPoly.zero()!r})"
    assert repr(GroupOp(g)) == f"GroupOp(elem={g!r})"
    assert repr(Sum((T,))) == "Sum(parts=(Dunkl(var='z'),))"
    assert repr(Compose((T, T))) == (
        "Compose(parts=(Dunkl(var='z'), Dunkl(var='z')))")
    assert repr(Commutator(T, Dunkl("zb"))) == (
        "Commutator(a=Dunkl(var='z'), b=Dunkl(var='zb'))")
    assert repr(Identity("i", T, T, False)) == (
        "Identity(name='i', lhs=Dunkl(var='z'), rhs=Dunkl(var='z'), "
        "provable=False)")
    state = k_initial()
    assert repr(ProofResult(False, state, "i")) == (
        f"ProofResult(proven=False, residual={state!r}, name='i')")
    assert repr(Case("c", True)) == "Case(name='c', passed=True, detail='')"
    assert repr(SuiteReport("rho1", 0, Params.symbolic(), [])) == (
        "SuiteReport(suite='rho1', max_degree=0, "
        "params=Params(k0=None, k1=None, w=None), cases=[])")
    assert repr(CoeffTable("quartic", 0, Params.symbolic(), {})) == (
        "CoeffTable(operator='quartic', degree=0, "
        "params=Params(k0=None, k1=None, w=None), entries={})")
