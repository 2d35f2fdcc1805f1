"""Dihedral symmetry group of the square acting on complex coordinates.

Oracle: the 2x2 matrix representation on the coordinate pair. Composition of
group elements must match matrix multiplication, and the polynomial action
must be a homomorphism for the same composition order.
"""

from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from b2dunkl.group import (
    ALL_ELEMENTS, IDENTITY, act, central_element_terms, ell, elem_name, inv,
    mul, parse_elem, reflection, rotation, transform_pair,
)
from b2dunkl.operators import apply_named
from b2dunkl.params import Params
from b2dunkl.poly import MPoly
from b2dunkl.scalars import QI

Z = MPoly.var("z")
ZB = MPoly.var("zb")
U = MPoly.var("u")
K0 = MPoly.var("k0")
K1 = MPoly.var("k1")


def matrix_of(g):
    """Coordinate map of g on the column (z, zb)."""
    ik = QI.i_power(g.k)
    imk = QI.i_power(-g.k)
    if g.refl:
        return ((QI(0), ik), (imk, QI(0)))
    return ((ik, QI(0)), (QI(0), imk))


def matmul(a, b):
    return tuple(
        tuple(sum((a[i][l] * b[l][j] for l in range(2)), QI(0))
              for j in range(2))
        for i in range(2)
    )


def test_group_has_eight_distinct_elements():
    assert len(set(ALL_ELEMENTS)) == 8
    assert IDENTITY == rotation(0)
    assert rotation(5) == rotation(1)
    assert reflection(-1) == reflection(3)


def test_composition_matches_matrix_oracle():
    # mul(a, b) means "apply a, then b", so matrices compose as M(b) M(a)
    for a in ALL_ELEMENTS:
        for b in ALL_ELEMENTS:
            assert matrix_of(mul(a, b)) == matmul(matrix_of(b), matrix_of(a))


def test_inverses():
    for g in ALL_ELEMENTS:
        assert mul(g, inv(g)) == IDENTITY
        assert mul(inv(g), g) == IDENTITY
    assert inv(rotation(1)) == rotation(3)
    assert inv(reflection(2)) == reflection(2)


def test_reflection_conjugation_relations():
    for k in range(4):
        for j in range(4):
            assert mul(mul(reflection(k), reflection(j)),
                       reflection(k)) == reflection(2 * k - j)
            assert mul(mul(inv(rotation(k)), reflection(j)),
                       rotation(k)) == reflection(j + 2 * k)


def test_action_frozen_examples():
    assert act(reflection(0), Z) == ZB
    assert act(reflection(1), Z) == QI(0, 1) * ZB
    assert act(rotation(1), Z ** 2) == -(Z ** 2)
    assert act(rotation(2), Z) == -Z
    for g in ALL_ELEMENTS:
        assert act(g, Z * ZB) == Z * ZB
    # only the coordinate pair moves; spectator variables stay put
    assert act(reflection(1), U * Z) == QI(0, 1) * U * ZB
    assert act(rotation(1), K0 * K1) == K0 * K1


polys = st.builds(
    lambda ts: MPoly(("z", "zb", "k0"), ts),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)),
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
        max_size=5,
    ),
)
elems = st.sampled_from(ALL_ELEMENTS)


@given(elems, elems, polys)
@settings(max_examples=80)
def test_action_is_a_homomorphism(g, h, p):
    assert act(g, act(h, p)) == act(mul(g, h), p)


def char_value(r, g):
    """The four linear characters, indexed 0..3."""
    if r == 0:
        return 1
    if r == 3:
        return -1 if g.refl else 1
    sign = -1 if g.k % 2 else 1
    return -sign if r == 2 and g.refl else sign


def test_characters_table_and_multiplicativity():
    for k in range(4):
        assert char_value(0, reflection(k)) == 1
        assert char_value(1, reflection(k)) == (-1) ** k
        assert char_value(2, reflection(k)) == (-1) ** (k + 1)
        assert char_value(3, reflection(k)) == -1
        assert char_value(1, rotation(k)) == (-1) ** k
        assert char_value(3, rotation(k)) == 1
    # each character is the action on one relative invariant
    invariants = (MPoly.const(1), Z ** 2 + ZB ** 2, Z ** 2 - ZB ** 2,
                  Z ** 4 - ZB ** 4)
    for r, p in enumerate(invariants):
        for a in ALL_ELEMENTS:
            assert act(a, p) == char_value(r, a) * p, (r, a)
            for b in ALL_ELEMENTS:
                assert (char_value(r, mul(a, b))
                        == char_value(r, a) * char_value(r, b))


def test_reflection_lines_transform_into_each_other():
    for j in range(4):
        assert ell(j) == Z - QI.i_power(j) * ZB
    for k in range(4):
        for j in range(4):
            assert act(reflection(k), ell(j)) == \
                -QI.i_power(j - k) * ell((2 * k - j) % 4)
            assert act(rotation(k), ell(j)) == \
                QI.i_power(k) * ell((j - 2 * k) % 4)


def test_transform_pair_matches_action_convention():
    A, B = transform_pair(rotation(1), (U, MPoly.var("ub")))
    assert A == QI(0, 1) * U and B == QI(0, -1) * MPoly.var("ub")
    A, B = transform_pair(reflection(2), (U, MPoly.var("ub")))
    assert A == -MPoly.var("ub") and B == -U


def test_element_names_round_trip():
    for g in ALL_ELEMENTS:
        assert parse_elem(elem_name(g)) == g
    assert elem_name(rotation(0)) == "rot0"
    assert elem_name(reflection(3)) == "ref3"


def test_central_element_symbolic_eigenvalues():
    sym = Params.symbolic()
    gamma = 2 * K0 + 2 * K1
    assert apply_named("R", MPoly.const(1), sym) == (1 + gamma) ** 2
    assert apply_named("R", Z, sym) == (1 - 4 * K0 ** 2 - 4 * K1 ** 2) * Z
    terms = dict(central_element_terms(sym))
    assert terms[rotation(0)] == MPoly.const(1)
    assert terms[reflection(2)] == 2 * K0


@given(elems, polys)
@settings(max_examples=40)
def test_central_element_commutes_with_group(g, p):
    pr = Params.numeric("3/7", "5/11", "2/3")
    assert act(g, apply_named("R", p, pr)) == \
        apply_named("R", act(g, p), pr)
