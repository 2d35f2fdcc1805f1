"""The symmetry group of the square in complex coordinates.

Eight elements: rotations ``rot k`` sending z to i^k z, and reflections
``ref k`` sending z to i^k zb.  ``mul(a, b)`` composes as "apply a, then b";
with that convention the polynomial action satisfies
``act(g, act(h, p)) == act(mul(g, h), p)``.  In closed form the composite
reflects when exactly one factor does, and turns by b.k - a.k when b
reflects and by a.k + b.k when it does not.

Also hosts the four mirror lines ``ell(j) = z - i^j zb`` whose vanishing loci
are the reflection hyperplanes, and the group-algebra coefficients of the
central element built from the couplings.
"""

from __future__ import annotations

from typing import List, Tuple

from .poly import MPoly, from_terms
from .record import Ordered
from .scalars import QI


class GroupElem(Ordered):
    __slots__ = ("refl", "k")

    def __init__(self, refl: bool, k: int):
        k %= 4
        object.__setattr__(self, "refl", refl)
        object.__setattr__(self, "k", k)
        self._keep((refl, k))


def rotation(k: int) -> GroupElem:
    return GroupElem(False, k)


def reflection(k: int) -> GroupElem:
    return GroupElem(True, k)


IDENTITY = rotation(0)
ALL_ELEMENTS: Tuple[GroupElem, ...] = tuple(
    [rotation(k) for k in range(4)] + [reflection(k) for k in range(4)]
)


def mul(a: GroupElem, b: GroupElem) -> GroupElem:
    """Composite "apply a, then b"; a reflecting b reverses a's turn."""
    return GroupElem(a.refl != b.refl, b.k - a.k if b.refl else b.k + a.k)


def inv(g: GroupElem) -> GroupElem:
    return g if g.refl else rotation(-g.k)


def elem_name(g: GroupElem) -> str:
    return f"{'ref' if g.refl else 'rot'}{g.k}"


def parse_elem(name: str) -> GroupElem:
    if not (isinstance(name, str) and len(name) == 4
            and name[:3] in ("rot", "ref") and name[3] in "0123"):
        raise ValueError(f"not a group element name: {name!r}")
    return GroupElem(name[:3] == "ref", int(name[3]))


def act(g: GroupElem, p: MPoly) -> MPoly:
    """Action on polynomials: (g.p)(x) = p(x moved by g).

    Only the coordinates z, zb (the first two exponents) transform; all
    other variables are spectators.  The map on exponents is one-to-one, so
    the image needs no merging.
    """
    if g == IDENTITY:
        return p
    out = {}
    for exp, c in p.terms.items():
        ez, ezb = exp[0], exp[1]
        nexp = (ezb, ez) + exp[2:] if g.refl else exp
        out[nexp] = QI.i_power(g.k * (ez - ezb)) * c
    return from_terms(out)


_ELL = tuple(MPoly.var("z") - QI.i_power(j) * MPoly.var("zb")
             for j in range(4))


def ell(j: int) -> MPoly:
    """Mirror line z - i^j zb."""
    return _ELL[j % 4]


def central_element_terms(params) -> List[Tuple[GroupElem, MPoly]]:
    """Group-algebra coefficients of the central coupling element.

    The element is 1 + 4(k0^2+k1^2) rot2 + 2 k0 (ref0+ref2)
    + 2 k1 (ref1+ref3) + 4 k0 k1 (rot1+rot3); it commutes with the whole
    group algebra and with both Dunkl operators.
    """
    k0, k1 = params.kappa(0), params.kappa(1)
    one = MPoly.const(1)
    return [
        (rotation(0), one),
        (rotation(1), 4 * k0 * k1 * one),
        (rotation(2), 4 * (k0 * k0 + k1 * k1) * one),
        (rotation(3), 4 * k0 * k1 * one),
        (reflection(0), 2 * k0 * one),
        (reflection(1), 2 * k1 * one),
        (reflection(2), 2 * k0 * one),
        (reflection(3), 2 * k1 * one),
    ]
