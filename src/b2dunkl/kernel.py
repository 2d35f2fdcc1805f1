"""Mechanical prover for operator identities.

States here are finite group-indexed families of polynomial amplitudes in
the coordinates z, zb and two dual variables u, ub.  Such a family stands
for a sum of amplitudes times moved copies of the joint eigenfunction of
the two first-order operators: the z-operator scales the copy attached to
a group element by half its moved dual conjugate variable, the zb-operator
by half its moved dual variable, and reflections permute the copies.  Every
named operator therefore acts on states by exact polynomial algebra, and an
identity between operator trees holds on all polynomials iff it annihilates
the seed family {identity: 1} with the couplings and the frequency kept as
variables.  The residual family of a failed identity is returned as a
witness.

A state is one term dict.  Its keys are the packed exponents of `poly`
with one more field above z, the element field, which holds the index
4 refl + k of the copy a term belongs to; `parts` splits the dict into
one amplitude per copy for witnesses and display.  Sums, differences and
multiplication by a polynomial are single passes over that dict, since a
polynomial factor leaves the element field alone.

A first-order step differentiates each amplitude, adds half the moved dual
coordinate times it, and moves its reflection quotients to the reflected
copies.  It is one pass over the state's terms into one output dict, with
a plan per (direction, element), cached on first use: the dual factor is one
monomial, so it is the packed unit of its variable times a half phase,
and each reflected copy is a base offset, its element field plus the
exponent of its coupling kappa_j.  The quotients, which are linear and
leave u, ub, k0, k1 and w alone, come term by term from
`operators.monomial_quotients`, the parameter-free per-monomial memo of
their closed forms, each quotient term a packed z/zb offset and a power
i^r.  So each amplitude term c is scaled once, not once per quotient term:
the four phases of c are rotations of its integer triple, and a quotient
term's key is one int add.  No intermediate polynomial is built.  A
relabelling by a group element moves each term's element field and, for a
reflection, swaps its z and zb fields, term by term.

The couplings and the frequency are always symbolic here: an identity is
decided once for all of them, and a numeric triple is what `operators.apply`
is for.  Operator trees are walked by `operators.evaluate`, which applies
each registry operator (the `named` trees, T and Tb among them) once per
(operator, input state) within one memo.  Here that memo is the
one `image_scope` yields: `k_apply` and `prove` open a scope when none is
open, and a verification run opens one around all its suites, so the
seed's images under K, Hcal, H_j, J2 and their Dunkl chains are computed
once per proof, or once per run across the `kernel` and `superint`
suites.  The memo is emptied when the outermost scope closes, so it never
outlives the call that filled it.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

# `_relabel` moves exponents itself and does not call `act`; the name stays
# bound here because bench/tracing.py wraps kernel.act
from .group import (ALL_ELEMENTS, SWAP, GroupElem, act,  # noqa: F401
                    elem_name, inv, mul, reflection, rotation, IDENTITY)
from .operators import (Commutator, Compose, Expr, GroupOp, Mul, Sum,
                        evaluate, monomial_quotients, named, visit)
from .params import Params
from .poly import (GUARD, MASK, SHIFT, UNIVERSE, WIDTH, Exponent, MPoly,
                   add_product, from_terms)
from .record import Record
from .scalars import QI

_HALF = Fraction(1, 2)
_W = MPoly.var("w")

# the element field: copy g of a state keeps its terms at index(g) << _ELEM
_ELEM = WIDTH * len(UNIVERSE)
_AMPLITUDE = (1 << _ELEM) - 1          # the polynomial part of a key
_Z, _ZB = SHIFT["z"], SHIFT["zb"]
_SPECTATORS = (1 << _ZB) - 1           # u, ub, k0, k1 and w


def _index(g: GroupElem) -> int:
    """g's position in ALL_ELEMENTS: 4 refl + k."""
    return 4 * g.refl + g.k


class KernelState(Record):
    """Group-indexed family of amplitudes, held as one term dict: the
    amplitude of copy g has its terms at the packed exponent plus
    `_index(g)` in the element field above z.  Zero terms are dropped.
    Do not mutate ``terms``: the seed state and memoised images are shared
    by the proofs of a scope.  Its dict does not hash, so neither does a
    state; compare states with ==."""

    __slots__ = ("terms",)

    def __init__(self, parts: Optional[Mapping[GroupElem, MPoly]] = None):
        Record.__init__(self, {
            (_index(g) << _ELEM) + exp: c
            for g, p in (parts or {}).items() for exp, c in p.terms.items()})

    @classmethod
    def _of(cls, terms: Dict[Exponent, QI]) -> "KernelState":
        """State from a term dict that holds no zero coefficient."""
        out = cls.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

    @classmethod
    def _nonzero(cls, terms: Dict[Exponent, QI]) -> "KernelState":
        """State from a term dict, its zero coefficients dropped."""
        return cls._of({e: c for e, c in terms.items() if c})

    @property
    def parts(self) -> Dict[GroupElem, MPoly]:
        """The nonzero amplitude of each copy, split out of ``terms``."""
        split: Dict[int, Dict[Exponent, QI]] = {}
        for exp, c in self.terms.items():
            split.setdefault(exp >> _ELEM, {})[exp & _AMPLITUDE] = c
        return {ALL_ELEMENTS[i]: from_terms(t) for i, t in split.items()}

    def is_zero(self) -> bool:
        return not self.terms

    def items(self) -> Iterable[Tuple[GroupElem, MPoly]]:
        # keys are distinct, so GroupElem's (refl, k) order decides
        return sorted(self.parts.items())

    def __add__(self, other: "KernelState") -> "KernelState":
        acc = dict(self.terms)
        for e, c in other.terms.items():
            prev = acc.get(e)
            if prev is None:
                acc[e] = c
                continue
            c += prev
            if c:
                acc[e] = c
            else:
                del acc[e]
        return KernelState._of(acc)

    def __neg__(self) -> "KernelState":
        return KernelState._of({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "KernelState") -> "KernelState":
        return self + (-other)

    def __mul__(self, q: MPoly) -> "KernelState":
        """Every amplitude times q; q's exponents leave the element field
        alone."""
        if len(q.terms) == 1 and 0 in q.terms:
            k = q.terms[0]
            return KernelState._of({e: c * k for e, c in self.terms.items()})
        out: Dict[Exponent, QI] = {}
        add_product(out, self.terms, q.terms)
        return KernelState._nonzero(out)

    def to_json_dict(self) -> dict:
        return {"entries": [{"element": elem_name(g),
                             "amplitude": p.to_json_dict()}
                            for g, p in self.items()]}

    def __repr__(self) -> str:
        body = ", ".join(f"{elem_name(g)}: {p}" for g, p in self.items())
        return "{" + body + "}"


_SEED = KernelState({IDENTITY: MPoly.const(1)})


def k_initial() -> KernelState:
    """The seed state {identity: 1}; one shared object, so the image memo
    recognises it across the proofs of a scope."""
    return _SEED


def _half_dual(var: str, w: GroupElem) -> Tuple[int, QI]:
    """The half dual-coordinate factor of the w-copy in the var direction,
    which is one monomial: the universe index of its variable and half its
    phase.  In closed form the zb step takes u and the z step takes ub, a
    reflection swaps the two, and a turn by k scales u by i^-k and ub by
    i^k."""
    if (var == "zb") != w.refl:
        return UNIVERSE.index("u"), QI.i_power(-w.k) * _HALF
    return UNIVERSE.index("ub"), QI.i_power(w.k) * _HALF


# the exponents that symbolic kappa_0 = k0 and kappa_1 = k1 raise
_KAPPA = (1 << SHIFT["k0"], 1 << SHIFT["k1"])


def _plan(var: str, w: GroupElem) -> Tuple[Exponent, QI,
                                            Tuple[Exponent, ...]]:
    """What the var step does to a term of the w-copy: the packed unit of
    its dual factor and the factor's half phase, and for each mirror line
    j the offset of the reflected copy s_j w, its element field plus the
    exponent of its coupling kappa_j."""
    slot, half = _half_dual(var, w)
    return (1 << SHIFT[UNIVERSE[slot]], half,
            tuple((_index(mul(reflection(j), w)) << _ELEM) + _KAPPA[j & 1]
                  for j in range(4)))


@lru_cache(maxsize=None)
def _plans(var: str) -> Tuple[Tuple[Exponent, QI, Tuple[Exponent, ...]], ...]:
    """The plans of the var direction, indexed by element."""
    return tuple(_plan(var, w) for w in ALL_ELEMENTS)


def _first_order(var: str, state: KernelState,
                 params: Params) -> KernelState:
    plans = _plans(var)
    unit = 1 << SHIFT[var]
    out: Dict[Exponent, QI] = {}
    get = out.get
    for exp, c in state.terms.items():
        dual, half, bases = plans[exp >> _ELEM]
        a, b = (exp >> _Z) & MASK, (exp >> _ZB) & MASK
        e = a if var == "z" else b
        if e:
            key = exp - unit
            term = c * e
            prev = get(key)
            out[key] = term + prev if prev is not None else term
        key = exp + dual
        term = half * c
        prev = get(key)
        out[key] = term + prev if prev is not None else term
        lines = monomial_quotients(var, a, b)
        if not lines:
            continue
        phases = c.phases()
        rest = exp & _SPECTATORS
        for base, terms in zip(bases, lines):
            base += rest
            for offset, r in terms:
                key = base + offset
                term = phases[r]
                prev = get(key)
                out[key] = term + prev if prev is not None else term
    # a step raises a field by at most one, so an exponent that reached
    # LIMIT shows as a guard bit and none carried
    if reduce(or_, out, 0) & GUARD:
        raise ValueError("exponent too large")
    return KernelState._nonzero(out)


@lru_cache(maxsize=None)
def _moves(g: GroupElem) -> Tuple[int, ...]:
    """How relabelling by g moves the element field of the w-copy, indexed
    by w: (index(g w) - index(w)) << _ELEM."""
    return tuple((_index(mul(g, w)) - _index(w)) << _ELEM
                 for w in ALL_ELEMENTS)


def _relabel(g: GroupElem, state: KernelState) -> KernelState:
    """The w-copy of state, moved by g, as the copy g w: the z/zb part of
    each term is turned (and, for a reflection, swapped), and the element
    field is moved.  The map is one-to-one, so no terms merge."""
    if g == IDENTITY:
        return state
    moves = _moves(g)
    swap = SWAP if g.refl else 0
    out = {}
    for exp, c in state.terms.items():
        d = ((exp >> _Z) & MASK) - ((exp >> _ZB) & MASK)    # z minus zb
        out[exp + moves[exp >> _ELEM] - d * swap] = \
            c.phases()[g.k * d % 4]
    return KernelState._of(out)


_SYMBOLIC = Params.symbolic()
_IMAGES: dict = {}
_scope_open = False


@contextmanager
def image_scope() -> Iterator[dict]:
    """Yield the image memo that the applications made inside share;
    nested scopes reuse it, and the outermost one empties it when it
    closes."""
    global _scope_open
    if _scope_open:
        yield _IMAGES
        return
    _scope_open = True
    try:
        yield _IMAGES
    finally:
        _scope_open = False
        _IMAGES.clear()


def k_apply(expr: Expr, state: KernelState, params: Params = _SYMBOLIC,
            memo=None) -> KernelState:
    """Apply an operator tree to a state, couplings and frequency symbolic.
    A top-level call looks the tree up in the memo of the open
    `image_scope`, opening one of its own if none is open, and raises
    ValueError at numeric params; a call from inside a walk passes back
    the walk's `params` and `memo`."""
    if memo is not None:
        return evaluate(expr, state, params, k_apply, _first_order,
                        _relabel, memo)
    if not params.is_symbolic:
        raise ValueError("the prover keeps the couplings symbolic; "
                         "apply numeric params with operators.apply")
    with image_scope() as memo:
        return visit(expr, state, params, k_apply, memo)


# ---- identity catalogue --------------------------------------------------

ZERO_OP = Mul(MPoly.zero())


class Identity(Record):
    # provable: the expected outcome on the seed state
    __slots__ = ("name", "lhs", "rhs", "provable")


class ProofResult(Record):
    __slots__ = ("proven", "residual", "name")

    def __init__(self, proven: bool, residual: KernelState,
                 name: Optional[str] = None):
        Record.__init__(self, proven, residual, name)

    @property
    def status(self) -> str:
        return "PROVEN" if self.proven else "REFUTED"

    def to_json_dict(self) -> dict:
        out = {"status": self.status}
        if self.name is not None:
            out["identity"] = self.name
        if not self.proven:
            out["witness"] = self.residual.to_json_dict()
        return out


def prove(lhs: Expr, rhs: Expr = ZERO_OP,
          name: Optional[str] = None) -> ProofResult:
    """Decide lhs == rhs on all polynomials, couplings fully symbolic.  The
    two sides share one image scope."""
    with image_scope():
        residual = (k_apply(lhs, k_initial()) - k_apply(rhs, k_initial()))
    return ProofResult(residual.is_zero(), residual, name)


def _sq(e: Expr) -> Expr:
    return Compose((e, e))


def _times(c, e: Expr) -> Expr:
    return Compose((Mul(MPoly.const(c)), e))


def _catalogue() -> Dict[str, Identity]:
    z, zb = MPoly.var("z"), MPoly.var("zb")
    w2 = _W * _W
    hc = named("Hcal")
    ids = [
        Identity("component-sum-02",
                 Sum((named("H_0"), named("H_2"))), hc, True),
        Identity("component-sum-13",
                 Sum((named("H_1"), named("H_3"))), hc, True),
        Identity("hamiltonian-angular",
                 Commutator(hc, named("J")), ZERO_OP, True),
        Identity("opposite-components-02",
                 Commutator(named("H_0"), named("H_2")), ZERO_OP, True),
        Identity("opposite-components-13",
                 Commutator(named("H_1"), named("H_3")), ZERO_OP, True),
        Identity("rotation-relabels-components",
                 Compose((GroupOp(inv(rotation(1))), named("H_0"),
                          GroupOp(rotation(1)))),
                 named("H_2"), True),
        Identity("component-square-sum",
                 Sum(tuple(_sq(named(f"H_{j}")) for j in range(4))),
                 Sum((_times(Fraction(3, 2), _sq(hc)),
                      Compose((Mul(-2 * w2), named("J2"))),
                      Compose((Mul(-2 * w2), named("R"))))),
                 True),
        Identity("quartic-hamiltonian",
                 Commutator(named("K"), hc), ZERO_OP, True),
        Identity("laplacian-coordinate",
                 Commutator(named("DeltaKappa"), Mul(z)),
                 _times(4, named("Tb")), True),
        Identity("radius-lowering",
                 Commutator(Mul(z * zb), named("T")), Mul(-zb), True),
        Identity("angular-quartic",
                 Commutator(named("J2"), named("K")), ZERO_OP, False),
    ]
    for j in range(4):
        ids.append(Identity(f"hamiltonian-component-{j}",
                            Commutator(hc, named(f"H_{j}")), ZERO_OP, True))
        ids.append(Identity(f"quartic-reflection-{j}",
                            Commutator(named("K"), GroupOp(reflection(j))),
                            ZERO_OP, True))
    return {i.name: i for i in ids}


IDENTITIES: Dict[str, Identity] = _catalogue()

IDENTITY_NAMES: Tuple[str, ...] = tuple(sorted(IDENTITIES))


def get_identity(name: str) -> Identity:
    try:
        return IDENTITIES[name]
    except KeyError:
        raise KeyError(f"unknown identity {name!r}; available: "
                       + ", ".join(IDENTITY_NAMES)) from None


def prove_named(name: str) -> ProofResult:
    ident = get_identity(name)
    return prove(ident.lhs, ident.rhs, name=ident.name)
