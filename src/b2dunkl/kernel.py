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

A first-order step differentiates each amplitude, adds half the moved dual
coordinate times it, and moves its reflection quotients to the reflected
copies.  It is one pass over each amplitude's terms, accumulating into one
term dict per target copy: the dual factor is one monomial, so it is an
exponent shift times a phase cached per (direction, copy), and the
quotients, which are linear and leave u, ub, k0, k1 and w alone, come term
by term from `operators.monomial_quotients`, the parameter-free
per-monomial memo of their closed forms, each quotient term a power i^r.
So each amplitude term c is scaled once, not once per quotient term: the
four phases of c are rotations of its integer triple, and the coupling
kappa_j of a mirror line raises the k0 or k1 exponent by one.  No
intermediate polynomial is built.

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
from functools import lru_cache
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from .group import (GroupElem, act, elem_name, inv, mul, reflection,
                    rotation, IDENTITY)
from .operators import (Commutator, Compose, Expr, GroupOp, Mul, Sum,
                        evaluate, monomial_quotients, named, visit)
from .params import Params
from .poly import UNIVERSE, Exponent, MPoly, from_terms
from .record import Record
from .scalars import QI

_HALF = Fraction(1, 2)
_W = MPoly.var("w")


class KernelState(Record):
    """Group-indexed family of amplitudes; zero amplitudes are dropped.
    Do not mutate ``parts``: the seed state and memoised images are shared
    by the proofs of a scope.  Its amplitudes do not hash, so neither does
    a state; compare states with ==."""

    __slots__ = ("parts",)

    def __init__(self, parts: Optional[Mapping[GroupElem, MPoly]] = None):
        Record.__init__(self, {g: p for g, p in (parts or {}).items()
                               if not p.is_zero()})

    def is_zero(self) -> bool:
        return not self.parts

    def items(self) -> Iterable[Tuple[GroupElem, MPoly]]:
        # keys are distinct, so GroupElem's (refl, k) order decides
        return sorted(self.parts.items())

    def __add__(self, other: "KernelState") -> "KernelState":
        acc = dict(self.parts)
        for g, p in other.parts.items():
            prev = acc.get(g)
            acc[g] = p + prev if prev is not None else p
        return KernelState(acc)

    def __neg__(self) -> "KernelState":
        return KernelState({g: -p for g, p in self.parts.items()})

    def __sub__(self, other: "KernelState") -> "KernelState":
        return self + (-other)

    def __mul__(self, q: MPoly) -> "KernelState":
        return KernelState({g: q * p for g, p in self.parts.items()})

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


@lru_cache(maxsize=None)
def _half_dual(var: str, w: GroupElem) -> Tuple[int, QI]:
    """The half dual-coordinate factor of the w-copy in the var direction,
    which is one monomial: the universe index of its variable and half its
    phase.  In closed form the zb step takes u and the z step takes ub, a
    reflection swaps the two, and a turn by k scales u by i^-k and ub by
    i^k."""
    if (var == "zb") != w.refl:
        return UNIVERSE.index("u"), QI.i_power(-w.k) * _HALF
    return UNIVERSE.index("ub"), QI.i_power(w.k) * _HALF


@lru_cache(maxsize=None)
def _reflected(w: GroupElem) -> Tuple[GroupElem, ...]:
    """The copies s_j w that the reflection quotients of the w-copy move to,
    indexed by mirror line j."""
    return tuple(mul(reflection(j), w) for j in range(4))


# the exponents that symbolic kappa_0 = k0 and kappa_1 = k1 raise
_KAPPA_SLOTS = (UNIVERSE.index("k0"), UNIVERSE.index("k1"))


def _first_order(var: str, state: KernelState,
                 params: Params) -> KernelState:
    d = 0 if var == "z" else 1
    out: Dict[GroupElem, Dict[Exponent, QI]] = {}
    for w, p in state.parts.items():
        here = out.setdefault(w, {})
        moved = [out.setdefault(g, {}) for g in _reflected(w)]
        slot, half = _half_dual(var, w)
        for exp, c in p.terms.items():
            e = exp[d]
            if e:
                key = exp[:d] + (e - 1,) + exp[d + 1:]
                term = c * e
                prev = here.get(key)
                here[key] = term + prev if prev is not None else term
            key = exp[:slot] + (exp[slot] + 1,) + exp[slot + 1:]
            term = half * c
            prev = here.get(key)
            here[key] = term + prev if prev is not None else term
            lines = monomial_quotients(var, exp[0], exp[1])
            if not lines:
                continue
            # the spectators of each coupling class j mod 2: kappa_j
            # raises the k0 or k1 exponent
            phases = c.phases()
            rests = [exp[2:s] + (exp[s] + 1,) + exp[s + 1:]
                     for s in _KAPPA_SLOTS]
            for j, terms in enumerate(lines):
                rest = rests[j & 1]
                acc = moved[j]
                for x, y, r in terms:
                    key = (x, y) + rest
                    term = phases[r]
                    prev = acc.get(key)
                    acc[key] = term + prev if prev is not None else term
    return KernelState({g: from_terms(acc) for g, acc in out.items()})


def _relabel(g: GroupElem, state: KernelState) -> KernelState:
    return KernelState({mul(g, w): act(g, p) for w, p in state.parts.items()})


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
