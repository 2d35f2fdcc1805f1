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

A first-order step differentiates each amplitude and moves its reflection
quotients to the reflected copies.  The quotients are linear and leave u,
ub, k0, k1 and w alone, so they are assembled term by term from
`operators.monomial_quotients`, the prover's per-monomial memo of them;
each exact division runs once per (direction, z/zb monomial, parameters).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .group import (GroupElem, act, elem_name, inv, mul, reflection,
                    rotation, transform_pair, IDENTITY)
from .operators import (Commutator, Compose, Expr, GroupOp, Mul, Sum,
                        add_scaled, evaluate, monomial_quotients, named)
from .params import Params
from .poly import Exponent, MPoly, from_terms
from .scalars import QI

_HALF = Fraction(1, 2)
_U = MPoly.var("u")
_UB = MPoly.var("ub")
_W = MPoly.var("w")


def _elem_key(g: GroupElem):
    return (g.refl, g.k)


class KernelState:
    """Group-indexed family of amplitudes; zero amplitudes are dropped."""

    __slots__ = ("parts",)

    def __init__(self, parts: Optional[Mapping[GroupElem, MPoly]] = None):
        clean: Dict[GroupElem, MPoly] = {}
        if parts:
            for g, p in parts.items():
                if not isinstance(p, MPoly):
                    p = MPoly.const(p)
                if not p.is_zero():
                    clean[g] = p
        object.__setattr__(self, "parts", clean)

    def __setattr__(self, name, value):
        raise AttributeError("KernelState is immutable")

    def is_zero(self) -> bool:
        return not self.parts

    def items(self) -> Iterable[Tuple[GroupElem, MPoly]]:
        return sorted(self.parts.items(), key=lambda kv: _elem_key(kv[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, KernelState):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        raise TypeError("unhashable; compare with ==")

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


def k_initial() -> KernelState:
    return KernelState({IDENTITY: MPoly.const(1)})


@lru_cache(maxsize=None)
def _dual_pair(w: GroupElem) -> Tuple[MPoly, MPoly]:
    # dual coordinates of the moved dual point attached to the w-copy
    return transform_pair(inv(w), (_U, _UB))


def _first_order(var: str, state: KernelState,
                 params: Params) -> KernelState:
    out: Dict[GroupElem, MPoly] = {}

    def bump(g: GroupElem, q: MPoly):
        prev = out.get(g)
        out[g] = q + prev if prev is not None else q

    for w, p in state.parts.items():
        uw, ubw = _dual_pair(w)
        factor = uw if var == "zb" else ubw
        bump(w, p.diff(var) + _HALF * (factor * p))
        quots: Dict[int, Dict[Exponent, QI]] = {}
        for exp, c in p.terms.items():
            for j, terms in monomial_quotients(var, exp[0], exp[1], params):
                add_scaled(quots.setdefault(j, {}), c, exp[2:], terms)
        for j, acc in quots.items():
            bump(mul(reflection(j), w), from_terms(acc))
    return KernelState(out)


def _relabel(g: GroupElem, state: KernelState) -> KernelState:
    return KernelState({mul(g, w): act(g, p) for w, p in state.parts.items()})


def k_apply(expr: Expr, state: KernelState,
            params: Optional[Params] = None) -> KernelState:
    """Apply an operator tree to a state; params default to fully symbolic."""
    return evaluate(expr, state, Params.symbolic() if params is None
                    else params, k_apply, _first_order, _relabel)


# ---- identity catalogue --------------------------------------------------

ZERO_OP = Mul(MPoly.zero())


@dataclass(frozen=True)
class Identity:
    name: str
    lhs: Expr
    rhs: Expr
    provable: bool      # expected outcome on the seed state


@dataclass(frozen=True)
class ProofResult:
    proven: bool
    residual: KernelState
    name: Optional[str] = None

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
    """Decide lhs == rhs on all polynomials, couplings fully symbolic."""
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
