"""Differential-difference operators and the named operator algebra.

The two first-order operators act on polynomials in z, zb as a derivative
plus difference quotients across the four mirror lines; the difference
quotients divide exactly, so the result is again a polynomial.  Everything
else (Hamiltonians, angular momentum, ladder operators, the fourth-order
invariant) is a tree of sums, compositions, multiplication operators and
group elements over those two generators.

Operator trees are parameter-free: coupling and frequency appear inside
multiplication coefficients as the variables k0, k1, w and get instantiated
at application time when the supplied parameters are numeric.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Dict, Tuple

from .group import (GroupElem, act, central_element_terms, ell, elem_name,
                    parse_elem, reflection)
from .params import Params
from .poly import Exponent, MPoly, from_terms
from .scalars import QI


class Expr:
    """Marker base class for operator syntax trees."""
    __slots__ = ()


@dataclass(frozen=True)
class Dunkl(Expr):
    var: str     # "z" or "zb"

    def __post_init__(self):
        if self.var not in ("z", "zb"):
            raise ValueError("Dunkl direction must be z or zb")


@dataclass(frozen=True)
class Mul(Expr):
    poly: MPoly


@dataclass(frozen=True)
class GroupOp(Expr):
    elem: GroupElem


@dataclass(frozen=True)
class Sum(Expr):
    parts: Tuple[Expr, ...]


@dataclass(frozen=True)
class Compose(Expr):
    """Operator product; the rightmost factor acts first."""
    parts: Tuple[Expr, ...]


@dataclass(frozen=True)
class Commutator(Expr):
    a: Expr
    b: Expr


def reflection_quotients(var: str, p: MPoly, params: Params):
    """Yield (j, kappa_j (p - s_j p) / ell_j) for each mirror line j on which
    the difference is nonzero, times -i^j in the zb direction."""
    for j in range(4):
        diff = p - act(reflection(j), p)
        if diff.is_zero():
            continue
        quot = params.kappa(j) * diff.divide_linear(ell(j))
        yield j, (-QI.i_power(j) * quot if var == "zb" else quot)


Terms = Tuple[Tuple[Exponent, QI], ...]


def _monomial(a: int, b: int) -> MPoly:
    return MPoly(("z", "zb"), {(a, b): 1})


@lru_cache(maxsize=None)
def monomial_quotients(var: str, a: int, b: int,
                       params: Params) -> Tuple[Tuple[int, Terms], ...]:
    """The reflection quotients (j, terms) of z^a zb^b, as
    `reflection_quotients` yields them, for the prover, which moves each to
    its own reflected copy; every exact division runs once per key.
    Symbolic couplings appear in the terms as k0, k1."""
    quotients = reflection_quotients(var, _monomial(a, b), params)
    return tuple((j, tuple(q.terms.items())) for j, q in quotients)


@lru_cache(maxsize=None)
def _monomial_image(var: str, a: int, b: int, params: Params) -> Terms:
    """Terms of the Dunkl image of z^a zb^b: the derivative plus the
    summed reflection quotients; every exact division runs once per key."""
    mono = _monomial(a, b)
    image = sum((q for _, q in reflection_quotients(var, mono, params)),
                mono.diff(var))
    return tuple(image.terms.items())


def add_scaled(out: Dict[Exponent, QI], c: QI, rest: Exponent,
               terms: Terms) -> None:
    """out += c s terms, where s is the spectator monomial with exponents
    `rest` over the variables after z, zb."""
    spectators = any(rest)
    for exp, tc in terms:
        key = exp[:2] + tuple(map(add, exp[2:], rest)) if spectators else exp
        term = c * tc
        prev = out.get(key)
        out[key] = term + prev if prev is not None else term


def apply_dunkl(var: str, p: MPoly, params: Params) -> MPoly:
    """First-order Dunkl operator in the z or zb direction.

    The operator is linear and treats every variable other than z, zb as a
    constant, so a term c z^a zb^b s, with s its spectator cofactor, maps to
    c s times the memoised image of z^a zb^b.
    """
    out: Dict[Exponent, QI] = {}
    for exp, c in p.terms.items():
        add_scaled(out, c, exp[2:],
                   _monomial_image(var, exp[0], exp[1], params))
    return from_terms(out)


def evaluate(expr: Expr, x, params: Params, recurse, dunkl, group_act):
    """Evaluate an operator tree on a carrier x.

    The carrier needs +, - and multiplication by a polynomial; `dunkl(var,
    x, params)` and `group_act(elem, x)` act at the leaves, and subtrees are
    evaluated through `recurse(expr, x, params)`.
    """
    if isinstance(expr, Dunkl):
        return dunkl(expr.var, x, params)
    if isinstance(expr, Mul):
        return x * params.instantiate(expr.poly)
    if isinstance(expr, GroupOp):
        return group_act(expr.elem, x)
    if isinstance(expr, Sum):
        return sum((recurse(part, x, params) for part in expr.parts),
                   x * MPoly.zero())
    if isinstance(expr, Compose):
        for part in reversed(expr.parts):
            x = recurse(part, x, params)
        return x
    if isinstance(expr, Commutator):
        return (recurse(expr.a, recurse(expr.b, x, params), params)
                - recurse(expr.b, recurse(expr.a, x, params), params))
    raise TypeError(f"not an operator expression: {expr!r}")


def apply(expr: Expr, p: MPoly, params: Params) -> MPoly:
    return evaluate(expr, p, params, apply, apply_dunkl, act)


# ---- named operators ---------------------------------------------------

_Z = MPoly.var("z")
_ZB = MPoly.var("zb")
_W = MPoly.var("w")

T = Dunkl("z")
TB = Dunkl("zb")


def _const(c) -> Mul:
    return Mul(MPoly.const(c))


def _scaled(c, *parts: Expr) -> Expr:
    return Compose((_const(c),) + parts)


def _lower(j: int) -> Expr:
    # T - i^{-j} Tb, annihilates one quantum along the j-th direction pair
    return Sum((T, _scaled(-QI.i_power(-j), TB)))


def _raise(j: int) -> Expr:
    return Sum((Mul(QI.i_power(-j) * _W * ell(j)), _lower(j)))


def _hhat_component(j: int) -> Expr:
    d = _lower(j)
    return Sum((
        _scaled(QI.i_power(j), T, T),
        _scaled(-2, T, TB),
        _scaled(QI.i_power(-j), TB, TB),
        _scaled(Fraction(1, 2), Compose((Mul(_W * ell(j)), d))),
        _scaled(Fraction(1, 2), Compose((d, Mul(_W * ell(j))))),
    ))


def _h_component(j: int) -> Expr:
    lj = ell(j)
    return Sum((
        Mul(Fraction(-1, 4) * QI.i_power(-j) * _W * _W * lj * lj),
        _scaled(QI.i_power(j), T, T),
        _scaled(-2, T, TB),
        _scaled(QI.i_power(-j), TB, TB),
    ))


def _hhat() -> Expr:
    return Sum((
        _scaled(-4, T, TB),
        Compose((Mul(_W), Sum((
            Compose((Mul(_Z), T)),
            Compose((T, Mul(_Z))),
            Compose((Mul(_ZB), TB)),
            Compose((TB, Mul(_ZB))),
        )))),
    ))


def _angular() -> Expr:
    return Sum((Compose((Mul(_Z), T)), Compose((Mul(-_ZB), TB))))


def _signature(signs, components) -> Expr:
    parts = []
    for sg, comp in zip(signs, components):
        sq = Compose((comp, comp))
        parts.append(sq if sg > 0 else _scaled(-1, sq))
    return Sum(tuple(parts))


def _central() -> Expr:
    terms = central_element_terms(Params.symbolic())
    return Sum(tuple(Compose((Mul(coeff), GroupOp(g)))
                     for g, coeff in terms))


def _build_registry() -> Dict[str, Expr]:
    reg: Dict[str, Expr] = {
        "T": T,
        "Tb": TB,
        "DeltaKappa": _scaled(4, T, TB),
        "J": _angular(),
        "J2": Compose((_angular(), _angular())),
        "Hhat": _hhat(),
        "Hcal": Sum((Mul(_W * _W * _Z * _ZB), _scaled(-4, T, TB))),
        "R": _central(),
    }
    for j in range(4):
        reg[f"Hhat_{j}"] = _hhat_component(j)
        reg[f"H_{j}"] = _h_component(j)
        reg[f"Lower_{j}"] = _lower(j)
        reg[f"Raise_{j}"] = _raise(j)
    reg["K"] = _signature((1, -1, 1, -1),
                          [reg[f"H_{j}"] for j in range(4)])
    reg["Khat"] = _signature((1, -1, 1, -1),
                             [reg[f"Hhat_{j}"] for j in range(4)])
    return reg


_REGISTRY = _build_registry()

OPERATOR_NAMES = tuple(sorted(_REGISTRY))


def named(name: str) -> Expr:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown operator {name!r}; available: "
                       + ", ".join(OPERATOR_NAMES)) from None


def apply_named(name: str, p: MPoly, params: Params) -> MPoly:
    return apply(named(name), p, params)


# ---- serialization ------------------------------------------------------

def expr_to_json(expr: Expr) -> dict:
    if isinstance(expr, Dunkl):
        return {"op": "dunkl", "var": expr.var}
    if isinstance(expr, Mul):
        return {"op": "mul", "poly": expr.poly.to_json_dict()}
    if isinstance(expr, GroupOp):
        return {"op": "group", "element": elem_name(expr.elem)}
    if isinstance(expr, Sum):
        return {"op": "sum", "parts": [expr_to_json(e) for e in expr.parts]}
    if isinstance(expr, Compose):
        return {"op": "compose",
                "parts": [expr_to_json(e) for e in expr.parts]}
    if isinstance(expr, Commutator):
        return {"op": "commutator", "a": expr_to_json(expr.a),
                "b": expr_to_json(expr.b)}
    raise TypeError(f"not an operator expression: {expr!r}")


def expr_from_json(obj: dict) -> Expr:
    kind = obj["op"]
    if kind == "dunkl":
        return Dunkl(obj["var"])
    if kind == "mul":
        return Mul(MPoly.from_json_dict(obj["poly"]))
    if kind == "group":
        return GroupOp(parse_elem(obj["element"]))
    if kind == "sum":
        return Sum(tuple(expr_from_json(e) for e in obj["parts"]))
    if kind == "compose":
        return Compose(tuple(expr_from_json(e) for e in obj["parts"]))
    if kind == "commutator":
        return Commutator(expr_from_json(obj["a"]), expr_from_json(obj["b"]))
    if kind == "named":
        return named(obj["name"])
    raise ValueError(f"unknown operator node {kind!r}")
