"""Differential-difference operators and the named operator algebra.

The two first-order operators act on polynomials in z, zb as a derivative
plus difference quotients across the four mirror lines.  On a monomial
each quotient is a finite geometric sum, so the result is again a
polynomial and no division runs: `_quotient_shape` gives the shape of the
quotients of z^a zb^b, and from it the Dunkl image (`_monomial_image`) and
the prover's per-line quotients (`monomial_quotients`) are written down in
closed form and memoised per monomial (Dunkl, Trans. AMS 311 (1989)).  The
prover's quotients are parameter-free: each coefficient is a power of i,
kept as its exponent, and the prover scales a line by its coupling when it
moves the line to the reflected copy.  Everything else (Hamiltonians,
angular momentum, ladder operators, the fourth-order invariant) is a tree
of sums, compositions, multiplication operators and group elements over
those two generators.  The fourth-order invariant K,
defined in the paper as sum_j (-1)^j H_j^2, is built as the equal sum of
two squares A^2 + B^2, which takes far fewer Dunkl steps.  Each hatted
operator is its twin conjugated by the invariant Gaussian (`_hat`).

Operator trees are parameter-free: coupling and frequency appear inside
multiplication coefficients as the variables k0, k1, w.  The instantiated
coefficient of each `Mul` node is memoised per parameter triple
(`coefficient`), so a tree applied many times at one triple substitutes
each coefficient once.

One tree walk, `evaluate`, serves both carriers: polynomials here
(`apply`) and the prover's states (`kernel.k_apply`).  It has one memo
rule: a registry tree (a `named` operator, T and Tb among them) is
applied once per input within one memo, and no other node is memoised.
`apply` starts a fresh memo per top-level call; the prover's memo lives
for one `kernel.image_scope` and is always symbolic.  So each memo holds
one parameter triple, and `visit` keys it on (tree, input) alone.

Every registry operator is linear over the constants, so at numeric
params each `apply` of a registry tree other than T and Tb, at top level
or from inside a walk, answers from images of single monomials z^a zb^b
(`_image_table`), which every basis function and level element holding
that monomial shares.  The monomials an input brings that the table
lacks are imaged by one walk (`_fill_images`).  Symbolic params always
walk, because no symbolic image is reused.

`DEGREE_PRESERVING` holds the parts of Khat and Hhat_0 that keep the
degree of a homogeneous input; the coefficient tables apply them to the
top-degree slices of basis functions, through image tables of their own.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Collection, Dict, Tuple

from .group import act, central_element_terms, ell, parse_elem
from .params import Params
from .poly import UNIVERSE, Exponent, MPoly, from_terms
from .record import Keyed, Record
from .scalars import QI


class Expr(Record):
    """Base class of operator syntax trees."""
    __slots__ = ()


class Dunkl(Expr):
    __slots__ = ("var",)     # "z" or "zb"

    def __init__(self, var: str):
        if var not in ("z", "zb"):
            raise ValueError("Dunkl direction must be z or zb")
        object.__setattr__(self, "var", var)


class Mul(Expr, Keyed):
    __slots__ = ("poly",)

    def __init__(self, poly: MPoly):
        object.__setattr__(self, "poly", poly)
        # MPoly is unhashable; key the node on its terms, hashed once, so
        # nodes can key a memo
        self._keep(frozenset(poly.terms.items()))


class GroupOp(Expr):
    __slots__ = ("elem",)


class Sum(Expr):
    __slots__ = ("parts",)


class Compose(Expr):
    """Operator product; the rightmost factor acts first."""
    __slots__ = ("parts",)


class Commutator(Expr):
    __slots__ = ("a", "b")


Terms = Tuple[Tuple[Exponent, QI], ...]

_NO_SPECTATORS = (0,) * (len(UNIVERSE) - 2)     # exponents after z, zb
# the same exponents of the symbolic couplings kappa_0 = k0, kappa_1 = k1
_KAPPA_SPECTATORS = tuple(next(iter(Params.symbolic().kappa(j).terms))[2:]
                          for j in (0, 1))


def _quotient_shape(var: str, a: int, b: int):
    """(n, hi, lo, sign, shift) of the quotients of z^a zb^b, a != b: the
    k-th term, k < n, sits at z^(hi-1-k) zb^(lo+k) with coefficient
    sign kappa_j t^(k + shift), t = i^j."""
    n = abs(a - b)
    hi, lo, sign, shift = (a, b, 1, 0) if a > b else (b, a, -1, -n)
    if var == "zb":
        sign, shift = -sign, shift + 1      # times -i^j = -t
    return n, hi, lo, sign, shift


@lru_cache(maxsize=None)
def monomial_quotients(var: str, a: int,
                       b: int) -> Tuple[Tuple[Tuple[int, int, int], ...], ...]:
    """The reflection quotients of m = z^a zb^b without their couplings, in
    closed form, for the prover, which moves each to its own reflected copy
    and scales it by kappa_j there.

    Entry j lists the quotient (m - s_j m) / ell_j, times -i^j in the zb
    direction, as terms (x, y, r), each i^r z^x zb^y; the tuple is empty
    when a = b, where every quotient is zero.  With t = i^j and
    n = |a - b|, s_j m = t^(a-b) z^b zb^a, and the quotient is a finite
    geometric sum: sum_{k<n} t^k z^(a-1-k) zb^(b+k) when a > b and
    -sum_{k<n} t^(k-n) z^(b-1-k) zb^(a+k) when a < b.  The sign is folded
    into r, as -1 = i^2.
    """
    if a == b:
        return ()
    n, hi, lo, sign, shift = _quotient_shape(var, a, b)
    turn = 0 if sign > 0 else 2
    # the k-th term carries sign t^(k + shift) = i^(j (k + shift) + turn)
    return tuple(tuple((hi - 1 - k, lo + k, (j * (k + shift) + turn) % 4)
                       for k in range(n)) for j in range(4))


@lru_cache(maxsize=None)
def _monomial_image(var: str, a: int, b: int, params: Params) -> Terms:
    """Terms of the Dunkl image of z^a zb^b: the derivative plus the
    reflection quotients summed over the four mirror lines.

    Lines j and j + 2 share kappa_j, and t_(j+2) = -t_j, so in the sum of
    the quotients of `monomial_quotients`, each times kappa_j, the k-th
    term survives only when s = k + shift is even, with coefficient
    2 sign (kappa_0 + (-1)^(s/2) kappa_1).
    """
    out: Dict[Exponent, QI] = {}
    e = a if var == "z" else b
    if e:
        exp = (a - 1, b) if var == "z" else (a, b - 1)
        out[exp + _NO_SPECTATORS] = QI(e)
    if a == b:
        return tuple(out.items())
    n, hi, lo, sign, shift = _quotient_shape(var, a, b)
    two = QI(2 * sign)
    if params.is_symbolic:
        # (spectators, coefficient at s = 0 mod 4, at s = 2 mod 4)
        parts = ((_KAPPA_SPECTATORS[0], two, two),
                 (_KAPPA_SPECTATORS[1], two, -two))
    else:
        k0, k1 = QI.of(params.kappa(0)), QI.of(params.kappa(1))
        parts = ((_NO_SPECTATORS, two * (k0 + k1), two * (k0 - k1)),)
    for rest, plus, minus in parts:
        for k in range(shift % 2, n, 2):
            c = plus if (k + shift) % 4 == 0 else minus
            exp = (hi - 1 - k, lo + k) + rest
            prev = out.get(exp)
            out[exp] = c + prev if prev is not None else c
    return tuple((exp, c) for exp, c in out.items() if c)


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


@lru_cache(maxsize=None)
def coefficient(node: Mul, params: Params) -> MPoly:
    """The coefficient of a `Mul` node with params substituted; equal nodes
    share one entry, and each substitution runs once per key."""
    return params.instantiate(node.poly)


def evaluate(expr: Expr, x, params: Params, recurse, dunkl, group_act,
             memo: dict):
    """Evaluate an operator tree on a carrier x.

    The carrier needs +, - and multiplication by a polynomial; `dunkl(var,
    x, params)` and `group_act(elem, x)` act at the leaves, and subtrees are
    evaluated through `visit`, which shares registry images through `memo`.
    The carrier's values must be immutable, because the memo hands one
    result to several parts.
    """
    if isinstance(expr, Dunkl):
        return dunkl(expr.var, x, params)
    if isinstance(expr, Mul):
        return x * coefficient(expr, params)
    if isinstance(expr, GroupOp):
        return group_act(expr.elem, x)
    if isinstance(expr, Sum):
        return sum((visit(part, x, params, recurse, memo)
                    for part in expr.parts), x * MPoly.zero())
    if isinstance(expr, Compose):
        for part in reversed(expr.parts):
            x = visit(part, x, params, recurse, memo)
        return x
    if isinstance(expr, Commutator):
        ab = visit(expr.b, x, params, recurse, memo)
        ab = visit(expr.a, ab, params, recurse, memo)
        ba = visit(expr.a, x, params, recurse, memo)
        ba = visit(expr.b, ba, params, recurse, memo)
        return ab - ba
    raise TypeError(f"not an operator expression: {expr!r}")


def visit(expr: Expr, x, params: Params, recurse, memo: dict):
    """Evaluate a subtree on x through `recurse(expr, x, params, memo)`.

    A registry tree (`named`, the generators T and Tb among them) is
    looked up in `memo` under (id(expr), id(x)) and recursed into only on
    a miss.  Each entry holds x, so its id stays valid; registry trees live
    as long as the module.  Params are not in the key: every memo serves
    one triple, the fresh one of a numeric `apply` or `_fill_images` walk
    or the symbolic one of a prover scope.  So every registry
    operator acts once per input within one memo: in H_j the parts T Tb and
    Tb^2 share Tb x, and H_j takes five Dunkl steps.  K = A^2 + B^2 takes
    eight, two per application of A or B, and each hatted operator as many
    as its twin.  No other node is memoised.
    """
    if id(expr) not in _REGISTRY_IDS:
        return recurse(expr, x, params, memo)
    key = id(expr), id(x)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (x, recurse(expr, x, params, memo))
    return hit[1]


@lru_cache(maxsize=None)
def _image_table(tree: int, params: Params) -> Dict[Tuple[int, int], Terms]:
    """Images of the monomials z^a zb^b, keyed by (a, b), under the
    tabulated tree with id `tree` at numeric params; filled by
    `_fill_images` and read by every `apply` of the tree.  Tabulated trees
    live as long as the module, so their ids stay valid."""
    return {}


# the tag u^a ub^b of z^a zb^b in `_fill_images` sits at these exponents
_TAG = slice(2, 4)
assert UNIVERSE[_TAG] == ("u", "ub")


def _fill_images(expr: Expr, missing: Collection[Tuple[int, int]],
                 params: Params, table: Dict[Tuple[int, int], Terms]) -> None:
    """Add the images of the monomials (a, b) in `missing` to `table`
    with one walk.

    Each z^a zb^b is tagged u^a ub^b, and the image of the tagged sum is
    split by its (u, ub) exponents.  That is sound because the
    coefficients of a tabulated tree at numeric params hold only z and zb,
    and both `act` and the Dunkl step leave u and ub alone.  Each fill
    tags a fresh input of its own, so a fill started from inside another
    walk never sees that walk's spectators.  One walk per input keeps the
    number of walks what it was without the table; the basis functions of
    one level share no monomial, so a walk per monomial would multiply it.
    """
    tagged = from_terms({(a, b, a, b) + _NO_SPECTATORS[2:]: QI(1)
                         for a, b in missing})
    parts: Dict[Tuple[int, int], Dict[Exponent, QI]] = {
        ab: {} for ab in missing}
    image = evaluate(expr, tagged, params, apply, apply_dunkl, act, {})
    for exp, c in image.terms.items():
        parts[exp[_TAG]][exp[:2] + _NO_SPECTATORS] = c
    for ab, terms in parts.items():
        table[ab] = tuple(terms.items())


def apply(expr: Expr, p: MPoly, params: Params, memo=None) -> MPoly:
    """Apply an operator tree to a polynomial.

    One rule: a registry tree other than T and Tb, or a part in
    `DEGREE_PRESERVING`, at numeric params, called at top level or by
    `visit` from inside a walk, combines the per-monomial images of
    `_image_table`, each scaled by its term's coefficient and spectator
    cofactor.  Any other tree walks, sharing
    registry images within a fresh memo at top level or the walk's `memo`
    inside one.  Symbolic params walk too: no symbolic image is reused,
    so a table would only cost its fill (a copy that tabulated them was
    slower on the appendixA suite).
    """
    if id(expr) in _TABULATED and not params.is_symbolic:
        table = _image_table(id(expr), params)
        missing = [exp[:2] for exp in p.terms if exp[:2] not in table]
        if missing:
            _fill_images(expr, dict.fromkeys(missing), params, table)
        out: Dict[Exponent, QI] = {}
        for exp, c in p.terms.items():
            add_scaled(out, c, exp[2:], table[exp[:2]])
        return from_terms(out)
    return evaluate(expr, p, params, apply, apply_dunkl, act,
                    {} if memo is None else memo)


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


def _h_component(j: int) -> Expr:
    lj = ell(j)
    return Sum((
        Mul(Fraction(-1, 4) * QI.i_power(-j) * _W * _W * lj * lj),
        _scaled(QI.i_power(j), T, T),
        _scaled(-2, T, TB),
        _scaled(QI.i_power(-j), TB, TB),
    ))


def _angular() -> Expr:
    return Sum((Compose((Mul(_Z), T)), Compose((Mul(-_ZB), TB))))


def _quartic() -> Expr:
    # H_j = i^j P + i^-j Q + R with P = T^2 - w^2 zb^2/4 and
    # Q = Tb^2 - w^2 z^2/4, so sum_j (-1)^j H_j^2 keeps only 4P^2 + 4Q^2
    a = Sum((_scaled(2, T, T), Mul(Fraction(-1, 2) * _W * _W * _ZB * _ZB)))
    b = Sum((_scaled(2, TB, TB), Mul(Fraction(-1, 2) * _W * _W * _Z * _Z)))
    return Sum((Compose((a, a)), Compose((b, b))))


# the generators conjugated by the invariant Gaussian e^(-w z zb/2)
_T_HAT = Sum((T, Mul(Fraction(-1, 2) * _W * _ZB)))
_TB_HAT = Sum((TB, Mul(Fraction(-1, 2) * _W * _Z)))


def _hat(expr: Expr) -> Expr:
    """`expr` conjugated by the invariant Gaussian e^(-w z zb/2), acting on
    the polynomial parts p of wavefunctions p e^(-w z zb/2): T, Tb become
    T - w zb/2, Tb - w z/2, and `Mul` and `GroupOp` nodes commute with it."""
    if isinstance(expr, Dunkl):
        return _T_HAT if expr.var == "z" else _TB_HAT
    if isinstance(expr, (Mul, GroupOp)):
        return expr
    if isinstance(expr, (Sum, Compose)):
        return type(expr)(tuple(map(_hat, expr.parts)))
    raise TypeError(f"cannot conjugate {expr!r}")


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
        "Hcal": Sum((Mul(_W * _W * _Z * _ZB), _scaled(-4, T, TB))),
        "R": _central(),
    }
    reg["Hhat"] = _hat(reg["Hcal"])
    for j in range(4):
        reg[f"H_{j}"] = _h_component(j)
        reg[f"Hhat_{j}"] = _hat(reg[f"H_{j}"])
        reg[f"Lower_{j}"] = _lower(j)
        reg[f"Raise_{j}"] = _raise(j)
    reg["K"] = _quartic()
    reg["Khat"] = _hat(reg["K"])
    return reg


_REGISTRY = _build_registry()
_REGISTRY_IDS = frozenset(map(id, _REGISTRY.values()))


def _anticommutator(a: Expr, x: MPoly) -> Expr:
    return Sum((Compose((a, Mul(x))), Compose((Mul(x), a))))


# The parts of Khat and Hhat_0 that keep the degree of a homogeneous input.
# With S = T zb + zb T and Sb = Tb z + z Tb, hatting turns the parts
# a = 2T^2 - w^2 zb^2 / 2 and b = 2Tb^2 - w^2 z^2 / 2 of K = a^2 + b^2 into
# 2T^2 - w S and 2Tb^2 - w Sb, so Khat = 4T^4 - 2w (T^2 S + S T^2) + w^2 S^2
# + (the same in Tb, Sb).  With L = T - Tb and l_0 = z - zb,
# H_0 = L^2 - w^2 l_0^2 / 4 becomes Hhat_0 = L^2 + w/2 (L l_0 + l_0 L).
# T and Tb lower degree by one, and S, Sb and L l_0 + l_0 L keep it, so
# what keeps degree is w^2 (S^2 + Sb^2) and w/2 (L l_0 + l_0 L).  Tests
# prove both splits with symbolic couplings.  J2 keeps degree as it is.
_S = _anticommutator(T, _ZB)
_SB = _anticommutator(TB, _Z)
DEGREE_PRESERVING: Dict[str, Expr] = {
    "Khat": Compose((Mul(_W * _W),
                     Sum((Compose((_S, _S)), Compose((_SB, _SB)))))),
    "Hhat_0": Compose((Mul(Fraction(1, 2) * _W),
                       _anticommutator(_lower(0), ell(0)))),
}
# T and Tb image monomials through `_monomial_image` already
_TABULATED = ((_REGISTRY_IDS | frozenset(map(id, DEGREE_PRESERVING.values())))
              - {id(T), id(TB)})

OPERATOR_NAMES = tuple(sorted(_REGISTRY))


def _unknown_operator(name) -> str:
    return (f"unknown operator {name!r}; available: "
            + ", ".join(OPERATOR_NAMES))


def named(name: str) -> Expr:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(_unknown_operator(name)) from None


def apply_named(name: str, p: MPoly, params: Params) -> MPoly:
    return apply(named(name), p, params)


# ---- serialization ------------------------------------------------------

def expr_from_json(obj: dict) -> Expr:
    """Build an operator tree from its JSON form.  A malformed node raises
    ValueError naming the node kind and what it lacks."""
    if not isinstance(obj, dict):
        raise ValueError(f"operator node must be a JSON object, not {obj!r}")
    if "op" not in obj:
        raise ValueError("operator node lacks 'op'")
    kind = obj["op"]

    def field(key: str):
        if key not in obj:
            raise ValueError(f"{kind} node lacks {key!r}")
        return obj[key]

    if kind == "dunkl":
        # the registry generator, so that its images are shared
        return T if Dunkl(field("var")) == T else TB
    if kind == "mul":
        return Mul(MPoly.from_json_dict(field("poly")))
    if kind == "group":
        return GroupOp(parse_elem(field("element")))
    if kind in ("sum", "compose"):
        parts = field("parts")
        if not isinstance(parts, list):
            raise ValueError(f"{kind} node's 'parts' must be a list, "
                             f"not {parts!r}")
        return (Sum if kind == "sum" else Compose)(
            tuple(expr_from_json(e) for e in parts))
    if kind == "commutator":
        return Commutator(expr_from_json(field("a")),
                          expr_from_json(field("b")))
    if kind == "named":
        name = field("name")
        if isinstance(name, str) and name in _REGISTRY:
            return _REGISTRY[name]
        raise ValueError(_unknown_operator(name))
    raise ValueError(f"unknown operator node {kind!r}")
