"""Sparse multivariate polynomials over the Gaussian rationals.

Variables come from a fixed universe: the point coordinates ``z``/``zb``, a
second point ``u``/``ub`` used by reproducing-kernel states, the two coupling
parameters ``k0``/``k1`` and the frequency ``w``.  A polynomial stores only
the variables it actually uses, always listed in universe order, so equal
polynomials compare equal regardless of how they were built.

Coefficients are :class:`~b2dunkl.scalars.QI`.  All operations are exact.
``divide_linear`` performs the exact division by a homogeneous linear form
(the reflection lines ``z - i^j zb``) on which the difference part of the
Dunkl operators rests; it raises if the division leaves a remainder.
"""

from __future__ import annotations

from operator import add, itemgetter
from typing import Dict, Iterable, Mapping, Tuple, Union

from .scalars import ONE, QI, ScalarLike, format_rat, parse_rat

_UNIVERSE = ("z", "zb", "u", "ub", "k0", "k1", "w")
_UNIVERSE_INDEX = {name: i for i, name in enumerate(_UNIVERSE)}

Exponent = Tuple[int, ...]


class ExactDivisionError(ArithmeticError):
    """Polynomial division that was required to be exact left a remainder."""


def _term_sort_key(exp: Exponent):
    # graded ordering: total degree first, then lexicographic in universe order
    return (-sum(exp), tuple(-e for e in exp))


class MPoly:
    """Immutable sparse polynomial. Do not mutate ``terms`` from outside."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Iterable[str] = (),
                 terms: Mapping[Exponent, ScalarLike] = None):
        names = tuple(vars)
        for name in names:
            if name not in _UNIVERSE_INDEX:
                raise ValueError(f"unknown variable {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("repeated variable")
        order = sorted(range(len(names)),
                       key=lambda i: _UNIVERSE_INDEX[names[i]])
        names_sorted = tuple(names[i] for i in order)

        merged: Dict[Exponent, QI] = {}
        for exp, c in (terms or {}).items():
            c = QI.of(c)
            if not c:
                continue
            if len(exp) != len(names):
                raise ValueError("exponent arity mismatch")
            key = tuple(exp[i] for i in order)
            prev = merged.get(key)
            merged[key] = c + prev if prev is not None else c

        names_sorted, clean = _trim(names_sorted, merged)
        object.__setattr__(self, "vars", names_sorted)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MPoly":
        return _ZERO

    @classmethod
    def const(cls, c: ScalarLike) -> "MPoly":
        return _trusted((), {(): QI.of(c)})

    @classmethod
    def var(cls, name: str) -> "MPoly":
        if name not in _UNIVERSE_INDEX:
            raise ValueError(f"unknown variable {name!r}")
        return _trusted((name,), {(1,): ONE})

    # ---- predicates and views -----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Largest total degree among terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    def coefficient(self, mono: Mapping[str, int]) -> QI:
        """Coefficient of the monomial given as {var: exponent}."""
        exp = [0] * len(self.vars)
        for name, e in mono.items():
            if name not in _UNIVERSE_INDEX:
                raise ValueError(f"unknown variable {name!r}")
            if e == 0:
                continue
            if name not in self.vars:
                return QI(0)
            exp[self.vars.index(name)] = e
        return self.terms.get(tuple(exp), QI(0))

    def constant_value(self) -> QI:
        if self.vars:
            raise ValueError("polynomial is not constant")
        return self.terms.get((), QI(0))

    def sorted_terms(self):
        """Terms in the canonical graded order used for serialization."""
        return sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0]))

    # ---- ring operations ----------------------------------------------

    def _aligned_with(self, other: "MPoly"):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        merged = tuple(sorted(set(self.vars) | set(other.vars),
                              key=_UNIVERSE_INDEX.__getitem__))
        return merged, _remap(self.terms, self.vars, merged), \
            _remap(other.terms, other.vars, merged)

    @staticmethod
    def _coerce(value) -> "MPoly":
        if isinstance(value, MPoly):
            return value
        return MPoly.const(value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            try:
                other = MPoly.const(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __add__(self, other) -> "MPoly":
        other = self._coerce(other)
        vars_, a, b = self._aligned_with(other)
        out = dict(a)
        for exp, c in b.items():
            prev = out.get(exp)
            out[exp] = c + prev if prev is not None else c
        return _trusted(vars_, out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return _trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MPoly":
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return _ZERO
        vars_, a, b = self._aligned_with(other)
        out: Dict[Exponent, QI] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = tuple(map(add, ea, eb))
                c = ca * cb
                prev = out.get(exp)
                out[exp] = c + prev if prev is not None else c
        return _trusted(vars_, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power")
        out = MPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # ---- calculus and substitution ------------------------------------

    def diff(self, name: str) -> "MPoly":
        if name not in self.vars:
            return _ZERO
        i = self.vars.index(name)
        out: Dict[Exponent, QI] = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e == 0:
                continue
            nexp = exp[:i] + (e - 1,) + exp[i + 1:]
            nc = c * e
            prev = out.get(nexp)
            out[nexp] = nc + prev if prev is not None else nc
        return _trusted(self.vars, out)

    def subst(self, mapping: Mapping[str, Union["MPoly", ScalarLike]]) -> "MPoly":
        """Simultaneous substitution; unmapped variables stay themselves."""
        relevant = {k: v for k, v in mapping.items() if k in self.vars}
        if not relevant:
            return self
        if all(not isinstance(v, MPoly) for v in relevant.values()):
            idx = {self.vars.index(k): QI.of(v) for k, v in relevant.items()}
            out: Dict[Exponent, QI] = {}
            for exp, c in self.terms.items():
                for i, val in idx.items():
                    if exp[i]:
                        c = c * val ** exp[i]
                exp = tuple(0 if i in idx else e for i, e in enumerate(exp))
                prev = out.get(exp)
                out[exp] = c + prev if prev is not None else c
            return MPoly(self.vars, out)
        values = [self._coerce(relevant.get(v, MPoly.var(v)))
                  for v in self.vars]
        acc = _ZERO
        for exp, c in self.terms.items():
            term = MPoly.const(c)
            for val, e in zip(values, exp):
                if e:
                    term = term * val ** e
            acc = acc + term
        return acc

    # ---- exact division by a homogeneous linear form -------------------

    def divide_linear(self, divisor: "MPoly") -> "MPoly":
        """Exact quotient self / divisor for a 1- or 2-term linear form.

        Raises ExactDivisionError when the division is not exact.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        dterms = list(divisor.terms.items())
        if len(dterms) > 2 or any(sum(e) != 1 for e, _ in dterms):
            raise ValueError("divisor must be a homogeneous linear form "
                             "with one or two terms")
        if self.is_zero():
            return _ZERO

        vars_, p, d = self._aligned_with(divisor)
        dterms = sorted(d.items())   # by exponent tuple; deterministic
        # pivot variable X: the divisor term whose variable comes first
        (xexp, a) = min(dterms, key=lambda kv: kv[0].index(1) if 1 in kv[0]
                        else 0)
        xi = xexp.index(1)
        if len(dterms) == 1:
            out: Dict[Exponent, QI] = {}
            for exp, c in p.items():
                if exp[xi] == 0:
                    raise ExactDivisionError("monomial divisor does not "
                                             "divide all terms")
                out[exp[:xi] + (exp[xi] - 1,) + exp[xi + 1:]] = c / a
            return _trusted(vars_, out)

        (yexp, b) = next(kv for kv in dterms if kv[0] != xexp)
        yi = yexp.index(1)
        tc = -b / a                  # divisor = a*(X - tc*Y)
        yi_red = yi - 1 if yi > xi else yi

        buckets: Dict[int, Dict[Exponent, QI]] = {}
        for exp, c in p.items():
            k = exp[xi]
            red = exp[:xi] + exp[xi + 1:]
            buckets.setdefault(k, {})[red] = c
        dmax = max(buckets)
        if dmax == 0:
            # no pivot variable at all, so no multiple of the divisor
            raise ExactDivisionError("nonzero remainder")

        def add_t_times(dst: Dict[Exponent, QI], src: Dict[Exponent, QI]):
            for exp, c in src.items():
                nexp = exp[:yi_red] + (exp[yi_red] + 1,) + exp[yi_red + 1:]
                nc = c * tc
                prev = dst.get(nexp)
                nc = nc + prev if prev is not None else nc
                if nc:
                    dst[nexp] = nc
                elif prev is not None:
                    del dst[nexp]

        quot: Dict[int, Dict[Exponent, QI]] = {dmax - 1: dict(buckets.get(dmax, {}))}
        for k in range(dmax - 1, 0, -1):
            acc = dict(buckets.get(k, {}))
            add_t_times(acc, quot[k])
            quot[k - 1] = acc
        rem = dict(buckets.get(0, {}))
        add_t_times(rem, quot[0])
        if any(rem.values()):
            raise ExactDivisionError("nonzero remainder")

        out = {}
        for k, bucket in quot.items():
            for red, c in bucket.items():
                if c:
                    out[red[:xi] + (k,) + red[xi:]] = c / a
        return _trusted(vars_, out)

    # ---- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [
                {"exp": list(exp),
                 "re": format_rat(c.re),
                 "im": format_rat(c.im)}
                for exp, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "MPoly":
        names = tuple(obj["vars"])
        terms = {}
        for t in obj["terms"]:
            exp = tuple(int(e) for e in t["exp"])
            terms[exp] = QI(parse_rat(t["re"]), parse_rat(t["im"]))
        return cls(names, terms)

    # ---- display --------------------------------------------------------

    def __repr__(self) -> str:
        return f"MPoly({self.vars!r}, {self.terms!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            if c != QI(1) or not any(exp):
                factors.append(f"({c})")
            for name, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def _remap(terms: Mapping[Exponent, QI], src: Tuple[str, ...],
           dst: Tuple[str, ...]) -> Dict[Exponent, QI]:
    # position -1 reads the 0 appended to every exponent
    pos = [src.index(v) if v in src else -1 for v in dst]
    if len(pos) == 1:
        p = pos[0]
        return {((exp + (0,))[p],): c for exp, c in terms.items()}
    get = itemgetter(*pos)
    return {get(exp + (0,)): c for exp, c in terms.items()}


def _trim(vars_: Tuple[str, ...], terms: Dict[Exponent, QI]):
    """Drop zero coefficients, then the variables no remaining term uses."""
    clean = {exp: c for exp, c in terms.items() if c}
    if not clean:
        return (), clean
    used = [any(col) for col in zip(*clean)]
    if not all(used):
        keep = [i for i, u in enumerate(used) if u]
        vars_ = tuple(vars_[i] for i in keep)
        clean = {tuple(exp[i] for i in keep): c for exp, c in clean.items()}
    return vars_, clean


def _trusted(vars_: Tuple[str, ...], terms: Dict[Exponent, QI]) -> MPoly:
    """The result of a ring operation: ``vars_`` in universe order, exponent
    tuples of that arity, every key once and every coefficient a QI.  Only
    zero coefficients and unused variables are removed; nothing is
    validated, unlike ``MPoly(vars, terms)``."""
    vars_, terms = _trim(vars_, terms)
    out = MPoly.__new__(MPoly)
    object.__setattr__(out, "vars", vars_)
    object.__setattr__(out, "terms", terms)
    return out


_ZERO = MPoly((), {})
