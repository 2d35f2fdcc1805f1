"""Sparse multivariate polynomials over the Gaussian rationals.

Variables come from a fixed universe: the point coordinates ``z``/``zb``, a
second point ``u``/``ub`` used by reproducing-kernel states, the two coupling
parameters ``k0``/``k1`` and the frequency ``w``.  Every exponent vector over
the whole universe is packed into one int (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007), so polynomials share one layout and no operation aligns variables;
equal polynomials compare equal regardless of how they were built.

The packed exponent has one ``WIDTH``-bit field per variable: field i holds
the exponent of ``UNIVERSE[i]`` at bit ``SHIFT[UNIVERSE[i]]``, z in the
highest field and w in the lowest, so int order is the lexicographic order
of the exponent tuples.  A product's exponent is one int add, a derivative
subtracts a unit, and the z/zb part of an exponent is ``exp >> SHIFT["zb"]``.
The top bit of each field is a guard: an exponent must stay below
``LIMIT`` = 2^31.  The public constructor refuses a larger one, and a
product or a spectator shift whose sum sets a guard bit raises, so no sum
ever carries into the next field; both raise ValueError("exponent too
large").  `unpack` gives the exponent tuple over ``UNIVERSE``.
``vars`` lists the variables some term uses, and the public
constructor, serialization and display unpack and speak in those variables
only, so no output shows the packing.

Coefficients are :class:`~b2dunkl.scalars.QI`.  All operations are exact.
``divide_linear`` performs the exact division by a two-term homogeneous
linear form (the mirror lines ``z - i^j zb``) and raises if it leaves a
remainder.
The Dunkl operators do not divide: their difference parts come from the
closed-form quotients of ``operators.monomial_quotients``.  The division is
their test oracle, the mirror factors of the ``weighted`` identity use it,
and the benchmark times it.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

from .scalars import ONE, QI, ScalarLike, parse_rat

UNIVERSE = ("z", "zb", "u", "ub", "k0", "k1", "w")

WIDTH = 32
MASK = (1 << WIDTH) - 1             # one field, shifted down
LIMIT = 1 << (WIDTH - 1)            # the first exponent a field refuses
_SHIFTS = tuple(WIDTH * (len(UNIVERSE) - 1 - i) for i in range(len(UNIVERSE)))
SHIFT = dict(zip(UNIVERSE, _SHIFTS))
GUARD = sum(LIMIT << s for s in _SHIFTS)     # the top bit of every field
_CONST = 0

# a packed exponent vector; see the module docstring
Exponent = int


def unpack(exp: Exponent) -> Tuple[int, ...]:
    """The exponent tuple over ``UNIVERSE`` of a packed exponent."""
    return tuple((exp >> s) & MASK for s in _SHIFTS)


def _too_large():
    raise ValueError("exponent too large")


class ExactDivisionError(ArithmeticError):
    """Polynomial division that was required to be exact left a remainder."""


def _term_sort_key(exp: Tuple[int, ...]):
    # graded ordering: total degree first, then lexicographic in universe order
    return (-sum(exp), tuple(-e for e in exp))


class MPoly:
    """Immutable sparse polynomial. Do not mutate ``terms`` from outside.

    ``terms`` maps packed exponents to nonzero coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, vars: Iterable[str] = (),
                 terms: Union[Mapping[Sequence[int], ScalarLike],
                              Iterable] = None):
        """Polynomial from exponents listed over ``vars``, in any order.
        ``terms`` is a mapping or (exponent, coefficient) pairs; the
        coefficients of a repeated exponent add up."""
        names = tuple(vars)
        for name in names:
            if name not in SHIFT:
                raise ValueError(f"unknown variable {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("repeated variable")
        shifts = [SHIFT[name] for name in names]

        merged: Dict[Exponent, QI] = {}
        if isinstance(terms, Mapping):
            terms = terms.items()
        for exp, c in terms or ():
            if len(exp) != len(names):
                raise ValueError("exponent arity mismatch")
            if not all(type(e) is int and e >= 0 for e in exp):
                raise ValueError(f"exponents must be nonnegative integers, "
                                 f"not {list(exp)}")
            if any(e >= LIMIT for e in exp):
                _too_large()
            c = QI.of(c)
            if not c:
                continue
            key = sum(e << s for e, s in zip(exp, shifts))
            prev = merged.get(key)
            merged[key] = c + prev if prev is not None else c
        object.__setattr__(self, "terms",
                           {e: c for e, c in merged.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @property
    def vars(self) -> Tuple[str, ...]:
        """The variables some term uses, in universe order."""
        return tuple(UNIVERSE[i] for i in self._used())

    def _used(self):
        seen = reduce(or_, self.terms, 0)
        return [i for i, s in enumerate(_SHIFTS) if (seen >> s) & MASK]

    def _projected(self) -> Dict[Tuple[int, ...], QI]:
        """``terms`` with each exponent unpacked and listed over ``vars``."""
        shifts = [_SHIFTS[i] for i in self._used()]
        return {tuple([(exp >> s) & MASK for s in shifts]): c
                for exp, c in self.terms.items()}

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MPoly":
        return _ZERO

    @classmethod
    def const(cls, c: ScalarLike) -> "MPoly":
        return from_terms({_CONST: QI.of(c)})

    @classmethod
    def var(cls, name: str) -> "MPoly":
        if name not in SHIFT:
            raise ValueError(f"unknown variable {name!r}")
        return from_terms({1 << SHIFT[name]: ONE})

    # ---- predicates and views -----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Largest total degree among terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(unpack(e)) for e in self.terms)

    def coefficient(self, mono: Mapping[str, int]) -> QI:
        """Coefficient of the monomial given as {var: exponent}."""
        exp = 0
        for name, e in mono.items():
            if name not in SHIFT:
                raise ValueError(f"unknown variable {name!r}")
            if not 0 <= e < LIMIT:
                return QI(0)        # no term has that exponent
            exp += e << SHIFT[name]
        return self.terms.get(exp, QI(0))

    def sorted_terms(self):
        """Terms in the canonical graded order used for serialization, each
        exponent listed over ``vars``."""
        return sorted(self._projected().items(),
                      key=lambda kv: _term_sort_key(kv[0]))

    # ---- ring operations ----------------------------------------------

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
        return self.terms == other.terms

    def __add__(self, other) -> "MPoly":
        out = dict(self.terms)
        for exp, c in self._coerce(other).terms.items():
            prev = out.get(exp)
            out[exp] = c + prev if prev is not None else c
        return from_terms(out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return from_terms({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MPoly":
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return _ZERO
        # a constant factor scales the coefficients and moves no exponent
        if len(other.terms) == 1 and _CONST in other.terms:
            k = other.terms[_CONST]
            return from_terms({e: c * k for e, c in self.terms.items()})
        if len(self.terms) == 1 and _CONST in self.terms:
            k = self.terms[_CONST]
            return from_terms({e: k * c for e, c in other.terms.items()})
        out: Dict[Exponent, QI] = {}
        add_product(out, self.terms, other.terms)
        return from_terms(out)

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
        s = SHIFT.get(name)
        if s is None:
            return _ZERO
        unit = 1 << s
        out: Dict[Exponent, QI] = {}
        for exp, c in self.terms.items():
            e = (exp >> s) & MASK
            if e == 0:
                continue
            nexp = exp - unit
            nc = c * e
            prev = out.get(nexp)
            out[nexp] = nc + prev if prev is not None else nc
        return from_terms(out)

    def subst(self, mapping: Mapping[str, ScalarLike]) -> "MPoly":
        """Simultaneous substitution of exact scalars; unmapped variables
        stay themselves.  A non-scalar value raises TypeError."""
        vals = {SHIFT[k]: QI.of(v) for k, v in mapping.items() if k in SHIFT}
        seen = reduce(or_, self.terms, 0)
        if not any((seen >> s) & MASK for s in vals):
            return self
        out: Dict[Exponent, QI] = {}
        for exp, c in self.terms.items():
            for s, val in vals.items():
                e = (exp >> s) & MASK
                if e:
                    c = c * val ** e
                    exp -= e << s
            prev = out.get(exp)
            out[exp] = c + prev if prev is not None else c
        return from_terms(out)

    # ---- exact division by a homogeneous linear form -------------------

    def divide_linear(self, divisor: "MPoly") -> "MPoly":
        """Exact quotient self / divisor for a two-term homogeneous linear
        form a X + b Y, such as a mirror line z - i^j zb.

        Raises ExactDivisionError when the division is not exact.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if (len(divisor.terms) != 2
                or any(sum(unpack(e)) != 1 for e in divisor.terms)):
            raise ValueError("divisor must be a homogeneous linear form "
                             "with two terms")
        if self.is_zero():
            return _ZERO

        # pivot variable X: the divisor term whose variable comes first,
        # which has the larger packed exponent; each exponent is a unit
        (xunit, a), (yunit, b) = sorted(divisor.terms.items(), reverse=True)
        sx = xunit.bit_length() - 1
        tc = -b / a                  # divisor = a*(X - tc*Y)

        # the terms by their X exponent k, each with X removed
        buckets: Dict[int, Dict[Exponent, QI]] = {}
        for exp, c in self.terms.items():
            k = (exp >> sx) & MASK
            buckets.setdefault(k, {})[exp - (k << sx)] = c
        dmax = max(buckets)
        if dmax == 0:
            # no pivot variable at all, so no multiple of the divisor
            raise ExactDivisionError("nonzero remainder")

        def add_t_times(dst: Dict[Exponent, QI], src: Dict[Exponent, QI]):
            for exp, c in src.items():
                nexp = exp + yunit
                if nexp & GUARD:
                    _too_large()
                nc = c * tc
                prev = dst.get(nexp)
                nc = nc + prev if prev is not None else nc
                if nc:
                    dst[nexp] = nc
                elif prev is not None:
                    del dst[nexp]

        quot: Dict[int, Dict[Exponent, QI]] = {dmax - 1:
                                               dict(buckets.get(dmax, {}))}
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
                    out[red + (k << sx)] = c / a
        return from_terms(out)

    # ---- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = []
        for exp, c in self.sorted_terms():
            re, im = c.texts()
            terms.append({"exp": list(exp), "re": re, "im": im})
        return {"vars": list(self.vars), "terms": terms}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "MPoly":
        """Polynomial from its JSON form.  A malformed document raises
        ValueError saying which part is wrong."""
        if not isinstance(obj, dict):
            raise ValueError(f"polynomial must be a JSON object, not {obj!r}")
        for key in ("vars", "terms"):
            if key not in obj:
                raise ValueError(f"polynomial lacks {key!r}")
        names = obj["vars"]
        if not (isinstance(names, list)
                and all(isinstance(name, str) for name in names)):
            raise ValueError("vars must be a list of variable names")
        if not isinstance(obj["terms"], list):
            raise ValueError(f"terms must be a list, not {obj['terms']!r}")
        terms = []
        for t in obj["terms"]:
            if not (isinstance(t, dict) and {"exp", "re", "im"} <= t.keys()
                    and isinstance(t["exp"], list)):
                raise ValueError(f"a term must be an object with an 'exp' "
                                 f"list, 're' and 'im', not {t!r}")
            terms.append((t["exp"], QI(parse_rat(t["re"]),
                                       parse_rat(t["im"]))))
        return cls(tuple(names), terms)

    # ---- display --------------------------------------------------------

    def __repr__(self) -> str:
        return f"MPoly({self.vars!r}, {self._projected()!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.vars
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            if c != ONE or not any(exp):
                factors.append(f"({c})")
            for name, e in zip(names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def add_product(out: Dict[Exponent, QI], p: Mapping[Exponent, QI],
                q: Mapping[Exponent, QI]) -> None:
    """out += p q for term dicts p and q, term by term, into a term dict
    that ``from_terms`` reads; a sum of products built this way forms no
    intermediate polynomial.  A product exponent that sets a guard bit
    raises ValueError("exponent too large")."""
    qt = q.items()
    for ea, ca in p.items():
        for eb, cb in qt:
            exp = ea + eb
            if exp & GUARD:
                _too_large()
            c = ca * cb
            prev = out.get(exp)
            out[exp] = c + prev if prev is not None else c


def add_scaled(out: Dict[Exponent, QI], c: QI, rest: Exponent,
               terms: Iterable[Tuple[Exponent, QI]]) -> None:
    """out += c s terms, where s is the monomial with packed exponent
    `rest`.  A shifted exponent that sets a guard bit raises
    ValueError("exponent too large")."""
    for exp, tc in terms:
        key = exp + rest
        if key & GUARD:
            _too_large()
        term = c * tc
        prev = out.get(key)
        out[key] = term + prev if prev is not None else term


def from_terms(terms: Dict[Exponent, QI]) -> MPoly:
    """Polynomial from terms as ring operations produce them: packed
    exponents, every key once and every coefficient a QI.
    Only zero coefficients are dropped; nothing is validated, unlike
    ``MPoly(vars, terms)``."""
    out = MPoly.__new__(MPoly)
    object.__setattr__(out, "terms", {e: c for e, c in terms.items() if c})
    return out


_ZERO = MPoly((), {})
