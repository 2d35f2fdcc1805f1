"""Exact scalar arithmetic over the Gaussian rationals.

Every number in this package is either a ``fractions.Fraction`` or a ``QI``,
a complex number with rational real and imaginary parts.  A ``QI`` stores one
canonical triple of integers ``(a, b, d)`` meaning ``(a + b*i) / d``, with
``d > 0`` and ``gcd(a, b, d) == 1``, so equal values have equal triples.  Each
operation is integer arithmetic followed by at most one three-argument
``math.gcd`` (rational arithmetic that normalises once, Knuth, TAOCP vol. 2,
4.5.1).  Values cross to and from ``Fraction`` and text as integers: a
``QI`` is built from the ``numerator`` and ``denominator`` of the ints and
``Fraction``s it is given, ``QI.texts`` writes both parts as "p/q" from the
triple with one two-argument gcd each, and ``format_rat`` reads an int or
``Fraction`` without copying it.  The parts are read back as ``Fraction``s
through ``.re`` and ``.im`` only by callers that need the values.  There is
no floating point anywhere; equality of computed quantities always means
exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Tuple, Union

RatLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "QI"]


def parse_rat(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into an exact rational.

    Decimal notation is rejected on purpose: callers must state exact values.
    """
    if not isinstance(text, str) or "." in text or "e" in text or "E" in text:
        raise ValueError(f"not an exact rational literal: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational literal: {text!r}") from exc


def format_rat(value: RatLike) -> str:
    """Render a rational as 'p/q' with the denominator always explicit."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


class QI:
    """Gaussian rational (a + b*i)/d with exact field arithmetic.

    Treat instances as immutable: the triple is canonical and hashed.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        # an int or Fraction is read through its numerator and denominator
        # as it stands; anything else goes through Fraction() first
        if not isinstance(re, (int, Fraction)):
            re = Fraction(re)
        if not isinstance(im, (int, Fraction)):
            im = Fraction(im)
        q, s = re.denominator, im.denominator
        # over the least common denominator of two reduced fractions the
        # triple is already coprime
        d = q // gcd(q, s) * s
        self._a = re.numerator * (d // q)
        self._b = im.numerator * (d // s)
        self._d = d

    @classmethod
    def of(cls, value: ScalarLike) -> "QI":
        if isinstance(value, QI):
            return value
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"not an exact scalar: {value!r}")
        return cls(value)

    @classmethod
    def i_power(cls, k: int) -> "QI":
        """i**k for any integer k."""
        return _I_POWERS[k % 4]

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def triple(self):
        """The canonical (a, b, d) with self == (a + b*i)/d."""
        return self._a, self._b, self._d

    def texts(self) -> Tuple[str, str]:
        """The real and imaginary parts as 'p/q', the texts
        ``format_rat(self.re)`` and ``format_rat(self.im)`` give, written
        from the triple: a part's fraction a/d reduces by gcd(a, d)."""
        a, b, d = self._a, self._b, self._d
        if d == 1:
            return f"{a}/1", f"{b}/1"
        g = gcd(a, d)
        h = gcd(b, d)
        return f"{a // g}/{d // g}", f"{b // h}/{d // h}"

    def conj(self) -> "QI":
        return _qi(self._a, -self._b, self._d)

    def phases(self) -> Tuple["QI", "QI", "QI", "QI"]:
        """(self, i self, -self, -i self): self times i^r at index r.  Each
        is a rotation of the canonical triple, so no product runs."""
        a, b, d = self._a, self._b, self._d
        return self, _qi(-b, a, d), _qi(-a, -b, d), _qi(b, -a, d)

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other) -> bool:
        if type(other) is not QI:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self):
        # a real value hashes like the equal int or Fraction
        if self._b == 0:
            return hash(self.re)
        return hash((self._a, self._b, self._d))

    def __add__(self, other: ScalarLike) -> "QI":
        if type(other) is not QI:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = other._a, other._b, other._d
        if d1 == d2:
            if d1 == 1:
                return _qi(a1 + a2, b1 + b2, 1)
            return _reduced(a1 + a2, b1 + b2, d1)
        # adding a Gaussian integer keeps the triple coprime
        if d2 == 1:
            return _qi(a1 + a2 * d1, b1 + b2 * d1, d1)
        if d1 == 1:
            return _qi(a1 * d2 + a2, b1 * d2 + b2, d2)
        return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "QI":
        if type(other) is not QI:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self + _qi(-other._a, -other._b, other._d)

    def __rsub__(self, other: ScalarLike) -> "QI":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "QI":
        return _qi(-self._a, -self._b, self._d)

    def __mul__(self, other: ScalarLike) -> "QI":
        if type(other) is not QI:
            if type(other) is int:
                if other == 0:
                    return ZERO
                # gcd(a*n, b*n, d) == gcd(n, d) for a coprime triple
                d = self._d
                if d != 1:
                    g = gcd(other, d)
                    if g != 1:
                        other //= g
                        d //= g
                return _qi(self._a * other, self._b * other, d)
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = other._a, other._b, other._d
        if b1 == 0 and b2 == 0:
            a, b = a1 * a2, 0
        else:
            a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        d = d1 * d2
        if d == 1:
            return _qi(a, b, 1)
        return _reduced(a, b, d)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "QI":
        if type(other) is not QI:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = other._a, other._b, other._d
        if b2 == 0:
            if a2 == 0:
                raise ZeroDivisionError("division by zero scalar")
            if a2 == 1 and d2 == 1:
                return self
            if a2 < 0:
                a2, d2 = -a2, -d2
            return _reduced(a1 * d2, b1 * d2, d1 * a2)
        n = a2 * a2 + b2 * b2
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                        d1 * n)

    def __rtruediv__(self, other: ScalarLike) -> "QI":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int) -> "QI":
        if k < 0:
            return ONE / self ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self) -> str:
        return f"QI({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        re, im = self.texts()
        if self._b == 0:
            return re
        return f"{re}+{im}i"


_new = object.__new__


def _qi(a: int, b: int, d: int) -> QI:
    """A QI from a triple that is already canonical."""
    q = _new(QI)
    q._a = a
    q._b = b
    q._d = d
    return q


def _reduced(a: int, b: int, d: int) -> QI:
    """The canonical QI for (a + b*i)/d, given d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    q = _new(QI)
    q._a = a
    q._b = b
    q._d = d
    return q


def _coerce(value) -> Union[QI, None]:
    """An int or Fraction as a QI; None for anything that is not a scalar."""
    if isinstance(value, int):
        return _qi(value, 0, 1)
    if isinstance(value, Fraction):
        return _qi(value.numerator, 0, value.denominator)
    return None


_I_POWERS = (QI(1), QI(0, 1), QI(-1), QI(0, -1))

ZERO = QI(0)
ONE = QI(1)
