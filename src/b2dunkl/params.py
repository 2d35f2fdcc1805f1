"""Model parameters: two reflection couplings and the oscillator frequency.

Parameters are either all numeric (exact rationals) or all symbolic, in which
case they enter polynomials as the variables ``k0``, ``k1``, ``w``.  Numeric
parameters must be generic: k0 + k1 must not be 0 or 1, otherwise one of the
recurring denominators ``2n + k0 + k1 + r`` vanishes, basis functions
degenerate and coefficient tables lose meaning.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from .poly import MPoly
from .record import Keyed
from .scalars import format_rat, parse_rat

RatOrPoly = Union[Fraction, MPoly]


class Params(Keyed):
    __slots__ = ("k0", "k1", "w")

    def __init__(self, k0: Optional[Fraction], k1: Optional[Fraction],
                 w: Optional[Fraction]):
        vals = (k0, k1, w)
        if any(v is None for v in vals):
            if not all(v is None for v in vals):
                raise ValueError("parameters must be all numeric or all "
                                 "symbolic")
        else:
            if k0 < 0 or k1 < 0:
                raise ValueError("couplings must be nonnegative")
            if w <= 0:
                raise ValueError("frequency must be positive")
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "w", w)
        # every memo lookup hashes and compares its Params key; reduce the
        # Fractions to one integer tuple once, and hash that once
        self._keep(None if k0 is None else tuple(
            n for v in vals for n in (v.numerator, v.denominator)))

    @classmethod
    def numeric(cls, k0, k1, w) -> "Params":
        def conv(v):
            return parse_rat(v) if isinstance(v, str) else Fraction(v)
        return cls(conv(k0), conv(k1), conv(w))

    @classmethod
    def symbolic(cls) -> "Params":
        return cls(None, None, None)

    @property
    def is_symbolic(self) -> bool:
        return self.k0 is None

    # parameter values as ring elements ----------------------------------

    def kappa(self, j: int) -> RatOrPoly:
        """Coupling attached to reflection class j mod 2."""
        if self.is_symbolic:
            return MPoly.var("k0" if j % 2 == 0 else "k1")
        return self.k0 if j % 2 == 0 else self.k1

    def omega(self) -> RatOrPoly:
        return MPoly.var("w") if self.is_symbolic else self.w

    def gamma(self) -> RatOrPoly:
        """2*k0 + 2*k1, the total coupling weight."""
        if self.is_symbolic:
            return 2 * MPoly.var("k0") + 2 * MPoly.var("k1")
        return 2 * self.k0 + 2 * self.k1

    def instantiate(self, p: MPoly) -> MPoly:
        """Substitute numeric parameter values into a polynomial."""
        if self.is_symbolic:
            return p
        return p.subst({"k0": self.k0, "k1": self.k1, "w": self.w})

    # genericity -----------------------------------------------------------

    def is_generic(self, max_degree: int) -> bool:
        """No vanishing structural denominator up to the given degree."""
        if self.is_symbolic:
            return True
        # couplings are nonnegative, so 2n + k0 + k1 + r (r >= -1) can only
        # vanish at n = 0 with r in {-1, 0}
        return self.k0 + self.k1 not in (0, 1)

    def require_generic(self, max_degree: int) -> None:
        if not self.is_generic(max_degree):
            raise ValueError(
                f"parameters k0={self.k0}, k1={self.k1} are not generic "
                f"up to degree {max_degree}: a structural denominator "
                "2n + k0 + k1 + r vanishes")

    def label(self) -> str:
        return (f"k0={format_rat(self.k0)},k1={format_rat(self.k1)},"
                f"w={format_rat(self.w)}")

    def to_json_dict(self) -> dict:
        return {"k0": format_rat(self.k0), "k1": format_rat(self.k1),
                "w": format_rat(self.w)}


DEFAULT_PARAMS = Params(Fraction(3, 7), Fraction(5, 11), Fraction(2, 3))

# alternative generic triples used for stability checks of contested formulas
EXTRA_PARAM_SETS = (
    Params(Fraction(7, 5), Fraction(2, 9), Fraction(5, 7)),
    Params(Fraction(4, 9), Fraction(10, 13), Fraction(3, 2)),
)
