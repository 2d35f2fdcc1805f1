"""Exact calculus over the weighted function space.

Elements are polynomial numerators carrying a formal power of the group
invariant weight (the product of the squared mirror forms raised to the two
couplings) and an explicit four-vector of mirror-line denominator exponents.
Differentiation uses the logarithmic derivative of the weight, so results
stay in the same class, and reflections permute the mirror lines up to unit
phases.  The point of the module is verify_weighted_conjugation, which
checks that the gauge transform of the second-order conserved operator by
the weight equals its raw Schroedinger form plus inverse-square mirror
terms, monomial by monomial, with couplings and frequency symbolic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple, Union

from .group import GroupElem, act, ell, reflection
from .operators import apply_named
from .params import Params
from .poly import ExactDivisionError, MPoly
from .scalars import QI

_Z = MPoly.var("z")
_ZB = MPoly.var("zb")
_K0 = MPoly.var("k0")
_K1 = MPoly.var("k1")
_W = MPoly.var("w")

_EVEN = ell(0) * ell(2)      # z^2 - zb^2
_ODD = ell(1) * ell(3)       # z^2 + zb^2
_DENOM_VARS = ("k0", "k1", "w")

DenExp = Tuple[int, int, int, int]


class WeightedElem:
    """num * h^hpow / (l0^e0 l1^e1 l2^e2 l3^e3), kept in reduced form."""

    __slots__ = ("hpow", "num", "den")

    def __init__(self, hpow: int, num: Union[MPoly, int, Fraction, QI],
                 den: DenExp = (0, 0, 0, 0)):
        if hpow not in (-1, 0, 1):
            raise ValueError("weight exponent must be -1, 0 or 1")
        if not isinstance(num, MPoly):
            num = MPoly.const(num)
        den = tuple(int(e) for e in den)
        if len(den) != 4 or any(e < 0 for e in den):
            raise ValueError("denominator exponents must be 4 nonnegative "
                             "integers")
        if num.is_zero():
            hpow, den = 0, (0, 0, 0, 0)
        else:
            work = list(den)
            for j in range(4):
                while work[j] > 0:
                    try:
                        num = num.divide_linear(ell(j))
                    except ExactDivisionError:
                        break
                    work[j] -= 1
            den = tuple(work)
        object.__setattr__(self, "hpow", hpow)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedElem is immutable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedElem):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.hpow != other.hpow:
            return False
        lhs, rhs = self.num, other.num
        for j in range(4):
            lj = ell(j)
            lhs = lhs * lj ** other.den[j]
            rhs = rhs * lj ** self.den[j]
        return lhs == rhs

    def __hash__(self):
        raise TypeError("unhashable; compare with ==")

    def times(self, factor) -> "WeightedElem":
        if isinstance(factor, WeightedElem):
            den = tuple(a + b for a, b in zip(self.den, factor.den))
            return WeightedElem(self.hpow + factor.hpow,
                                self.num * factor.num, den)
        return WeightedElem(self.hpow, self.num * factor, self.den)

    def __neg__(self) -> "WeightedElem":
        return WeightedElem(self.hpow, -self.num, self.den)

    def __add__(self, other: "WeightedElem") -> "WeightedElem":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.hpow != other.hpow:
            raise ValueError("cannot add different weight exponents")
        den = tuple(max(a, b) for a, b in zip(self.den, other.den))
        a, b = self.num, other.num
        for j in range(4):
            a = a * ell(j) ** (den[j] - self.den[j])
            b = b * ell(j) ** (den[j] - other.den[j])
        return WeightedElem(self.hpow, a + b, den)

    def __sub__(self, other: "WeightedElem") -> "WeightedElem":
        return self + (-other)

    def div_ell(self, j: int, k: int = 1) -> "WeightedElem":
        den = list(self.den)
        den[j % 4] += k
        return WeightedElem(self.hpow, self.num, tuple(den))

    def diff(self, var: str) -> "WeightedElem":
        """Exact derivative in z or zb; the weight differentiates through
        its logarithmic derivative and every mirror exponent goes up one."""
        if var not in ("z", "zb"):
            raise ValueError("can only differentiate in z or zb")
        full = ell(0) * ell(1) * ell(2) * ell(3)
        num = self.num.diff(var) * full
        if self.hpow:
            log_d = (_K0 * _EVEN.diff(var) * _ODD
                     + _K1 * _ODD.diff(var) * _EVEN)
            num = num + self.hpow * (self.num * log_d)
        for j, e in enumerate(self.den):
            if not e:
                continue
            dl = ell(j).diff(var).constant_value()
            rest = MPoly.const(1)
            for k in range(4):
                if k != j:
                    rest = rest * ell(k)
            num = num - (e * dl) * (self.num * rest)
        den = tuple(e + 1 for e in self.den)
        return WeightedElem(self.hpow, num, den)

    def reflect(self, g: GroupElem) -> "WeightedElem":
        """Group action; the weight itself is invariant, the mirror lines
        permute with unit phases that get absorbed into the numerator."""
        num = act(g, self.num)
        den = [0, 0, 0, 0]
        for j, e in enumerate(self.den):
            if not e:
                continue
            if g.refl:
                tgt = (2 * g.k - j) % 4
                unit = -QI.i_power(j - g.k)
            else:
                tgt = (j - 2 * g.k) % 4
                unit = QI.i_power(g.k)
            den[tgt] += e
            num = (1 / unit ** e) * num
        return WeightedElem(self.hpow, num, tuple(den))

    def instantiated(self, params: Params) -> "WeightedElem":
        return WeightedElem(self.hpow, params.instantiate(self.num),
                            self.den)

    def __repr__(self) -> str:
        return (f"WeightedElem(hpow={self.hpow}, num={self.num}, "
                f"den={self.den})")


def verify_weighted_conjugation(p: MPoly,
                                params: Optional[Params] = None) -> bool:
    """Check the weight-conjugation identity for the second-order conserved
    operator on one polynomial: the weighted image of (frequency^2 z zb - the
    Dunkl Laplacian) equals the raw Schroedinger operator on the weighted
    polynomial plus the four inverse-square mirror corrections."""
    if params is None:
        params = Params.symbolic()
    w2zzb = params.instantiate(_W * _W * _Z * _ZB)
    lhs = WeightedElem(1, w2zzb * p - apply_named("DeltaKappa", p, params))

    hp = WeightedElem(1, p)
    rhs = hp.diff("zb").diff("z").times(-4) + hp.times(w2zzb)
    for j in range(4):
        kap = params.kappa(j)
        diff = hp.times(kap) - hp.reflect(reflection(j))
        term = diff.times(kap).times(QI.i_power(j) * Fraction(-4))
        rhs = rhs + term.div_ell(j, 2)
    return lhs.instantiated(params) == rhs.instantiated(params)
