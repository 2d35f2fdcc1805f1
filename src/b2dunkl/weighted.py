"""Weight conjugation of the second-order conserved operator.

Conjugating the raw Schroedinger form -4 d_z d_zb + w^2 z zb by the group
invariant weight h = (z^2 - zb^2)^k0 (z^2 + zb^2)^k1 and adding the four
inverse-square mirror terms gives w^2 z zb minus the Dunkl Laplacian.
Dividing by h and multiplying by D^2, with D the product of the four mirror
lines, turns that identity into one polynomial equation per input
polynomial, with couplings and frequency symbolic.  The logarithmic
derivatives of the weight enter through a_v = D d_v log h, a polynomial.
"""

from __future__ import annotations

from .group import act, ell, reflection
from .operators import apply_named
from .params import Params
from .poly import MPoly
from .scalars import QI

_SYMBOLIC = Params.symbolic()
_K0 = MPoly.var("k0")
_K1 = MPoly.var("k1")
_W2ZZB = MPoly.var("w") ** 2 * MPoly.var("z") * MPoly.var("zb")

_EVEN = ell(0) * ell(2)      # z^2 - zb^2
_ODD = ell(1) * ell(3)       # z^2 + zb^2
_D = _EVEN * _ODD
_D2 = _D * _D


def _log_derivative(var: str) -> MPoly:
    """D times the derivative of log h in z or zb."""
    return _K0 * _EVEN.diff(var) * _ODD + _K1 * _ODD.diff(var) * _EVEN


_A_Z = _log_derivative("z")
_A_ZB = _log_derivative("zb")
# D^2 (d_z d_zb h) / h, the potential left after moving h past d_z d_zb
_V = _D * _A_Z.diff("zb") - _A_Z * _D.diff("zb") + _A_Z * _A_ZB
# (D / ell_j)^2 clears the inverse-square mirror term j
_MIRROR = tuple(_D.divide_linear(ell(j)) ** 2 for j in range(4))


def verify_weighted_conjugation(p: MPoly) -> bool:
    """Check the weight-conjugation identity for the second-order conserved
    operator on one polynomial, with couplings and frequency symbolic:
    D^2 (w^2 z zb - the Dunkl Laplacian) p equals D^2 / h times the raw
    Schroedinger operator on h p plus the four inverse-square mirror
    corrections."""
    lhs = _D2 * (_W2ZZB * p - apply_named("DeltaKappa", p, _SYMBOLIC))
    p_z, p_zb = p.diff("z"), p.diff("zb")
    rhs = (-4 * (_D2 * p_z.diff("zb") + _D * (_A_ZB * p_z + _A_Z * p_zb)
                 + _V * p)
           + _D2 * _W2ZZB * p)
    for j in range(4):
        kap = _SYMBOLIC.kappa(j)
        mirror = kap * (kap * p - act(reflection(j), p)) * _MIRROR[j]
        rhs = rhs + (-4 * QI.i_power(j)) * mirror
    return lhs == rhs
