"""Weight conjugation of the second-order conserved operator.

Conjugating the raw Schroedinger form -4 d_z d_zb + w^2 z zb by the group
invariant weight h = (z^2 - zb^2)^k0 (z^2 + zb^2)^k1 and adding the four
inverse-square mirror terms gives w^2 z zb minus the Dunkl Laplacian.
Dividing by h and multiplying by D^2, with D the product of the four mirror
lines, turns that identity into one polynomial equation per input
polynomial, with couplings and frequency symbolic.  The logarithmic
derivatives of the weight enter through a_v = D d_v log h, a polynomial.

The check moves everything to one side and combines the coefficient
polynomials once, at import: lhs - rhs is -D^2 on the Dunkl Laplacian of
p, 4 D^2 on p_z,zb, 4 D a_zb on p_z, 4 D a_z on p_zb, the potential and
the mirror terms on p, and one mirror term on each reflected copy s_j p.
The confinement term D^2 w^2 z zb p is the same on both sides and cancels
exactly, so it is never formed.  Each call adds the products of these
coefficients with the derivatives and copies of p into one term dict.
"""

from __future__ import annotations

from typing import Dict

from .group import act, ell, reflection
from .operators import apply_named
from .params import Params
from .poly import Exponent, MPoly, add_product, from_terms
from .scalars import QI

_SYMBOLIC = Params.symbolic()
_K0 = MPoly.var("k0")
_K1 = MPoly.var("k1")

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

# the coefficients of lhs - rhs, each named after the operand it multiplies
_ON_LAPLACIAN = -_D2
_ON_MIXED = 4 * _D2
_ON_Z = 4 * _D * _A_ZB
_ON_ZB = 4 * _D * _A_Z
_ON_P = 4 * _V + sum((4 * QI.i_power(j) * _SYMBOLIC.kappa(j) ** 2 * _MIRROR[j]
                      for j in range(4)), MPoly.zero())
_ON_REFLECTED = tuple(-4 * QI.i_power(j) * _SYMBOLIC.kappa(j) * _MIRROR[j]
                      for j in range(4))


def _residual(p: MPoly) -> MPoly:
    """lhs - rhs of the cleared identity on p; zero exactly when it holds."""
    p_z, p_zb = p.diff("z"), p.diff("zb")
    pairs = [(_ON_LAPLACIAN, apply_named("DeltaKappa", p, _SYMBOLIC)),
             (_ON_MIXED, p_z.diff("zb")), (_ON_Z, p_z), (_ON_ZB, p_zb),
             (_ON_P, p)]
    pairs += [(coeff, act(reflection(j), p))
              for j, coeff in enumerate(_ON_REFLECTED)]
    out: Dict[Exponent, QI] = {}
    for coeff, operand in pairs:
        add_product(out, coeff, operand)
    return from_terms(out)


def verify_weighted_conjugation(p: MPoly) -> bool:
    """Check the weight-conjugation identity for the second-order conserved
    operator on one polynomial, with couplings and frequency symbolic:
    D^2 (w^2 z zb - the Dunkl Laplacian) p equals D^2 / h times the raw
    Schroedinger operator on h p plus the four inverse-square mirror
    corrections."""
    return _residual(p).is_zero()
