"""Weight conjugation of the second-order conserved operator.

Conjugating the raw Schroedinger form -4 d_z d_zb + w^2 z zb by the group
invariant weight h = (z^2 - zb^2)^k0 (z^2 + zb^2)^k1 and adding the four
inverse-square mirror terms gives w^2 z zb minus the Dunkl Laplacian.
Dividing by h and multiplying by D^2, with D the product of the four mirror
lines, turns that identity into one polynomial equation per input
polynomial, with couplings and frequency symbolic.  The logarithmic
derivatives of the weight enter through a_v = D d_v log h, a polynomial.

The check moves everything to one side and combines the coefficient
polynomials once, on first use: lhs - rhs is -D^2 on the Dunkl Laplacian of
p, 4 D^2 on p_z,zb, 4 D a_zb on p_z, 4 D a_z on p_zb, the potential and
the mirror terms on p, and one mirror term on each reflected copy s_j p.
The confinement term D^2 w^2 z zb p is the same on both sides and cancels
exactly, so it is never formed.  Each call adds the products of these
coefficients with the derivatives and copies of p into one term dict.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from .group import act, ell, reflection
from .operators import apply_named
from .params import Params
from .poly import Exponent, MPoly, add_product, from_terms
from .record import Record
from .scalars import QI

_SYMBOLIC = Params.symbolic()


class _Weight(Record):
    """The weight's polynomials: D, D^2, a_z, a_zb, the potential
    V = D^2 (d_z d_zb h) / h left after moving h past d_z d_zb, and the
    factors (D / ell_j)^2 that clear the inverse-square mirror terms."""
    __slots__ = ("d", "d2", "a_z", "a_zb", "v", "mirror")


@lru_cache(maxsize=None)
def _weight() -> _Weight:
    """Built on first use, so a command that never checks the identity
    never pays for it."""
    k0, k1 = MPoly.var("k0"), MPoly.var("k1")
    even = ell(0) * ell(2)      # z^2 - zb^2
    odd = ell(1) * ell(3)       # z^2 + zb^2
    d = even * odd

    def log_derivative(var: str) -> MPoly:
        """D times the derivative of log h in z or zb."""
        return k0 * even.diff(var) * odd + k1 * odd.diff(var) * even

    a_z, a_zb = log_derivative("z"), log_derivative("zb")
    v = d * a_z.diff("zb") - a_z * d.diff("zb") + a_z * a_zb
    mirror = tuple(d.divide_linear(ell(j)) ** 2 for j in range(4))
    return _Weight(d, d * d, a_z, a_zb, v, mirror)


@lru_cache(maxsize=None)
def _coefficients() -> Tuple[MPoly, ...]:
    """The coefficients of lhs - rhs, each multiplying one operand of
    `_residual`: the Dunkl Laplacian of p, p_z,zb, p_z, p_zb, p and the
    four reflected copies s_j p."""
    w = _weight()
    on_p = 4 * w.v + sum((4 * QI.i_power(j) * _SYMBOLIC.kappa(j) ** 2
                          * w.mirror[j] for j in range(4)), MPoly.zero())
    return ((-w.d2, 4 * w.d2, 4 * w.d * w.a_zb, 4 * w.d * w.a_z, on_p)
            + tuple(-4 * QI.i_power(j) * _SYMBOLIC.kappa(j) * w.mirror[j]
                    for j in range(4)))


def _residual(p: MPoly) -> MPoly:
    """lhs - rhs of the cleared identity on p; zero exactly when it holds."""
    p_z, p_zb = p.diff("z"), p.diff("zb")
    operands = [apply_named("DeltaKappa", p, _SYMBOLIC), p_z.diff("zb"),
                p_z, p_zb, p] + [act(reflection(j), p) for j in range(4)]
    out: Dict[Exponent, QI] = {}
    for coeff, operand in zip(_coefficients(), operands):
        add_product(out, coeff.terms, operand.terms)
    return from_terms(out)


def verify_weighted_conjugation(p: MPoly) -> bool:
    """Check the weight-conjugation identity for the second-order conserved
    operator on one polynomial, with couplings and frequency symbolic:
    D^2 (w^2 z zb - the Dunkl Laplacian) p equals D^2 / h times the raw
    Schroedinger operator on h p plus the four inverse-square mirror
    corrections."""
    return _residual(p).is_zero()
