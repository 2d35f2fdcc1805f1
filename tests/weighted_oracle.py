"""The weight-conjugation identity term by term.

`weighted._residual` adds products of coefficient polynomials that it
combines once, on first use; this slow path builds both sides of the cleared
identity separately, confinement term included, the way they are written
down, so the tests can compare lhs - rhs with the residual.  It calls
`apply_named` and `act` through the `weighted` module, so a fault patched
into that module reaches both paths.
"""

from b2dunkl import weighted
from b2dunkl.group import reflection
from b2dunkl.poly import MPoly
from b2dunkl.scalars import QI

W2ZZB = MPoly.var("w") ** 2 * MPoly.var("z") * MPoly.var("zb")


def lhs_minus_rhs(p):
    """D^2 (w^2 z zb - the Dunkl Laplacian) p minus D^2 / h times the raw
    Schroedinger operator on h p and the four mirror corrections."""
    symbolic = weighted._SYMBOLIC
    weight = weighted._weight()
    d, d2 = weight.d, weight.d2
    a_z, a_zb = weight.a_z, weight.a_zb
    lhs = d2 * (W2ZZB * p - weighted.apply_named("DeltaKappa", p, symbolic))
    p_z, p_zb = p.diff("z"), p.diff("zb")
    rhs = (-4 * (d2 * p_z.diff("zb") + d * (a_zb * p_z + a_z * p_zb)
                 + weight.v * p)
           + d2 * W2ZZB * p)
    for j in range(4):
        kap = symbolic.kappa(j)
        mirror = (kap * (kap * p - weighted.act(reflection(j), p))
                  * weight.mirror[j])
        rhs = rhs + (-4 * QI.i_power(j)) * mirror
    return lhs - rhs
