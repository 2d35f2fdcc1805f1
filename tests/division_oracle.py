"""The Dunkl difference quotients by exact polynomial division.

The program fills its Dunkl memos from the closed-form geometric sums of
`operators._quotient_shape`; the tests check them against this independent
slow path, which reflects the whole polynomial, subtracts and divides by the
mirror line with `MPoly.divide_linear`.
"""

from b2dunkl.group import act, ell, reflection
from b2dunkl.scalars import QI


def reflection_quotients(var, p, params):
    """Yield (j, kappa_j (p - s_j p) / ell_j) for each mirror line j on which
    the difference is nonzero, times -i^j in the zb direction."""
    for j in range(4):
        diff = p - act(reflection(j), p)
        if diff.is_zero():
            continue
        quot = params.kappa(j) * diff.divide_linear(ell(j))
        yield j, (-QI.i_power(j) * quot if var == "zb" else quot)


def direct_dunkl(var, p, params):
    """The Dunkl image of p: its derivative plus the summed quotients."""
    return sum((q for _, q in reflection_quotients(var, p, params)),
               p.diff(var))
