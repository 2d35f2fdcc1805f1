"""Squared-norm ratios by the pairwise formula, family by family.

The program keeps one squared norm per basis function, `basis.norm`, with
the Jacobi factor its six seed families share stated once in
`basis.seed_norm_rel`.  The tests check both against this independent slow
path: each family's seed norm written out as its own product of Pochhammer
symbols, and the ratio of two squared norms of one level computed directly
from the two labels' chain positions.
"""

import math
from fractions import Fraction

from b2dunkl.basis import pochhammer

HALF = Fraction(1, 2)


def seed_norm_rel(label, params):
    """Torus norm of the harmonic seed relative to the constant 1."""
    family, n, _ = label.classify()
    k0, k1 = params.k0, params.k1
    tot = k0 + k1
    ha, hb = k0 + HALF, k1 + HALF
    if family == "E0":
        return (pochhammer(ha, n) * pochhammer(hb, n) * (tot + n)
                / (math.factorial(n) * pochhammer(tot + 1, n)
                   * (tot + 2 * n)))
    if family == "E3":
        return (16 * pochhammer(ha, n) * pochhammer(hb, n)
                / (math.factorial(n - 1) * pochhammer(tot + 1, n)
                   * (tot + 2 * n)))
    if family == "E1":
        return (4 * pochhammer(ha, n) * pochhammer(hb, n + 1)
                / (math.factorial(n) * pochhammer(tot + 1, n)
                   * (tot + 2 * n + 1)))
    if family == "E2":
        return (4 * pochhammer(ha, n + 1) * pochhammer(hb, n)
                / (math.factorial(n) * pochhammer(tot + 1, n)
                   * (tot + 2 * n + 1)))
    if family in ("O1", "O1R"):
        return (pochhammer(ha, n) * pochhammer(hb, n)
                / (math.factorial(n) * pochhammer(tot + 1, n)))
    # O3, O3R
    return (4 * pochhammer(ha, n + 1) * pochhammer(hb, n + 1)
            / (math.factorial(n) * pochhammer(tot + 1, n)))


def norm_ratio(l1, l2, params):
    """Exact ratio of squared wavefunction norms for equal total degree."""
    if l1.degree != l2.degree:
        raise ValueError("norm ratios are defined within one energy level")
    gamma = params.gamma()
    n = l1.degree
    j1, j2 = l1.classify()[2], l2.classify()[2]
    m1, m2 = n - j1, n - j2
    if m1 >= m2:
        gpoch = pochhammer(gamma + m2 + 1, m1 - m2)
    else:
        gpoch = 1 / pochhammer(gamma + m1 + 1, m2 - m1)
    return (params.w ** (2 * (j1 - j2)) * gpoch
            * Fraction(math.factorial(j2), math.factorial(j1))
            * seed_norm_rel(l1, params) / seed_norm_rel(l2, params))
