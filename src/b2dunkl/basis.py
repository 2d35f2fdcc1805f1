"""The orthogonal wavefunction basis.

Each basis function is a harmonic seed polynomial (annihilated by the
coupling-deformed Laplacian) times a Laguerre polynomial in w*z*zb.  Labels
are pairs (a, b) of nonnegative integers; a + b is the total degree and the
difference a - b determines which of eight families the function belongs to:

  E0  a-b = 4n >= 0    seed: fully even Jacobi-type polynomial
  E1  a-b = 4n+2 > 0   seed: (z^2+zb^2) times Jacobi-type
  E2  b-a = 4n+2 > 0   seed: (z^2-zb^2) times Jacobi-type
  E3  b-a = 4n >= 4    seed: (z^4-zb^4) times Jacobi-type
  O1  a-b = 4n+1       seed: z times (E0 seed + E3 seed / 4)
  O3  a-b = 4n+3       seed: z times a coupling-weighted (E1, E2) mix
  O1R, O3R             mirror images of O1, O3 (labels swapped)

Even families carry the four linear characters of the symmetry group
(E0 <-> trivial, E3 <-> determinant); odd families pair up under the
axis mirror.  Numeric parameters are required: seed coefficients divide by
expressions in the couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple

from .group import GroupElem, act, reflection
from .params import Params
from .poly import MPoly
from .scalars import QI

HALF = Fraction(1, 2)

EVEN_FAMILIES = ("E0", "E1", "E2", "E3")
ODD_FAMILIES = ("O1", "O3", "O1R", "O3R")


def pochhammer(a, n: int):
    """Rising factorial a (a+1) ... (a+n-1); n must be >= 0."""
    if n < 0:
        raise ValueError("pochhammer length must be nonnegative")
    out = Fraction(1)
    for i in range(n):
        out *= a + i
    return out


def laguerre_coeffs(n: int, alpha: Fraction) -> List[Fraction]:
    """Coefficients c[j] of t^j in the generalized Laguerre polynomial."""
    c = [pochhammer(alpha + 1, n) / math.factorial(n)]
    for j in range(n):
        c.append(c[j] * (j - n) / ((alpha + 1 + j) * (j + 1)))
    return c


def jacobi_homogeneous(n: int, alpha: Fraction, beta: Fraction) -> MPoly:
    """Degree-4n fully even homogenization of a Jacobi polynomial.

    Expanded in powers of (z^2 - zb^2)^2 and (z^2 + zb^2)^2 so that every
    monomial exponent difference is divisible by 4.
    """
    minus = MPoly.var("z") ** 2 - MPoly.var("zb") ** 2
    plus = MPoly.var("z") ** 2 + MPoly.var("zb") ** 2
    scale = Fraction((-1) ** n, 4 ** n * math.factorial(n))
    acc = MPoly.zero()
    for j in range(n + 1):
        c = (scale * math.comb(n, j)
             * pochhammer(-n - alpha, n - j) * pochhammer(-n - beta, j))
        if c:
            acc = acc + c * minus ** (2 * j) * plus ** (2 * (n - j))
    return acc


@dataclass(frozen=True, order=True)
class BasisLabel:
    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("label indices must be nonnegative")

    @property
    def degree(self) -> int:
        return self.a + self.b

    @property
    def reversed(self) -> bool:
        return self.a < self.b

    def classify(self) -> Tuple[str, int, int]:
        """(family, tower index n, chain position j)."""
        d = self.a - self.b
        if d % 2 == 0:
            if d >= 0:
                fam = "E0" if d % 4 == 0 else "E1"
                return fam, (d - (0 if d % 4 == 0 else 2)) // 4, self.b
            e = -d
            fam = "E3" if e % 4 == 0 else "E2"
            return fam, (e - (0 if e % 4 == 0 else 2)) // 4, self.a
        if d > 0:
            fam = "O1" if d % 4 == 1 else "O3"
            return fam, (d - (1 if d % 4 == 1 else 3)) // 4, self.b
        e = -d
        fam = "O1R" if e % 4 == 1 else "O3R"
        return fam, (e - (1 if e % 4 == 1 else 3)) // 4, self.a

    @property
    def family(self) -> str:
        return self.classify()[0]

    def swap(self) -> "BasisLabel":
        return BasisLabel(self.b, self.a)


def enumerate_basis(degree: int) -> List[BasisLabel]:
    return [BasisLabel(degree - i, i) for i in range(degree + 1)]


def energy(degree: int, params: Params):
    """Oscillator eigenvalue at the given total degree."""
    return 2 * params.omega() * (degree + params.gamma() + 1)


def _require_numeric(params: Params):
    if params.is_symbolic:
        raise ValueError("basis functions need numeric parameters")


@lru_cache(maxsize=None)
def harmonic_seed(family: str, n: int, params: Params) -> MPoly:
    """Harmonic factor of a basis family at tower index n."""
    _require_numeric(params)
    k0, k1 = params.k0, params.k1
    z = MPoly.var("z")
    zb = MPoly.var("zb")
    if family == "E0":
        return jacobi_homogeneous(n, k0 - HALF, k1 - HALF)
    if family == "E1":
        return (z ** 2 + zb ** 2) * jacobi_homogeneous(n, k0 - HALF,
                                                       k1 + HALF)
    if family == "E2":
        return (z ** 2 - zb ** 2) * jacobi_homogeneous(n, k0 + HALF,
                                                       k1 - HALF)
    if family == "E3":
        if n < 1:
            raise ValueError("antisymmetric even tower starts at n = 1")
        return (z ** 4 - zb ** 4) * jacobi_homogeneous(n - 1, k0 + HALF,
                                                       k1 + HALF)
    if family == "O1":
        seed = harmonic_seed("E0", n, params)
        if n >= 1:
            seed = seed + Fraction(1, 4) * harmonic_seed("E3", n, params)
        return z * seed
    if family == "O3":
        return z * ((n + k0 + HALF) * harmonic_seed("E1", n, params)
                    + (n + k1 + HALF) * harmonic_seed("E2", n, params))
    if family in ("O1R", "O3R"):
        return act(reflection(0), harmonic_seed(family[:2], n, params))
    raise ValueError(f"unknown family {family!r}")


@lru_cache(maxsize=None)
def psi(label: BasisLabel, params: Params) -> MPoly:
    """Basis wavefunction (polynomial part; the Gaussian factor is implied)."""
    _require_numeric(params)
    family, n, j = label.classify()
    seed = harmonic_seed(family, n, params)
    m = seed.total_degree()
    coeffs = laguerre_coeffs(j, params.gamma() + m)
    lag = MPoly(("z", "zb"), {
        (l, l): coeffs[l] * params.w ** l for l in range(j + 1)
    })
    return seed * lag


# ---- exact spectral data -------------------------------------------------


def rho1_eigenvalue(label: BasisLabel) -> QI:
    """Quarter-turn rotation acts by i^(a-b)."""
    return QI.i_power(label.a - label.b)


def isotype(label: BasisLabel) -> Optional[int]:
    """Character index for even labels; None for odd (two-dimensional)."""
    fam = label.family
    if fam in EVEN_FAMILIES:
        return int(fam[1])
    return None


def sigma0_action(label: BasisLabel) -> Tuple[BasisLabel, int]:
    """(image label, sign) under the axis mirror."""
    fam = label.family
    if fam in ("E0", "E1"):
        return label, 1
    if fam in ("E2", "E3"):
        return label, -1
    return label.swap(), 1


def group_action(g: GroupElem, label: BasisLabel) -> Tuple[BasisLabel, QI]:
    """(image label, phase) of a basis function under any group element.

    Every element is the axis mirror composed with a rotation, and both
    generators send basis functions to single basis functions up to a
    fourth root of unity, so the whole group does.
    """
    phase = QI.i_power(g.k * (label.a - label.b))
    if not g.refl:
        return label, phase
    img, sign = sigma0_action(label)
    return img, sign * phase


def j2_eigenvalue(label: BasisLabel, params: Params) -> Fraction:
    family, n, _ = label.classify()
    k0, k1 = params.k0, params.k1
    if family in ("E0", "E3"):
        return Fraction(16) * n * (n + k0 + k1)
    if family in ("E1", "E2"):
        return 4 * (2 * n + 2 * k0 + 1) * (2 * n + 2 * k1 + 1)
    d = abs(label.a - label.b)
    return (d + params.gamma()) ** 2


# ---- squared norms (always as exact ratios) -------------------------------


def seed_norm_rel(label: BasisLabel, params: Params) -> Fraction:
    """Torus norm of the harmonic seed relative to the constant 1."""
    _require_numeric(params)
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


def norm_ratio(l1: BasisLabel, l2: BasisLabel, params: Params) -> Fraction:
    """Exact ratio of squared wavefunction norms for equal total degree."""
    _require_numeric(params)
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
