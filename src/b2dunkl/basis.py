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

Each of these is a closed form in d = a - b: the family is fixed by the
sign of d and |d| mod 4, the tower index is n = |d| div 4 and the chain
position (the Laguerre degree) is j = min(a, b).

Even families carry the four linear characters of the symmetry group
(E_m carries character m: E0 <-> trivial, E3 <-> determinant); odd
families pair up under the axis mirror.  So the mirror swaps a label with
odd d and multiplies one with even d by +1 (d >= 0) or -1 (d < 0).
Numeric parameters are required: seed coefficients divide by expressions
in the couplings.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple

from .group import GroupElem, act, reflection
from .params import Params
from .poly import MPoly
from .record import Ordered
from .scalars import QI

HALF = Fraction(1, 2)

# family of a label by (d >= 0, |d| mod 4), where d = a - b
_FAMILY = {
    (True, 0): "E0", (True, 2): "E1", (True, 1): "O1", (True, 3): "O3",
    (False, 0): "E3", (False, 2): "E2", (False, 1): "O1R", (False, 3): "O3R",
}


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


class BasisLabel(Ordered):
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if a < 0 or b < 0:
            raise ValueError("label indices must be nonnegative")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        self._keep((a, b))

    @property
    def degree(self) -> int:
        return self.a + self.b

    def classify(self) -> Tuple[str, int, int]:
        """(family, tower index n, chain position j)."""
        d = self.a - self.b
        n, r = divmod(abs(d), 4)
        return _FAMILY[d >= 0, r], n, min(self.a, self.b)

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
    return None if (label.a - label.b) % 2 else int(label.family[1])


def sigma0_action(label: BasisLabel) -> Tuple[BasisLabel, int]:
    """(image label, sign) under the axis mirror: odd labels swap, even
    labels keep their place with sign +1 for a >= b and -1 for a < b."""
    d = label.a - label.b
    return (label.swap(), 1) if d % 2 else (label, 1 if d >= 0 else -1)


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


# ---- squared norms, relative to psi(0, 0) = 1 ---------------------------


def seed_norm_rel(label: BasisLabel, params: Params) -> Fraction:
    """Torus norm of the harmonic seed relative to the constant 1."""
    _require_numeric(params)
    family, n, _ = label.classify()
    tot = params.k0 + params.k1
    ha, hb = params.k0 + HALF, params.k1 + HALF
    # the Jacobi factor of every family; each family multiplies in its own
    jacobi = (pochhammer(ha, n) * pochhammer(hb, n)
              / (math.factorial(n) * pochhammer(tot + 1, n)))
    if family == "E0":
        # removable pole: 1 at n = 0, but 0/0 there when k0 + k1 = 0
        return jacobi * (tot + n) / (tot + 2 * n)
    if family == "E3":
        return jacobi * 16 * n / (tot + 2 * n)
    if family == "E1":
        return jacobi * 4 * (hb + n) / (tot + 2 * n + 1)
    if family == "E2":
        return jacobi * 4 * (ha + n) / (tot + 2 * n + 1)
    if family in ("O1", "O1R"):
        return jacobi
    # O3, O3R
    return jacobi * 4 * (ha + n) * (hb + n)


def norm(label: BasisLabel, params: Params) -> Fraction:
    """Squared wavefunction norm relative to psi(0, 0) = 1."""
    _require_numeric(params)
    _, _, j = label.classify()
    m = label.degree - j
    return (params.w ** (2 * j) * pochhammer(params.gamma() + 1, m)
            / math.factorial(j) * seed_norm_rel(label, params))
