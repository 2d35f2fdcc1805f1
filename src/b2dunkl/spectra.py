"""Expansion of energy-eigenspace polynomials in the wavefunction basis,
exact coefficient tables for the conserved operators, and the closed-form
predictions those tables are checked against.

Every operator that commutes with the oscillator Hamiltonian maps the span
of one energy level into itself, so its action is a finite exact matrix per
total degree.  A level element is fixed by its top-degree part, so `expand`
solves one square system in the top-degree coefficients and then checks
that the basis combination it gives rebuilds its input exactly.

The computed tables take a shorter path.  The top-degree part of a basis
function is its harmonic seed times (-w z zb)^j / j!, and no table operator
(Khat, Hhat_0, J2) raises degree, so the top-degree part of an image of a
basis function is the image of its top slice under the operator's
degree-preserving part (`operators.DEGREE_PRESERVING`; J2 keeps degree as
it is).  A table row applies that part to the slice and solves the square
system, with no basis function built, no lower-degree term imaged and no
rebuild.  So a table command no longer raises
NotInSpanError for an image outside its level.  That is sound because the
`kernel` suite proves, with the couplings and the frequency symbolic, that
K, H_0 and J commute with the Hamiltonian (`quartic-hamiltonian`,
`hamiltonian-component-0`, `hamiltonian-angular`).  Conjugation by the
Gaussian preserves these identities: it takes K and H_0 to Khat and
Hhat_0 and leaves J fixed, so Khat, Hhat_0 and J2 = J J map every level
into itself.  The `verify` suites still check full images
(`hamiltonian-commutes`, `closed-form-on-basis`,
`opposite-component-reconstruction`).

The predicted tables are rational closed forms in the tower index n and
chain position j.  The two are compared entry by entry elsewhere; here
both sides are merely constructed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, List, Tuple

from .basis import (BasisLabel, energy, enumerate_basis, harmonic_seed, norm,
                    psi, seed_norm_rel)
from .linsolve import LinearSolver, NotInSpanError
from .operators import DEGREE_PRESERVING, apply, apply_named
from .params import Params
from .poly import SHIFT, Exponent, MPoly, from_terms
from .record import Record
from .scalars import QI, ZERO, format_rat


def label_str(label: BasisLabel) -> str:
    return f"{label.a},{label.b}"


def parse_label(text: str) -> BasisLabel:
    try:
        a, b = (int(part) for part in text.split(","))
        return BasisLabel(a, b)
    except ValueError:
        raise ValueError(f"bad label {text!r}: expected 'a,b' with a and b "
                         f"nonnegative integers") from None


# ---- expansion in one energy level ---------------------------------------

_Z, _ZB = SHIFT["z"], SHIFT["zb"]


def _top_block(p: MPoly, degree: int) -> List[QI]:
    """p's coefficients of z^a zb^(degree - a), for a = degree down to 0."""
    terms = p.terms
    return [terms.get((a << _Z) + ((degree - a) << _ZB), ZERO)
            for a in range(degree, -1, -1)]


@lru_cache(maxsize=None)
def _top(label: BasisLabel, params: Params) -> MPoly:
    """Top-degree part of psi(label): seed times (-w z zb)^j / j!.

    The Laguerre factor's leading coefficient is (-1)^j / j!, so the slice
    needs only the harmonic seed, never the whole basis function.
    """
    family, n, j = label.classify()
    radial = MPoly(("z", "zb"), {(j, j): (-params.w) ** j / factorial(j)})
    return harmonic_seed(family, n, params) * radial


@lru_cache(maxsize=None)
def _level_basis(degree: int,
                 params: Params) -> Tuple[Tuple[BasisLabel, MPoly], ...]:
    """The level's labels, each with its basis function, built once."""
    return tuple((lb, psi(lb, params)) for lb in enumerate_basis(degree))


@lru_cache(maxsize=None)
def _level_solver(degree: int, params: Params) -> LinearSolver:
    """Solver for the top-degree coefficients of the level's basis.

    The top-degree parts of the basis functions, seed times (z zb)^j, are a
    basis of the homogeneous polynomials of the level's degree.  Row a holds
    the coefficients of z^a zb^(degree - a).  A singular block makes every
    solve raise UnderdeterminedError.
    """
    columns = [_top_block(_top(lb, params), degree)
               for lb in enumerate_basis(degree)]
    return LinearSolver(list(zip(*columns)))


def _coordinates(p: MPoly, degree: int,
                 params: Params) -> Tuple[Tuple[BasisLabel, QI], ...]:
    """The nonzero coordinates, in label order, of the level element whose
    degree-`degree` part is that of p."""
    coords = _level_solver(degree, params).solve(_top_block(p, degree))
    return tuple((lb, c) for lb, c in zip(enumerate_basis(degree), coords)
                 if c)


def expand(p: MPoly, degree: int, params: Params) -> Dict[BasisLabel, QI]:
    """Exact coordinates of p in the basis of the given energy level.

    A level element is fixed by its top-degree part: the coordinates solve
    the top-degree block, and p lies in the level exactly when the
    combination they give rebuilds p.  Raises NotInSpanError otherwise
    (wrong parity, too high degree, or simply not an eigenspace element).
    """
    for v in p.vars:
        if v not in ("z", "zb"):
            raise ValueError(f"not a coordinate polynomial: contains {v!r}")
    out = dict(_coordinates(p, degree, params))
    rebuilt: Dict[Exponent, QI] = {}
    for lb, f in _level_basis(degree, params):
        c = out.get(lb)
        if c is not None:
            for exp, fc in f.terms.items():
                prev = rebuilt.get(exp)
                rebuilt[exp] = c * fc + prev if prev is not None else c * fc
    if from_terms(rebuilt) != p:
        raise NotInSpanError(f"not an element of the degree-{degree} level")
    return out


# ---- cached operator actions on basis functions ---------------------------
#
# Each row applies the degree-preserving part of its operator to the top
# slice `_top(label)` alone and is not rebuilt; the module docstring says
# why that is sound.


@lru_cache(maxsize=None)
def h0_shifted_expansion(label: BasisLabel,
                         params: Params) -> Tuple[Tuple[BasisLabel, QI], ...]:
    """Expansion of (component-zero Hamiltonian - E/2) psi; diagonal-free."""
    top = _top(label, params)
    n = label.degree
    r = apply(DEGREE_PRESERVING["Hhat_0"], top, params) \
        - Fraction(1, 2) * energy(n, params) * top
    return _coordinates(r, n, params)


@lru_cache(maxsize=None)
def khat_expansion(label: BasisLabel,
                   params: Params) -> Tuple[Tuple[BasisLabel, QI], ...]:
    """Expansion of the quartic invariant applied to one basis function."""
    r = apply(DEGREE_PRESERVING["Khat"], _top(label, params), params)
    return _coordinates(r, label.degree, params)


@lru_cache(maxsize=None)
def j2_expansion(label: BasisLabel,
                 params: Params) -> Tuple[Tuple[BasisLabel, QI], ...]:
    """Expansion of the squared angular momentum applied to one basis
    function."""
    r = apply_named("J2", _top(label, params), params)
    return _coordinates(r, label.degree, params)


# ---- coefficient tables ----------------------------------------------------


class CoeffTable(Record):
    # entries[source][target]: the coefficient of basis state target in the
    # image of basis state source
    __slots__ = ("operator", "degree", "params", "entries")

    def to_json_dict(self) -> dict:
        return {
            "operator": self.operator,
            "degree": self.degree,
            "params": self.params.to_json_dict(),
            "basis": [label_str(lb) for lb in enumerate_basis(self.degree)],
            "entries": [
                {"source": label_str(src), "target": label_str(tgt),
                 "re": format_rat(c.re), "im": format_rat(c.im)}
                for src, row in self.entries.items()
                for tgt, c in row.items()
            ],
        }

    def to_csv_rows(self) -> List[List[str]]:
        rows = [["operator", "degree", "source", "target", "re", "im"]]
        for src, row in self.entries.items():
            for tgt, c in row.items():
                rows.append([self.operator, str(self.degree),
                             label_str(src), label_str(tgt),
                             format_rat(c.re), format_rat(c.im)])
        return rows


def _table(operator: str, degree: int, params: Params, expander) -> CoeffTable:
    params.require_generic(degree)
    entries: Dict[BasisLabel, Dict[BasisLabel, QI]] = {}
    for src in enumerate_basis(degree):
        entries[src] = dict(expander(src, params))
    return CoeffTable(operator, degree, params, entries)


def h0_table(degree: int, params: Params) -> CoeffTable:
    """Traceless action of the component-zero Hamiltonian on one level."""
    return _table("h0_shifted", degree, params, h0_shifted_expansion)


def k_table(degree: int, params: Params) -> CoeffTable:
    return _table("quartic", degree, params, khat_expansion)


def j2_table(degree: int, params: Params) -> CoeffTable:
    return _table("angular_squared", degree, params, j2_expansion)


def norm_table(degree: int, params: Params) -> dict:
    """Exact squared-norm ratios within one level (head label as unit)."""
    params.require_generic(degree)
    head = BasisLabel(degree, 0)
    head_norm = norm(head, params)
    rows = []
    for lb in enumerate_basis(degree):
        rows.append({
            "label": label_str(lb),
            "seed_norm_rel": format_rat(seed_norm_rel(lb, params)),
            "norm_ratio_to_head": format_rat(norm(lb, params) / head_norm),
        })
    return {"degree": degree, "params": params.to_json_dict(),
            "head": label_str(head), "rows": rows}


# ---- predicted tables ------------------------------------------------------


def predicted_h0(label: BasisLabel,
                 params: Params) -> Dict[BasisLabel, Fraction]:
    """Closed-form prediction for the traceless level action.

    Entries are included only when the target stays inside the valid label
    set and the originating tower keeps a nonnegative index; boundary cases
    collapse onto the mirror entry instead.
    """
    if params.is_symbolic:
        raise ValueError("predictions need numeric parameters")
    fam, n, j = label.classify()
    k0, k1, w = params.k0, params.k1, params.w
    K = k0 + k1
    out: Dict[BasisLabel, Fraction] = {}
    if fam == "E0":
        if j >= 1:
            out[BasisLabel(4 * n + j + 1, j - 1)] = \
                w ** 2 * (n + K) / (2 * n + K)
        if n >= 1:
            out[BasisLabel(4 * n + j - 1, j + 1)] = \
                Fraction(j + 1) * (2 * n + 2 * k0 - 1) \
                * (4 * n + 2 * K + j) / (2 * (2 * n + K))
    elif fam == "E1":
        if j >= 1:
            out[BasisLabel(4 * n + j + 3, j - 1)] = \
                4 * w ** 2 * (n + 1) / (2 * n + K + 1)
        out[BasisLabel(4 * n + 1 + j, j + 1)] = \
            2 * (j + 1) * (2 * n + 2 * k1 + 1) * (4 * n + 2 * K + j + 2) \
            / (2 * n + K + 1)
    elif fam == "E3":
        if j >= 1:
            out[BasisLabel(j - 1, 4 * n + j + 1)] = \
                4 * w ** 2 * n / (2 * n + K)
        out[BasisLabel(j + 1, 4 * n + j - 1)] = \
            2 * Fraction(j + 1) * (2 * n + 2 * k1 - 1) * (4 * n + 2 * K + j) \
            / (2 * n + K)
    elif fam == "E2":
        if j >= 1:
            out[BasisLabel(j - 1, 4 * n + j + 3)] = \
                w ** 2 * (n + K + 1) / (2 * n + K + 1)
        if n >= 1:
            out[BasisLabel(j + 1, 4 * n + 1 + j)] = \
                Fraction(j + 1) * (2 * n + 2 * k0 + 1) \
                * (4 * n + 2 * K + j + 2) / (2 * (2 * n + K + 1))
    elif fam == "O1":
        if j >= 1:
            out[BasisLabel(4 * n + 2 + j, j - 1)] = \
                w ** 2 / (2 * n + K + 1)
        if n >= 1:
            out[BasisLabel(4 * n + j, j + 1)] = \
                Fraction(j + 1) * (4 * n + 2 * K + j + 1) / (2 * n + K)
        out[BasisLabel(j, 4 * n + 1 + j)] = w * (
            j * (2 * n + 2 * k0 + 1) / (2 * n + K + 1)
            + 2 * n * (j + 1) / (2 * n + K)
            - (2 * j + 2 * k1 + 1))
    elif fam == "O3":
        if j >= 1:
            out[BasisLabel(4 * n + 4 + j, j - 1)] = \
                4 * w ** 2 * (n + 1) * (n + K + 1) / (2 * n + K + 2)
        out[BasisLabel(4 * n + 2 + j, j + 1)] = \
            Fraction(j + 1) * (4 * n + 2 * K + j + 3) \
            * (2 * n + 2 * k0 + 1) * (2 * n + 2 * k1 + 1) / (2 * n + K + 1)
        out[BasisLabel(j, 4 * n + 3 + j)] = w * (
            -(j + 1) * (2 * n + 2 * k0 + 1) / (2 * n + K + 1)
            - 2 * j * (n + 1) / (2 * n + K + 2)
            + (2 * j + 2 * k1 + 1))
    else:   # O1R, O3R: mirror of the direct chain
        direct = predicted_h0(label.swap(), params)
        return {tgt.swap(): val for tgt, val in direct.items()}
    return out


# The two mirror-family diagonal coefficients of the quartic table carry a
# contested overall sign and frequency power.  Variants are written as
# (lead_sign, correction_sign, omega_power); the resolved choice below is the
# one reproduced exactly by the computed tables at several parameter triples
# (see adjudicate_mirror_diagonals).
MIRROR_DIAG_VARIANTS: Tuple[Tuple[int, int, int], ...] = (
    (1, -1, 2), (-1, -1, 2), (1, 1, 2), (-1, 1, 2),
    (1, -1, 1), (-1, -1, 1), (1, 1, 1), (-1, 1, 1),
)
E1_DIAG_VARIANT = (1, -1, 2)
E2_DIAG_VARIANT = (-1, -1, 2)


def _mirror_diag(n: int, j: int, params: Params, reversed_family: bool,
                 variant: Tuple[int, int, int]) -> Fraction:
    k0, k1, w = params.k0, params.k1, params.w
    K = k0 + k1
    lead_sign, corr_sign, wpow = variant
    shift = 1 if reversed_family else -1
    bracket = (2 * j + 1
               + (n + 1) * j * (j - 1) / (2 * n + K + 2)
               - n * (j + 1) * (j + 2) / (2 * n + K))
    return (lead_sign * 8 * w ** 2 * K
            + corr_sign * 8 * w ** wpow * (k0 - k1 + shift) * bracket)


def predicted_k(label: BasisLabel,
                params: Params) -> Dict[BasisLabel, Fraction]:
    """Closed-form prediction for the quartic-invariant level action."""
    if params.is_symbolic:
        raise ValueError("predictions need numeric parameters")
    fam, n, j = label.classify()
    k0, k1, w = params.k0, params.k1, params.w
    K = k0 + k1
    out: Dict[BasisLabel, Fraction] = {}
    if fam == "E0":
        if j >= 2:
            out[BasisLabel(4 * n + j + 2, j - 2)] = \
                16 * w ** 4 * (n + 1) * (n + K) \
                / ((2 * n + K) * (2 * n + K + 1))
        out[label] = -8 * w ** 2 * (k0 - k1) * (
            2 * j + (n + 1) * j * (j - 1) / (2 * n + K + 1)
            - n * (j + 1) * (j + 2) / (2 * n + K - 1))
        if n >= 1:
            out[BasisLabel(4 * n + j - 2, j + 2)] = \
                4 * (j + 1) * (j + 2) * (2 * n + 2 * k0 - 1) \
                * (2 * n + 2 * k1 - 1) * (4 * n + 2 * K + j - 1) \
                * (4 * n + 2 * K + j) \
                / ((2 * n + K - 1) * (2 * n + K))
    elif fam == "E1":
        if j >= 2:
            out[BasisLabel(4 * n + 4 + j, j - 2)] = \
                16 * w ** 4 * (n + 1) * (n + K + 1) \
                / ((2 * n + K + 2) * (2 * n + K + 1))
        out[label] = _mirror_diag(n, j, params, False, E1_DIAG_VARIANT)
        if n >= 1:
            out[BasisLabel(4 * n + j, j + 2)] = \
                4 * (j + 1) * (j + 2) * (2 * n + 2 * k0 - 1) \
                * (2 * n + 2 * k1 + 1) * (4 * n + 2 * K + j + 2) \
                * (4 * n + 2 * K + j + 1) \
                / ((2 * n + K + 1) * (2 * n + K))
    elif fam == "E3":
        if j >= 2:
            out[BasisLabel(j - 2, 4 * n + j + 2)] = \
                16 * w ** 4 * n * (n + K + 1) \
                / ((2 * n + K) * (2 * n + K + 1))
        out[label] = -8 * w ** 2 * (k0 - k1) * (
            2 * j + 2 + n * j * (j - 1) / (2 * n + K + 1)
            - (n - 1) * (j + 1) * (j + 2) / (2 * n + K - 1))
        if n >= 2:
            out[BasisLabel(j + 2, 4 * n + j - 2)] = \
                4 * (j + 1) * (j + 2) * (2 * n + 2 * k0 - 1) \
                * (2 * n + 2 * k1 - 1) * (4 * n + 2 * K + j - 1) \
                * (4 * n + 2 * K + j) \
                / ((2 * n + K - 1) * (2 * n + K))
    elif fam == "E2":
        if j >= 2:
            out[BasisLabel(j - 2, 4 * n + 4 + j)] = \
                16 * w ** 4 * (n + 1) * (n + K + 1) \
                / ((2 * n + K + 2) * (2 * n + K + 1))
        out[label] = _mirror_diag(n, j, params, True, E2_DIAG_VARIANT)
        if n >= 1:
            out[BasisLabel(j + 2, 4 * n + j)] = \
                4 * (j + 1) * (j + 2) * (2 * n + 2 * k0 + 1) \
                * (2 * n + 2 * k1 - 1) * (4 * n + 2 * K + j + 1) \
                * (4 * n + 2 * K + j + 2) \
                / ((2 * n + K + 1) * (2 * n + K))
    elif fam == "O1":
        if j >= 2:
            out[BasisLabel(4 * n + 3 + j, j - 2)] = \
                16 * w ** 4 * (n + 1) * (n + K + 1) \
                / ((2 * n + K + 2) * (2 * n + K + 1))
        if j >= 1:
            out[BasisLabel(j - 1, 4 * n + 2 + j)] = \
                -8 * w ** 3 * (k0 + k1) * (2 * n + K + j + 1) \
                / _poch3(2 * n + K)
        out[label] = -8 * w ** 2 * (k0 + k1) * (k0 - k1) \
            * (2 * n + K + j + 1) ** 2 \
            / ((2 * n + K) * (2 * n + K + 1))
        if n >= 1:
            out[BasisLabel(j + 1, 4 * n + j)] = \
                -8 * w * (k0 - k1) * (j + 1) * (2 * n + K + j + 1) \
                * (4 * n + 2 * K + j + 1) / _poch3(2 * n + K - 1)
            out[BasisLabel(4 * n - 1 + j, j + 2)] = \
                4 * (j + 1) * (j + 2) * (2 * n + 2 * k0 - 1) \
                * (2 * n + 2 * k1 - 1) * (4 * n + 2 * K + j + 1) \
                * (4 * n + 2 * K + j) \
                / ((2 * n + K - 1) * (2 * n + K))
    elif fam == "O3":
        if j >= 2:
            out[BasisLabel(4 * n + 5 + j, j - 2)] = \
                16 * w ** 4 * (n + 1) * (n + K + 1) \
                / ((2 * n + K + 2) * (2 * n + K + 3))
        if j >= 1:
            out[BasisLabel(j - 1, 4 * n + 4 + j)] = \
                -32 * w ** 3 * (k0 - k1) * (n + 1) * (2 * n + K + j + 2) \
                * (n + K + 1) / _poch3(2 * n + K + 1)
        out[label] = -8 * w ** 2 * (k0 + k1) * (k0 - k1) \
            * (2 * n + K + j + 2) ** 2 \
            / ((2 * n + K + 1) * (2 * n + K + 2))
        out[BasisLabel(j + 1, 4 * n + 2 + j)] = \
            -8 * w * (k0 + k1) * (2 * n + K + j + 2) \
            * (4 * n + 2 * K + j + 3) * (j + 1) * (2 * n + 2 * k0 + 1) \
            * (2 * n + 2 * k1 + 1) / _poch3(2 * n + K)
        if n >= 1:
            out[BasisLabel(4 * n + 1 + j, j + 2)] = \
                4 * (j + 1) * (j + 2) * (2 * n + 2 * k0 + 1) \
                * (2 * n + 2 * k1 + 1) * (4 * n + 2 * K + j + 2) \
                * (4 * n + 2 * K + j + 3) \
                / ((2 * n + K + 1) * (2 * n + K))
    else:   # O1R, O3R
        direct = predicted_k(label.swap(), params)
        return {tgt.swap(): val for tgt, val in direct.items()}
    return out


def _poch3(x: Fraction) -> Fraction:
    return x * (x + 1) * (x + 2)


def adjudicate_mirror_diagonals(params: Params, max_degree: int):
    """Determine which variants of the contested mirror-family diagonal
    formulas reproduce the computed quartic table.

    Returns {"E1": set of matching variants, "E2": ...} where each variant
    is (lead_sign, correction_sign, omega_power); a variant survives only if
    it matches every diagonal entry of its family up to max_degree.
    """
    surviving = {"E1": set(MIRROR_DIAG_VARIANTS),
                 "E2": set(MIRROR_DIAG_VARIANTS)}
    for degree in range(max_degree + 1):
        for label in enumerate_basis(degree):
            fam, n, j = label.classify()
            if fam not in ("E1", "E2"):
                continue
            computed = dict(khat_expansion(label, params)).get(label, QI(0))
            for variant in list(surviving[fam]):
                pred = _mirror_diag(n, j, params, fam == "E2", variant)
                if computed != QI(pred):
                    surviving[fam].discard(variant)
    return surviving
