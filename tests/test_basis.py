"""Basis construction: Laguerre and Jacobi-type pieces against independent
oracles, frozen leading coefficients, harmonicity, and spectral data."""

import math
from fractions import Fraction as Q

import pytest

from b2dunkl.basis import (
    BasisLabel, energy, enumerate_basis, group_action, harmonic_seed,
    isotype, j2_eigenvalue, jacobi_homogeneous, laguerre_coeffs, norm,
    pochhammer, psi, rho1_eigenvalue, seed_norm_rel, sigma0_action,
)
from b2dunkl.group import ALL_ELEMENTS, act, reflection, rotation
from b2dunkl.operators import apply_named
from b2dunkl.params import DEFAULT_PARAMS as P
from b2dunkl.params import EXTRA_PARAM_SETS, Params
from b2dunkl.poly import MPoly
from b2dunkl.scalars import QI
import label_oracle
import norm_oracle

Z = MPoly.var("z")
ZB = MPoly.var("zb")
GAMMA = P.gamma()


def test_pochhammer():
    assert pochhammer(Q(1, 2), 3) == Q(1, 2) * Q(3, 2) * Q(5, 2)
    assert pochhammer(5, 0) == 1
    assert pochhammer(-3, 2) == 6
    with pytest.raises(ValueError, match="nonnegative"):
        pochhammer(Q(1, 2), -1)


def test_laguerre_small_cases():
    assert laguerre_coeffs(0, Q(7, 3)) == [Q(1)]
    alpha = Q(7, 3)
    assert laguerre_coeffs(1, alpha) == [1 + alpha, Q(-1)]
    assert laguerre_coeffs(2, alpha) == [
        (alpha + 1) * (alpha + 2) / 2, -(alpha + 2), Q(1, 2)]


@pytest.mark.parametrize("alpha", [Q(0), Q(1, 2), Q(5, 3), GAMMA])
def test_laguerre_three_term_recurrence(alpha):
    # (n+1) L_{n+1}(t) = (2n+1+alpha-t) L_n(t) - (n+alpha) L_{n-1}(t)
    for n in range(1, 7):
        lo = laguerre_coeffs(n - 1, alpha)
        mid = laguerre_coeffs(n, alpha)
        hi = laguerre_coeffs(n + 1, alpha)
        lhs = [(n + 1) * c for c in hi]
        rhs = [Q(0)] * (n + 2)
        for j, c in enumerate(mid):
            rhs[j] += (2 * n + 1 + alpha) * c
            rhs[j + 1] -= c
        for j, c in enumerate(lo):
            rhs[j] -= (n + alpha) * c
        assert lhs == rhs


def _jacobi_classical(n, alpha, beta):
    """Independent oracle: hypergeometric-sum Jacobi polynomial, already
    homogenized.  Built from a different closed form than the implementation."""
    minus2 = (Z ** 2 - ZB ** 2) ** 2
    plus2 = (Z ** 2 + ZB ** 2) ** 2
    acc = MPoly.zero()
    for s in range(n + 1):
        c1 = pochhammer(alpha + s + 1, n - s) / math.factorial(n - s)
        c2 = pochhammer(beta + 1, s) / math.factorial(s) / pochhammer(
            beta + 1, s)
        # binomial(n+alpha, n-s) * binomial(n+beta, s)
        c1 = pochhammer(alpha + s + 1, n - s) / math.factorial(n - s)
        c2 = pochhammer(n + beta - s + 1, s) / math.factorial(s)
        acc = acc + (c1 * c2 * Q(1, 4 ** n)) * minus2 ** s \
            * plus2 ** (n - s)
    return acc


@pytest.mark.parametrize("ab", [(Q(-1, 14), Q(-1, 22)),
                                (Q(13, 14), Q(21, 22)),
                                (Q(1, 2), Q(3, 2))])
def test_jacobi_homogenization_matches_classical_oracle(ab):
    alpha, beta = ab
    for n in range(4):
        assert jacobi_homogeneous(n, alpha, beta) == \
            _jacobi_classical(n, alpha, beta)


def test_jacobi_frozen_degree_one():
    alpha, beta = Q(1, 3), Q(2, 5)
    expect = Q(1, 4) * ((1 + alpha) * (Z ** 2 + ZB ** 2) ** 2
                        + (1 + beta) * (Z ** 2 - ZB ** 2) ** 2)
    assert jacobi_homogeneous(1, alpha, beta) == expect


def test_harmonic_seed_rejects_unknown_family_and_empty_tower():
    with pytest.raises(ValueError, match="starts at n = 1"):
        harmonic_seed("E3", 0, P)
    with pytest.raises(ValueError, match="unknown family 'E4'"):
        harmonic_seed("E4", 0, P)


def test_label_classification():
    assert BasisLabel(4, 0).classify() == ("E0", 1, 0)
    assert BasisLabel(7, 3).classify() == ("E0", 1, 3)
    assert BasisLabel(3, 3).classify() == ("E0", 0, 3)
    assert BasisLabel(6, 0).classify() == ("E1", 1, 0)
    assert BasisLabel(2, 0).classify() == ("E1", 0, 0)
    assert BasisLabel(0, 2).classify() == ("E2", 0, 0)
    assert BasisLabel(3, 9).classify() == ("E2", 1, 3)
    assert BasisLabel(0, 4).classify() == ("E3", 1, 0)
    assert BasisLabel(2, 10).classify() == ("E3", 2, 2)
    assert BasisLabel(1, 0).classify() == ("O1", 0, 0)
    assert BasisLabel(6, 1).classify() == ("O1", 1, 1)
    assert BasisLabel(3, 0).classify() == ("O3", 0, 0)
    assert BasisLabel(0, 3).classify() == ("O3R", 0, 0)
    assert BasisLabel(1, 6).classify() == ("O1R", 1, 1)
    with pytest.raises(ValueError):
        BasisLabel(-1, 2)


def test_closed_forms_equal_case_by_case_oracle():
    for deg in range(61):
        for label in enumerate_basis(deg):
            assert label.classify() == label_oracle.classify(label), label
            assert sigma0_action(label) == \
                label_oracle.sigma0_action(label), label
            assert isotype(label) == label_oracle.isotype(label), label


def test_enumerate_basis():
    labels = enumerate_basis(3)
    assert labels == [BasisLabel(3, 0), BasisLabel(2, 1),
                      BasisLabel(1, 2), BasisLabel(0, 3)]


def test_smallest_wavefunctions_frozen():
    assert psi(BasisLabel(0, 0), P) == MPoly.const(1)
    assert psi(BasisLabel(1, 0), P) == Z
    assert psi(BasisLabel(0, 1), P) == ZB
    # (1,1) is the first radial excitation: L_1^(gamma)(w z zb)
    assert psi(BasisLabel(1, 1), P) == \
        (1 + GAMMA) - P.w * Z * ZB
    assert psi(BasisLabel(2, 0), P) == Z ** 2 + ZB ** 2
    assert psi(BasisLabel(0, 2), P) == Z ** 2 - ZB ** 2


def test_seeds_are_harmonic():
    cases = [("E0", 1), ("E0", 2), ("E1", 0), ("E1", 1), ("E2", 0),
             ("E2", 1), ("E3", 1), ("E3", 2), ("O1", 0), ("O1", 1),
             ("O3", 0), ("O3", 1), ("O1R", 1), ("O3R", 0)]
    for family, n in cases:
        seed = harmonic_seed(family, n, P)
        assert not seed.is_zero()
        assert apply_named("DeltaKappa", seed, P).is_zero(), (family, n)


def test_seed_leading_coefficients_frozen():
    k0, k1 = P.k0, P.k1
    tot = k0 + k1
    for n in range(1, 4):
        scale = Q(1, 4 ** n * math.factorial(n))
        e0 = harmonic_seed("E0", n, P)
        assert e0.coefficient({"z": 4 * n}) == \
            QI(pochhammer(n + tot, n) * scale)
        assert e0.coefficient({"zb": 4 * n}) == \
            e0.coefficient({"z": 4 * n})
        e3 = harmonic_seed("E3", n, P)
        val = pochhammer(n + tot + 1, n - 1) \
            * Q(1, 4 ** (n - 1) * math.factorial(n - 1))
        assert e3.coefficient({"z": 4 * n}) == QI(val)
        assert e3.coefficient({"zb": 4 * n}) == QI(-val)
        for fam in ("E1", "E2"):
            p = harmonic_seed(fam, n, P)
            val = pochhammer(n + tot + 1, n) * scale
            assert p.coefficient({"z": 4 * n + 2}) == QI(val)
            assert p.coefficient({"zb": 4 * n + 2}) == \
                QI(val if fam == "E1" else -val)
        o1 = harmonic_seed("O1", n, P)
        assert o1.coefficient({"z": 4 * n + 1}) == \
            QI(pochhammer(n + tot + 1, n) * scale)
        assert o1.coefficient({"z": 1, "zb": 4 * n}) == \
            QI(tot * pochhammer(n + tot + 1, n - 1) * scale)
        o3 = harmonic_seed("O3", n, P)
        assert o3.coefficient({"z": 4 * n + 3}) == \
            QI(pochhammer(n + tot + 1, n + 1) * scale)
        assert o3.coefficient({"z": 1, "zb": 4 * n + 2}) == \
            QI((k0 - k1) * pochhammer(n + tot + 1, n) * scale)


def test_wavefunction_leading_coefficient_carries_laguerre_factor():
    # top term of the Laguerre factor is (-w)^j / j!, so the coefficient of
    # z^a zb^b in psi_{a,b} is the extreme seed coefficient times that
    for (a, b) in [(5, 1), (4, 2), (2, 4), (7, 2), (1, 6)]:
        label = BasisLabel(a, b)
        fam, n, j = label.classify()
        seed = harmonic_seed(fam, n, P)
        m = seed.total_degree()
        expect = seed.coefficient({"z": m} if a >= b else {"zb": m})
        got = psi(label, P).coefficient({"z": a, "zb": b})
        assert got == expect * QI(Q((-1) ** j) * P.w ** j
                                  / math.factorial(j)), label


def test_energy_eigenfunctions():
    for deg in range(6):
        e = energy(deg, P)
        for label in enumerate_basis(deg):
            f = psi(label, P)
            assert apply_named("Hhat", f, P) == e * f, label


def test_quarter_turn_eigenvalues():
    for deg in range(6):
        for label in enumerate_basis(deg):
            f = psi(label, P)
            assert act(rotation(1), f) == rho1_eigenvalue(label) * f


def test_axis_mirror_action():
    for deg in range(6):
        for label in enumerate_basis(deg):
            image, sign = sigma0_action(label)
            assert act(reflection(0), psi(label, P)) == \
                sign * psi(image, P), label


def test_isotypes():
    assert isotype(BasisLabel(4, 0)) == 0
    assert isotype(BasisLabel(6, 0)) == 1
    assert isotype(BasisLabel(0, 6)) == 2
    assert isotype(BasisLabel(0, 4)) == 3
    assert isotype(BasisLabel(3, 0)) is None


def j_eigenvalue(label, params):
    """Angular momentum eigenvalue; only odd labels are eigenfunctions."""
    d = label.a - label.b
    if d % 2 == 0:
        return None
    gamma = params.gamma()
    return abs(d) + gamma if d > 0 else -(abs(d) + gamma)


def central_eigenvalue(label, params):
    """Eigenvalue of the central group-algebra element."""
    k0, k1 = params.k0, params.k1
    signs = {"E0": (1, 1), "E1": (1, -1), "E2": (-1, 1), "E3": (-1, -1)}
    if label.family in signs:
        s0, s1 = signs[label.family]
        return (1 + 2 * s0 * k0 + 2 * s1 * k1) ** 2
    return 1 - 4 * k0 ** 2 - 4 * k1 ** 2


def test_angular_momentum_action():
    for deg in range(6):
        for label in enumerate_basis(deg):
            f = psi(label, P)
            jf = apply_named("J", f, P)
            ev = j_eigenvalue(label, P)
            if ev is not None:
                assert jf == ev * f, label
            assert apply_named("J", jf, P) == \
                j2_eigenvalue(label, P) * f, label


def test_central_element_eigenvalues():
    for deg in range(6):
        for label in enumerate_basis(deg):
            f = psi(label, P)
            assert apply_named("R", f, P) == \
                central_eigenvalue(label, P) * f, label


def _circle_moment(k, params):
    """E[x^k] for the Jacobi weight (1-x)^(k0-1/2) (1+x)^(k1-1/2), x = cos 4t.

    Restricting the plane weight to the unit circle and substituting
    x = cos 4t turns the angular factor into exactly this Jacobi weight.
    """
    a1 = params.k0 + Q(1, 2)
    ab2 = params.k0 + params.k1 + 1
    return sum(Q(math.comb(k, i)) * (-2) ** i
               * pochhammer(a1, i) / pochhammer(ab2, i)
               for i in range(k + 1))


def _chebyshev_coeffs(m):
    prev, cur = [Q(1)], [Q(0), Q(1)]
    if m == 0:
        return prev
    for _ in range(m - 1):
        nxt = [Q(0)] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def _circle_norm_oracle(p, params):
    """Squared circle norm of p relative to 1, by exact Fourier moments."""
    freq = {}
    for exp, c in p.terms.items():
        f = exp[0] - exp[1]     # powers of z and zb
        freq[f] = freq.get(f, QI(0)) + c
    total = QI(0)
    for f1, c1 in freq.items():
        for f2, c2 in freq.items():
            d = f1 - f2
            if d % 4 != 0:
                continue
            coeffs = _chebyshev_coeffs(abs(d) // 4)
            moment = sum(cc * _circle_moment(k, params)
                         for k, cc in enumerate(coeffs))
            total = total + c1 * c2.conj() * QI(moment)
    assert total.im == 0
    return total.re


def test_seed_norms_frozen_and_positive():
    k0, k1 = P.k0, P.k1
    tot = k0 + k1
    # n = 0, 1 values collapse to simple closed forms
    assert seed_norm_rel(BasisLabel(0, 0), P) == 1
    assert seed_norm_rel(BasisLabel(2, 0), P) == \
        4 * (k1 + Q(1, 2)) / (tot + 1)
    assert seed_norm_rel(BasisLabel(0, 2), P) == \
        4 * (k0 + Q(1, 2)) / (tot + 1)
    assert seed_norm_rel(BasisLabel(0, 4), P) == \
        16 * (k0 + Q(1, 2)) * (k1 + Q(1, 2)) / ((tot + 1) * (tot + 2))
    assert seed_norm_rel(BasisLabel(1, 0), P) == 1
    assert seed_norm_rel(BasisLabel(3, 0), P) == \
        4 * (k0 + Q(1, 2)) * (k1 + Q(1, 2))
    # reversed odd labels share the direct norm
    assert seed_norm_rel(BasisLabel(0, 5), P) == \
        seed_norm_rel(BasisLabel(5, 0), P)
    for deg in range(9):
        for label in enumerate_basis(deg):
            assert seed_norm_rel(label, P) > 0


def test_seed_norms_against_circle_integral():
    for params in (P, Params.numeric(Q(7, 5), Q(2, 9), Q(5, 7))):
        for deg in range(9):
            seen = set()
            for label in enumerate_basis(deg):
                fam, n, _ = label.classify()
                if (fam, n) in seen:
                    continue
                seen.add((fam, n))
                seed = harmonic_seed(fam, n, params)
                assert _circle_norm_oracle(seed, params) == \
                    seed_norm_rel(label, params), (fam, n)


def test_odd_seed_norms_decompose():
    # the degree-(4n+1) seed is built from the two sigma0 eigen-seeds of
    # degree 4n, and its squared norm splits accordingly
    for n in range(1, 4):
        t_o1 = seed_norm_rel(BasisLabel(4 * n + 1, 0), P)
        t_e0 = seed_norm_rel(BasisLabel(4 * n, 0), P)
        t_e3 = seed_norm_rel(BasisLabel(0, 4 * n), P)
        assert t_o1 == t_e0 + t_e3 / 16
    for n in range(0, 3):
        t_o3 = seed_norm_rel(BasisLabel(4 * n + 3, 0), P)
        t_e1 = seed_norm_rel(BasisLabel(4 * n + 2, 0), P)
        t_e2 = seed_norm_rel(BasisLabel(0, 4 * n + 2), P)
        assert t_o3 == (n + P.k0 + Q(1, 2)) ** 2 * t_e1 \
            + (n + P.k1 + Q(1, 2)) ** 2 * t_e2


def test_norm_ratios_consistent():
    assert norm(BasisLabel(0, 0), P) == 1
    for deg in (4, 5):
        for label in enumerate_basis(deg):
            assert norm(label, P) > 0


# the four triples the norm formulas are checked on: the default, the two
# extra ones and the high-height triple
NORM_TRIPLES = (P,) + EXTRA_PARAM_SETS + (
    Params.numeric(Q(9973, 10007), Q(7919, 8081), Q(4999, 5003)),)


def test_factored_seed_norms_equal_family_products():
    for params in NORM_TRIPLES:
        for deg in range(41):
            for label in enumerate_basis(deg):
                assert seed_norm_rel(label, params) == \
                    norm_oracle.seed_norm_rel(label, params), label


def test_norm_quotients_equal_pairwise_ratios():
    for params in NORM_TRIPLES:
        for deg in range(17):
            labels = enumerate_basis(deg)
            norms = {lb: norm(lb, params) for lb in labels}
            for l1 in labels:
                for l2 in labels:
                    assert norms[l1] / norms[l2] == \
                        norm_oracle.norm_ratio(l1, l2, params), (l1, l2)


def test_basis_requires_numeric_params():
    with pytest.raises(ValueError):
        psi(BasisLabel(1, 0), Params.symbolic())


def test_group_action_on_labels_matches_polynomials():
    for deg in range(6):
        for lb in enumerate_basis(deg):
            f = psi(lb, P)
            for g in ALL_ELEMENTS:
                img, phase = group_action(g, lb)
                assert act(g, f) == phase * psi(img, P), (g, lb)
