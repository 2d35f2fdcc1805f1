"""Level expansion, computed coefficient tables, closed-form predictions,
norm symmetry, and the non-commutation witness."""

import json
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import level_oracle
from b2dunkl import spectra
from b2dunkl.basis import BasisLabel, energy, enumerate_basis, psi
from b2dunkl.operators import DEGREE_PRESERVING, apply, apply_named
from b2dunkl.params import DEFAULT_PARAMS as P
from b2dunkl.params import EXTRA_PARAM_SETS, Params
from b2dunkl.poly import MPoly, from_terms, unpack
from b2dunkl.scalars import QI
from b2dunkl.spectra import (
    NotInSpanError, _level_solver, adjudicate_mirror_diagonals, expand,
    h0_shifted_expansion, h0_table, j2_expansion, j2_table, k_table,
    khat_expansion, label_str, norm_table, parse_label, predicted_h0, predicted_k,
)
from memos import clear_memos
from norm_oracle import norm_ratio

P2 = EXTRA_PARAM_SETS[0]
# the high-height triple of the benchmark's table sweep and ROADMAP
HIGH = Params(Q(9973, 10007), Q(7919, 8081), Q(4999, 5003))
TRIPLES = (P,) + EXTRA_PARAM_SETS + (HIGH,)


def test_expand_recovers_basis_coordinates():
    for deg in range(6):
        labels = enumerate_basis(deg)
        for lb in labels:
            assert expand(psi(lb, P), deg, P) == {lb: QI(1)}
        combo = MPoly.zero()
        for i, lb in enumerate(labels):
            combo = combo + QI(Q(i + 1, 3), Q(-i, 7)) * psi(lb, P)
        got = expand(combo, deg, P)
        assert got == {lb: QI(Q(i + 1, 3), Q(-i, 7))
                       for i, lb in enumerate(labels)}


def test_expand_rejects_outsiders():
    z = MPoly.var("z")
    with pytest.raises(NotInSpanError):
        expand(z ** 2, 3, P)        # parity mismatch
    with pytest.raises(NotInSpanError):
        expand(z ** 5, 3, P)        # degree too high
    with pytest.raises(ValueError):
        expand(MPoly.var("u"), 2, P)
    # right parity and degree but not an eigenspace element
    with pytest.raises(NotInSpanError):
        expand(z ** 2, 4, P)


@pytest.mark.parametrize("params", TRIPLES, ids=lambda p: p.label())
def test_top_degree_block_has_full_rank(params):
    # the top-degree parts of a level's basis are a basis of the
    # homogeneous polynomials of its degree
    for deg in range(17):
        assert _level_solver(deg, params).rank == deg + 1


gaussian = st.builds(QI, st.fractions(-9, 9, max_denominator=8),
                     st.fractions(-9, 9, max_denominator=8))


@st.composite
def level_candidates(draw):
    """(polynomial, degree, params): a combination of one level's basis
    functions, perhaps with one monomial added that may leave the level."""
    deg = draw(st.integers(0, 8))
    params = draw(st.sampled_from(TRIPLES))
    p = MPoly.zero()
    for lb in enumerate_basis(deg):
        p = p + draw(gaussian) * psi(lb, params)
    # the degrees a monomial of each kind may have
    kinds = {"same degree": [deg],
             "lower degree": list(range(deg - 2, -1, -2)),
             "degree N + 1": [deg + 1],
             "wrong parity": list(range(deg - 1, -1, -2))}
    kind = draw(st.sampled_from([None] + sorted(k for k in kinds if kinds[k])))
    if kind is not None:
        d = draw(st.sampled_from(kinds[kind]))
        a = draw(st.integers(0, d))
        c = draw(gaussian.filter(bool))
        p = p + c * MPoly(("z", "zb"), {(a, d - a): 1})
    return p, deg, params


@given(level_candidates())
@settings(max_examples=60, deadline=None)
def test_expand_agrees_with_the_whole_level_oracle(case):
    p, deg, params = case
    try:
        want = level_oracle.expand(p, deg, params)
    except NotInSpanError:
        with pytest.raises(NotInSpanError,
                           match=f"not an element of the degree-{deg} level"):
            expand(p, deg, params)
    else:
        assert expand(p, deg, params) == want


# ---- the top-degree slice: invariants the table and level-solve paths use


def _top_slices(params):
    """(label, j, m, top-degree part of psi) for every label of degree at
    most 12, with j = min(a, b) and m = |a - b|."""
    for deg in range(13):
        for lb in enumerate_basis(deg):
            top = {e: c for e, c in psi(lb, params).terms.items()
                   if sum(unpack(e)) == deg}
            yield lb, min(lb.a, lb.b), abs(lb.a - lb.b), from_terms(top)


@pytest.mark.parametrize("params", TRIPLES, ids=lambda p: p.label())
def test_top_degree_part_is_the_seed_times_a_radial_power(params):
    # the leading Laguerre coefficient is (-1)^j / j!, so the closed form
    # the tables read, seed times (-w z zb)^j / j!, is the top part of psi
    for lb, _, _, top in _top_slices(params):
        assert spectra._top(lb, params) == top


@pytest.mark.parametrize("params", TRIPLES, ids=lambda p: p.label())
def test_top_degree_part_starts_at_its_chain_position(params):
    # z^p zb^q with s = min(p, q): nothing below s = j, and at s = j only
    # the two extreme monomials, which makes the top block triangular
    for _, j, m, top in _top_slices(params):
        for exp in top.terms:
            p, q = unpack(exp)[:2]
            assert min(p, q) >= j
            if min(p, q) == j:
                assert (p, q) in ((j + m, j), (j, j + m))


@st.composite
def homogeneous(draw):
    """(d, a homogeneous polynomial of degree d in z, zb)."""
    d = draw(st.integers(0, 8))
    coeffs = draw(st.dictionaries(st.integers(0, d), gaussian, min_size=1))
    return d, MPoly(("z", "zb"), {(a, d - a): c for a, c in coeffs.items()})


# the degree drops each table operator's image may show
DEGREE_DROPS = {"Khat": {0, 2, 4}, "Hhat": {0, 2}, "Hhat_0": {0, 2},
                "Hhat_2": {0, 2}, "J": {0}, "J2": {0}, "R": {0}}


@given(homogeneous(), st.sampled_from(TRIPLES))
@settings(max_examples=40, deadline=None)
def test_table_operators_never_raise_degree(drawn, params):
    d, p = drawn
    for name, drops in DEGREE_DROPS.items():
        image = apply_named(name, p, params)
        assert {d - sum(unpack(e)) for e in image.terms} <= drops, name


@st.composite
def labels(draw):
    """A basis label of total degree at most 10."""
    degree = draw(st.integers(0, 10))
    b = draw(st.integers(0, degree))
    return BasisLabel(degree - b, b)


@given(labels(), st.sampled_from(TRIPLES))
@settings(max_examples=30, deadline=None)
def test_table_rows_equal_the_expansion_of_the_full_image(label, params):
    # the rows read from the top slice alone, against the old path: the
    # whole image of psi, expanded and rebuilt exactly
    f = psi(label, params)
    n = label.degree
    images = {
        khat_expansion: apply_named("Khat", f, params),
        h0_shifted_expansion: apply_named("Hhat_0", f, params)
        - Q(1, 2) * energy(n, params) * f,
        j2_expansion: apply_named("J2", f, params),
    }
    for expansion, image in images.items():
        want = tuple(expand(image, n, params).items())
        assert expansion(label, params) == want, expansion.__name__


def test_tables_build_no_basis_function():
    clear_memos()
    for table in (k_table, h0_table, j2_table):
        table(12, HIGH)
    assert psi.cache_info().misses == 0


@given(homogeneous(), st.sampled_from(TRIPLES))
@settings(max_examples=40, deadline=None)
def test_degree_preserving_parts_give_the_top_of_the_image(drawn, params):
    d, p = drawn
    for name, part in DEGREE_PRESERVING.items():
        image = apply_named(name, p, params)
        top = {e: c for e, c in image.terms.items()
               if sum(unpack(e)) == d}
        assert apply(part, p, params) == from_terms(top), name


@pytest.mark.parametrize("predict", [predicted_h0, predicted_k])
def test_predictions_reject_symbolic_params(predict):
    with pytest.raises(ValueError, match="numeric parameters"):
        predict(BasisLabel(2, 1), Params.symbolic())


def test_h0_table_matches_closed_forms():
    for params, top in ((P, 8), (P2, 6)):
        for deg in range(top + 1):
            for lb in enumerate_basis(deg):
                comp = dict(h0_shifted_expansion(lb, params))
                pred = {t: QI(v)
                        for t, v in predicted_h0(lb, params).items() if v}
                assert comp == pred, (params.label(), lb)


def test_h0_table_is_traceless_with_real_entries():
    for deg in range(8):
        for lb in enumerate_basis(deg):
            for tgt, c in h0_shifted_expansion(lb, P):
                assert tgt != lb
                assert c.im == 0


def test_k_table_matches_closed_forms():
    for params, top in ((P, 8), (P2, 6)):
        for deg in range(top + 1):
            for lb in enumerate_basis(deg):
                comp = dict(khat_expansion(lb, params))
                pred = {t: QI(v)
                        for t, v in predicted_k(lb, params).items() if v}
                assert comp == pred, (params.label(), lb)


def test_contested_diagonal_variants_are_stable():
    for params in (P,) + EXTRA_PARAM_SETS:
        res = adjudicate_mirror_diagonals(params, max_degree=8)
        assert res["E1"] == {(1, -1, 2)}, params.label()
        assert res["E2"] == {(-1, -1, 2)}, params.label()


def test_norm_symmetry_of_tables():
    # self-adjointness: c_jk ||psi_k||^2 == conj(c_kj) ||psi_j||^2
    for expander, top in ((h0_shifted_expansion, 7), (khat_expansion, 6)):
        for deg in range(top + 1):
            labels = enumerate_basis(deg)
            tab = {lb: dict(expander(lb, P)) for lb in labels}
            for j in labels:
                for k in labels:
                    cjk = tab[j].get(k, QI(0))
                    ckj = tab[k].get(j, QI(0))
                    assert cjk == ckj.conj() * QI(norm_ratio(j, k, P))


def test_j2_table_is_diagonal_with_known_eigenvalues():
    from b2dunkl.basis import j2_eigenvalue
    for deg in range(7):
        tab = j2_table(deg, P)
        for lb in enumerate_basis(deg):
            lam = j2_eigenvalue(lb, P)
            want = {lb: QI(lam)} if lam else {}
            assert tab.entries[lb] == want


def test_angular_momentum_squared_does_not_commute_with_quartic():
    # the pair generates new conserved quantities; a single witness suffices
    lb = BasisLabel(6, 1)
    f = psi(lb, P)
    a = apply_named("Khat", apply_named("J2", f, P), P)
    b = apply_named("J2", apply_named("Khat", f, P), P)
    assert not (a - b).is_zero()
    # while each separately preserves the level span
    expand(a - b, lb.degree, P)


def test_coeff_table_serialization_is_deterministic():
    tab = h0_table(4, P)
    d1 = json.dumps(tab.to_json_dict(), sort_keys=True)
    d2 = json.dumps(h0_table(4, P).to_json_dict(), sort_keys=True)
    assert d1 == d2
    doc = tab.to_json_dict()
    assert doc["degree"] == 4
    assert doc["basis"] == ["4,0", "3,1", "2,2", "1,3", "0,4"]
    for entry in doc["entries"]:
        assert set(entry) == {"source", "target", "re", "im"}
        assert "/" in entry["re"]
    rows = tab.to_csv_rows()
    assert rows[0] == ["operator", "degree", "source", "target", "re", "im"]
    assert all(len(r) == 6 for r in rows)


def test_label_round_trip():
    for deg in range(5):
        for lb in enumerate_basis(deg):
            assert parse_label(label_str(lb)) == lb


def test_norm_table_shape():
    doc = norm_table(5, P)
    assert doc["head"] == "5,0"
    assert [r["label"] for r in doc["rows"]] == \
        [label_str(lb) for lb in enumerate_basis(5)]
    head_row = doc["rows"][0]
    assert head_row["norm_ratio_to_head"] == "1/1"
