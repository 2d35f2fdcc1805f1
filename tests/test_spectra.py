"""Level expansion, computed coefficient tables, closed-form predictions,
norm symmetry, and the non-commutation witness."""

import json
from fractions import Fraction as Q

import pytest

from b2dunkl.basis import BasisLabel, enumerate_basis, norm_ratio, psi
from b2dunkl.operators import apply_named
from b2dunkl.params import DEFAULT_PARAMS as P
from b2dunkl.params import EXTRA_PARAM_SETS
from b2dunkl.poly import MPoly
from b2dunkl.scalars import QI
from b2dunkl.spectra import (
    NotInSpanError, adjudicate_mirror_diagonals, expand, h0_shifted_expansion,
    h0_table, j2_table, k_table, khat_expansion, label_str, norm_table,
    parse_label, predicted_h0, predicted_k,
)

P2 = EXTRA_PARAM_SETS[0]


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
