from fractions import Fraction as Q

import pytest

from b2dunkl.operators import _monomial_image
from b2dunkl.params import DEFAULT_PARAMS, EXTRA_PARAM_SETS, Params
from b2dunkl.poly import MPoly


def test_numeric_construction():
    p = Params.numeric("3/7", Q(5, 11), 1)
    assert p.k0 == Q(3, 7) and p.k1 == Q(5, 11) and p.w == 1
    assert not p.is_symbolic
    assert p.kappa(0) == Q(3, 7)
    assert p.kappa(3) == Q(5, 11)
    assert p.gamma() == 2 * Q(3, 7) + 2 * Q(5, 11)


def test_validation():
    with pytest.raises(ValueError):
        Params.numeric(-1, 0, 1)
    with pytest.raises(ValueError):
        Params.numeric(0, 0, 0)
    with pytest.raises(ValueError):
        Params(Q(1), None, None)


def test_symbolic_params_enter_as_variables():
    s = Params.symbolic()
    assert s.is_symbolic
    assert s.kappa(0) == MPoly.var("k0")
    assert s.omega() == MPoly.var("w")
    assert s.gamma() == 2 * MPoly.var("k0") + 2 * MPoly.var("k1")
    assert s.is_generic(100)


def test_instantiate():
    p = Params.numeric("1/2", "1/3", 2)
    poly = MPoly.var("k0") * MPoly.var("z") + MPoly.var("w")
    assert p.instantiate(poly) == Q(1, 2) * MPoly.var("z") + 2


def test_genericity():
    assert DEFAULT_PARAMS.is_generic(40)
    for extra in EXTRA_PARAM_SETS:
        assert extra.is_generic(40)
    # k0 + k1 = 1 collides with the n = 0, r = -1 denominator
    bad = Params.numeric("1/2", "1/2", 1)
    assert not bad.is_generic(0)
    with pytest.raises(ValueError):
        bad.require_generic(4)
    # with nonnegative couplings only a small total can collide
    assert Params.numeric(2, 1, 1).is_generic(8)
    assert not Params.numeric(0, 0, 1).is_generic(0)


def _generic_by_search(params, max_degree):
    # the search is_generic replaced: no structural denominator
    # 2n + k0 + k1 + r, r in -1..3, vanishes for n <= max_degree // 4 + 1
    total = params.k0 + params.k1
    return all(2 * n + total + r != 0
               for n in range(max_degree // 4 + 2)
               for r in (-1, 0, 1, 2, 3))


def test_genericity_matches_denominator_search():
    # degrees from -4: below that the search ran no n at all and accepted
    # every coupling, but no degree passed to is_generic is below -1
    couplings = sorted({Q(p, q) for q in range(1, 5)
                        for p in range(2 * q + 1)})
    assert {Q(0), Q(1, 4), Q(1, 2), Q(3, 4), Q(1)} <= set(couplings)
    for k0 in couplings:
        for k1 in couplings:
            pr = Params(k0, k1, Q(1))
            for deg in range(-4, 41):
                assert pr.is_generic(deg) == _generic_by_search(pr, deg), \
                    (k0, k1, deg)


def test_default_params_hashable_for_caching():
    assert hash(DEFAULT_PARAMS) == hash(Params.numeric("3/7", "5/11", "2/3"))


def test_equal_params_share_one_memo_entry():
    fresh = Params.numeric("3/7", "5/11", "2/3")
    assert fresh is not DEFAULT_PARAMS and fresh == DEFAULT_PARAMS
    assert hash(fresh) == hash(DEFAULT_PARAMS)
    assert hash(Params.symbolic()) == hash(Params(None, None, None))
    cached = _monomial_image("zb", 4, 3, DEFAULT_PARAMS)
    before = _monomial_image.cache_info()
    assert _monomial_image("zb", 4, 3, fresh) is cached
    after = _monomial_image.cache_info()
    assert after.currsize == before.currsize
    assert after.hits == before.hits + 1


def test_equality_compares_values_not_identity():
    a = Params.numeric("1/2", "1/3", "1")
    b = Params(Q(1, 2), Q(1, 3), Q(1))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != Params.numeric("1/3", "1/2", "1")
    assert Params.symbolic() == Params.symbolic()
    assert hash(Params.symbolic()) == hash(Params.symbolic())
    assert Params.symbolic() != a and a != Params.symbolic()
    assert a != (Q(1, 2), Q(1, 3), Q(1))
