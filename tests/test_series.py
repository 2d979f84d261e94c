import functools
import operator

import pytest

from metafib import limits, series
from metafib import sequences as sq
from metafib import words
from metafib.series import (
    TruncatedSeries,
    gf_A_from_D,
    gf_As,
    gf_D0,
    gf_Dn,
    gf_Ds_nested,
    gf_Ds_sum,
    gf_Ps,
    gf_ruler,
)

import _series_lists as lists
from _rows import ROWS_A, ROWS_D, ROWS_P, recurrence


def coeffs_1_to(gf, top):
    return [gf.coefficient(n) for n in range(1, top + 1)]


def test_coefficient_outside_the_order_is_refused():
    s = TruncatedSeries([1, 2, 3], 2)
    assert s.coefficient(2) == 3
    for n in (-1, 3):
        with pytest.raises(ValueError):
            s.coefficient(n)


def test_constructor_pads_and_truncates():
    assert TruncatedSeries([1, 2], 4).coeffs == (1, 2, 0, 0, 0)
    assert TruncatedSeries((1, 2, 3, 4), 1).coeffs == (1, 2)
    source = [5, 6, 7]
    TruncatedSeries(source, 1)
    assert source == [5, 6, 7]


def test_coeffs_is_one_read_only_tuple():
    source = [5, 6, 7]
    built = TruncatedSeries(source, 2)
    source[0] = 99
    for gf in (built, gf_ruler(8), gf_A_from_D(2, 8), gf_Ps(2, 8)):
        assert gf.coeffs is gf.coeffs
        assert type(gf.coeffs) is tuple and len(gf.coeffs) == gf.order + 1
        with pytest.raises(TypeError):
            gf.coeffs[0] = 99
    assert built.coeffs == (5, 6, 7)


def test_ruler_gf_values():
    gf = gf_ruler(4096)
    assert gf.coefficient(4) == 3
    assert gf.coefficient(1) == 1
    assert gf.coefficient(96) == 6
    for n in range(1, 4097):
        assert gf.coefficient(n) == sq.ruler(n)


def test_gf_Dn_support_is_word_support():
    assert gf_Dn(0, 4).coeffs == (0, 1, 0, 0, 0)
    assert gf_Dn(1, 4).support() == (2, 3)
    assert gf_Dn(2, 8).support() == (3, 4, 6, 7)
    for n in range(13):
        word = words.word_D(n)
        gf = gf_Dn(n, len(word))
        expected = tuple(i + 1 for i, c in enumerate(word) if c == "1")
        assert gf.support() == expected
        # every cut, with n running past the order's bit length
        for order in range(301):
            cut = tuple(i for i in expected if i <= order)
            assert gf_Dn(n, order).support() == cut, (n, order)


def test_gf_D0_values():
    gf = gf_D0(64)
    assert coeffs_1_to(gf, 8) == [1, 1, 0, 1, 1, 0, 0, 1]
    assert gf.coefficient(3) == 0
    assert gf.coefficient(32) == 1
    assert gf == gf_Ds_sum(0, 64)
    for order in range(301):
        assert gf_D0(order) == gf_Ds_sum(0, order), order


def test_gf_Ds_sum_rows():
    for s in range(3):
        gf = gf_Ds_sum(s, 20)
        assert coeffs_1_to(gf, 20) == ROWS_D[s]
    assert coeffs_1_to(gf_Ds_sum(2, 12), 12) == ROWS_D[2][:12]
    assert gf_Ds_sum(1, 20).coefficient(6) == 1


def test_gf_Ds_nested_matches_sum():
    assert coeffs_1_to(gf_Ds_nested(2, 12), 12) == ROWS_D[2][:12]
    assert gf_Ds_nested(0, 20) == gf_Ds_sum(0, 20)
    assert gf_Ds_nested(1, 1).coeffs == (0, 1)
    for s in range(5):
        assert gf_Ds_nested(s, 512) == gf_Ds_sum(s, 512)
        # the derived depth steps between orders 2**k - 1 and 2**k
        for k in range(12):
            for order in ((1 << k) - 1, 1 << k):
                assert gf_Ds_nested(s, order) == gf_Ds_sum(s, order), (s, order)


def test_gf_As_rows():
    assert gf_As(2, 12).coefficient(8) == 3
    assert coeffs_1_to(gf_As(1, 10), 10) == ROWS_A[1][:10]
    assert gf_As(4, 4).coefficient(1) == 1
    with pytest.raises(ValueError):
        gf_As(0, 16)


def test_gf_A_from_D_rows():
    gf = gf_A_from_D(0, 20)
    assert coeffs_1_to(gf, 20) == ROWS_A[0]
    assert gf.coefficient(0) == 0
    assert gf_A_from_D(2, 256) == gf_As(2, 256)
    # the front factor 1 + z + ... + z**(s-1) is cut at the order
    assert gf_As(10**18, 10) == gf_A_from_D(10**18, 10)


def test_gf_Ps_values():
    assert gf_Ps(2, 6).coefficient(4) == 9
    assert coeffs_1_to(gf_Ps(0, 12), 12) == ROWS_P[0][:12]
    for s in range(5):
        assert gf_Ps(s, 0).coefficient(0) == 1
    for s in range(10):
        for order in range(71):
            assert gf_Ps(s, order).coeffs == (1, *sq.p_window(s, 1, order)), (s, order)


def test_quotient_identity():
    # (1 - z) * (a series) recovers the d series exactly
    for s in range(5):
        a = gf_A_from_D(s, 300).coeffs
        assert [a[0], *map(operator.sub, a[1:], a)] == list(gf_Ds_sum(s, 300).coeffs)


def test_gf_midrange_against_sequences():
    for s in range(5):
        t = recurrence(s)
        order = 512
        ds = gf_Ds_sum(s, order)
        aa = gf_A_from_D(s, order)
        pp = gf_Ps(s, order)
        for n in range(1, order + 1):
            assert ds.coefficient(n) == sq.d(s, n)
            assert aa.coefficient(n) == t.a(n)
            assert pp.coefficient(n) == sq.p(s, n)
        if s >= 1:
            assert gf_As(s, order) == aa


@pytest.mark.parametrize("build", [
    lambda order: TruncatedSeries([1], order),
    gf_ruler,
    lambda order: gf_Dn(2, order),
    gf_D0,
    lambda order: gf_Ds_sum(1, order),
    lambda order: gf_Ds_nested(1, order),
    lambda order: gf_As(1, order),
    lambda order: gf_A_from_D(1, order),
    lambda order: gf_Ps(1, order),
], ids=["TruncatedSeries", "gf_ruler", "gf_Dn", "gf_D0",
        "gf_Ds_sum", "gf_Ds_nested", "gf_As", "gf_A_from_D", "gf_Ps"])
def test_order_past_the_output_limit_is_refused(build):
    # refused before the order + 1 coefficients are allocated
    named = rf"series order <= {limits.OUTPUT} \(limits.OUTPUT\)"
    for order in (limits.OUTPUT + 1, 10**18):
        with pytest.raises(ValueError, match=named):
            build(order)


# Every order 0..300, and 2**k - 1, 2**k, 2**k + 1 for k = 9..16, where the
# depth of each product steps; shifts past every small order and far past
# the top one, where every shift must stop at the order.
ORDERS = [*range(301), *((1 << k) + d for k in range(9, 17) for d in (-1, 0, 1))]
SHIFTS = [*range(10), 50, 10**18]
PACKED = ["gf_Ds_sum", "gf_Ds_nested", "gf_As", "gf_A_from_D", "gf_Ps"]


def _agrees_with_the_list_builder(build, reference):
    """build(order) against reference(top) cut at the order, at every order.
    The list builders are exact, so a series mod z**(order+1) is the cut of
    the one at the top order, and one reference serves every order."""
    want = reference(ORDERS[-1]).coeffs
    bad = [order for order in ORDERS
           if (got := build(order)).order != order or got.coeffs != want[: order + 1]]
    assert not bad, bad


@pytest.mark.parametrize("s", SHIFTS, ids=str)
def test_packed_builders_match_the_list_builders(s):
    for name in (name for name in PACKED if s or name != "gf_As"):
        _agrees_with_the_list_builder(functools.partial(getattr(series, name), s),
                                      functools.partial(getattr(lists, name), s))


def test_packed_ruler_and_word_series_match_the_list_builders():
    _agrees_with_the_list_builder(gf_ruler, lists.gf_ruler)
    _agrees_with_the_list_builder(gf_D0, lists.gf_D0)
    for n in (*range(23), 10**18):
        _agrees_with_the_list_builder(functools.partial(gf_Dn, n),
                                      functools.partial(lists.gf_Dn, n))


def _outcome(build, *args):
    try:
        return build(*args)
    except ValueError as error:
        return str(error)


@pytest.mark.parametrize("name", ["gf_ruler", "gf_D0", "gf_Dn", *PACKED])
def test_edge_calls_return_or_raise_as_the_list_builders(name):
    # the shift (or n) is checked first, then a negative order, then the
    # limit: the limit before any mask or list is built
    build, reference = getattr(series, name), getattr(lists, name)
    arity = build.__code__.co_argcount
    firsts = [-1, 0, 1, 10**18] if arity == 2 else [None]
    for first in firsts:
        for order in (-1, 0, 1, 2, limits.OUTPUT + 1, 10**18):
            args = (order,) if first is None else (first, order)
            assert _outcome(build, *args) == _outcome(reference, *args), args
