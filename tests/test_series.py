import random

import pytest

from metafib import limits
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

from _rows import ROWS_A, ROWS_D, ROWS_P, recurrence


def coeffs_1_to(gf, top):
    return [gf.coefficient(n) for n in range(1, top + 1)]


def test_plumbing_examples():
    assert TruncatedSeries.monomial(3, 5).coeffs == (0, 0, 0, 1, 0, 0)
    z = TruncatedSeries.monomial(1, 3)
    assert (z - z).coeffs == (0, 0, 0, 0)


def test_shift_and_scale():
    s = TruncatedSeries([1, 2, 3], 2)
    assert s.shift_by_power(1).coeffs == (0, 1, 2)
    with pytest.raises(ValueError):
        s.coefficient(3)


def test_order_is_min_of_inputs():
    a = TruncatedSeries([1, 1, 1], 2)
    b = TruncatedSeries([1, 1, 1, 1, 1], 4)
    assert (a + b).order == 2
    assert (a - b).order == 2


def _slice_zip(op, x, y):
    """The reference definition: truncate both to the lower order, then zip."""
    n = min(x.order, y.order)
    return [op(u, v) for u, v in zip(x.coeffs[: n + 1], y.coeffs[: n + 1])]


def _padded_shift(x, k):
    n = x.order
    return ([0] * k + list(x.coeffs))[: n + 1]


def test_arithmetic_keeps_exactly_order_plus_one_coefficients():
    rng = random.Random(20261018)
    for _ in range(200):
        x = TruncatedSeries([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 14))],
                            rng.randrange(0, 12))
        y = TruncatedSeries([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 14))],
                            rng.randrange(0, 12))
        for got, want in ((x + y, _slice_zip(int.__add__, x, y)),
                          (x - y, _slice_zip(int.__sub__, x, y))):
            assert got.order == min(x.order, y.order)
            assert list(got.coeffs) == want
            assert len(got._c) == got.order + 1
        for k in (0, 1, x.order, x.order + 1, x.order + 7):
            shifted = x.shift_by_power(k)
            assert shifted.order == x.order
            assert list(shifted.coeffs) == _padded_shift(x, k)
            assert len(shifted._c) == x.order + 1
        for derived in (x - TruncatedSeries.zero(x.order + 3), x.prefix_sums()):
            assert len(derived._c) == derived.order + 1


def test_results_do_not_share_coefficients_with_operands():
    x = TruncatedSeries([1, 2, 3], 2)
    for derived in (x.shift_by_power(0), x + TruncatedSeries.zero(5),
                    x - TruncatedSeries.zero(2)):
        derived._c[0] = 99
        assert x.coeffs == (1, 2, 3)


def test_constructor_pads_and_truncates():
    assert TruncatedSeries([1, 2], 4).coeffs == (1, 2, 0, 0, 0)
    assert TruncatedSeries((1, 2, 3, 4), 1).coeffs == (1, 2)
    source = [5, 6, 7]
    TruncatedSeries(source, 1)
    assert source == [5, 6, 7]


def test_prefix_sums_inverts_one_minus_z():
    s = TruncatedSeries([0, 1, 0, 2, 5], 4)
    summed = s.prefix_sums()
    back = summed - summed.shift_by_power(1)  # times 1 - z
    assert back == s


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


def test_gf_D0_values():
    gf = gf_D0(64)
    assert coeffs_1_to(gf, 8) == [1, 1, 0, 1, 1, 0, 0, 1]
    assert gf.coefficient(3) == 0
    assert gf.coefficient(32) == 1
    assert gf == gf_Ds_sum(0, 64)


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


def test_quotient_identity():
    # (1 - z) * (a series) recovers the d series exactly
    for s in range(5):
        a_gf = gf_A_from_D(s, 300)
        d_gf = gf_Ds_sum(s, 300)
        assert a_gf - a_gf.shift_by_power(1) == d_gf


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
    TruncatedSeries.zero,
    TruncatedSeries.one,
    lambda order: TruncatedSeries.monomial(1, order),
    gf_ruler,
    lambda order: gf_Dn(2, order),
    gf_D0,
    lambda order: gf_Ds_sum(1, order),
    lambda order: gf_Ds_nested(1, order),
    lambda order: gf_As(1, order),
    lambda order: gf_A_from_D(1, order),
    lambda order: gf_Ps(1, order),
], ids=["TruncatedSeries", "zero", "one", "monomial", "gf_ruler", "gf_Dn", "gf_D0",
        "gf_Ds_sum", "gf_Ds_nested", "gf_As", "gf_A_from_D", "gf_Ps"])
def test_order_past_the_output_limit_is_refused(build):
    # refused before the order + 1 coefficients are allocated
    named = rf"series order <= {limits.OUTPUT} \(limits.OUTPUT\)"
    for order in (limits.OUTPUT + 1, 10**18):
        with pytest.raises(ValueError, match=named):
            build(order)
