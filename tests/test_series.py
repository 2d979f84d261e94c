import random

import pytest

from metafib import sequences as sq
from metafib import words
from metafib.series import (
    TruncatedSeries,
    geom_inverse,
    gf_A_from_D,
    gf_As,
    gf_D0,
    gf_Dn,
    gf_Ds_nested,
    gf_Ds_sum,
    gf_Ps,
    gf_ruler,
)

from _rows import ROWS_A, ROWS_D, ROWS_P


def coeffs_1_to(gf, top):
    return [gf.coefficient(n) for n in range(1, top + 1)]


def test_plumbing_examples():
    one_plus_z = TruncatedSeries([1, 1], 4)
    other = TruncatedSeries([1, 0, 0, 1], 4)
    assert (one_plus_z * other).coeffs == (1, 1, 0, 1, 1)
    assert TruncatedSeries.monomial(3, 5).coeffs == (0, 0, 0, 1, 0, 0)
    z = TruncatedSeries.monomial(1, 3)
    assert (z - z).coeffs == (0, 0, 0, 0)


def test_shift_and_scale():
    s = TruncatedSeries([1, 2, 3], 2)
    assert s.shift_by_power(1).coeffs == (0, 1, 2)
    assert s.scale(-2).coeffs == (-2, -4, -6)
    with pytest.raises(ValueError):
        s.coefficient(3)


def test_order_is_min_of_inputs():
    a = TruncatedSeries([1, 1, 1], 2)
    b = TruncatedSeries([1, 1, 1, 1, 1], 4)
    assert (a + b).order == 2
    assert (a * b).order == 2


def test_geom_inverse():
    assert geom_inverse(1, 3).coeffs == (1, 1, 1, 1)
    assert geom_inverse(4, 9).coeffs == (1, 0, 0, 0, 1, 0, 0, 0, 1, 0)
    inverse_check = geom_inverse(2, 10) * TruncatedSeries([1, 0, -1], 10)
    assert inverse_check == TruncatedSeries.one(10)


def test_mul_associative_commutative():
    rng = random.Random(20260808)
    for _ in range(25):
        order = rng.randrange(1, 12)
        def rand_series():
            return TruncatedSeries(
                [rng.randrange(-4, 5) for _ in range(order + 1)], order
            )
        a, b, c = rand_series(), rand_series(), rand_series()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_prefix_sums_inverts_one_minus_z():
    s = TruncatedSeries([0, 1, 0, 2, 5], 4)
    summed = s.prefix_sums()
    back = summed * TruncatedSeries([1, -1], 4)
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
    assert coeffs_1_to(gf_Ds_nested(2, 12, 5), 12) == ROWS_D[2][:12]
    assert gf_Ds_nested(0, 20, 6) == gf_Ds_sum(0, 20)
    assert gf_Ds_nested(1, 1, 2).coeffs == (0, 1)
    for s in range(5):
        assert gf_Ds_nested(s, 512, 10) == gf_Ds_sum(s, 512)


def test_gf_Ds_nested_depth_guard():
    with pytest.raises(ValueError):
        gf_Ds_nested(0, 512, 9)


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
        assert a_gf * TruncatedSeries([1, -1], 300) == d_gf


def test_gf_midrange_against_sequences():
    for s in range(5):
        t = sq.table(s)
        order = 512
        ds = gf_Ds_sum(s, order)
        aa = gf_A_from_D(s, order)
        pp = gf_Ps(s, order)
        for n in range(1, order + 1):
            assert ds.coefficient(n) == t.d(n)
            assert aa.coefficient(n) == t.a(n)
            assert pp.coefficient(n) == sq.p(s, n)
        if s >= 1:
            assert gf_As(s, order) == aa
