"""Acceptance suite: one test per criterion, at the stated range and budget.

Each test records a line that the terminal summary prints as
"PASS  criterion-N ... (elapsed)"; a failed test simply never records one
and shows up as a regular pytest failure.
"""

import os
import time

from metafib import codes, compositions, oeis, series, trees, words
from metafib import sequences as sq

from _rows import ROWS_A, ROWS_D, ROWS_P
from conftest import record_criterion

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_criterion_1_table_reproduction():
    started = time.monotonic()
    for s in (0, 1, 2):
        assert [sq.a(s, n) for n in range(1, 21)] == ROWS_A[s]
        assert [sq.d(s, n) for n in range(1, 21)] == ROWS_D[s]
        assert [sq.p(s, n) for n in range(1, 21)] == ROWS_P[s]
    assert time.monotonic() - started < 1.0
    record_criterion("criterion-1 reference table rows, shifts 0..2", started)


def test_criterion_2_recurrence_vs_tree_oracle():
    started = time.monotonic()
    top = 20000
    for s in range(7):
        vals = sq.table(s).prefix(top)
        running = 0
        for n in range(1, top + 1):
            running += trees.is_leaf_oracle(s, n)
            assert running == vals[n], (s, n)
    # tie the one-shot prefix counter to the same numbers
    assert trees.leaves_in_prefix(3, 1234) == sq.a(3, 1234)
    assert time.monotonic() - started < 10.0
    record_criterion("criterion-2 recurrence equals tree oracle", started)


def test_criterion_3_evaluator_agreement():
    started = time.monotonic()
    top = 100000
    for s in range(7):
        vals = sq.table(s).prefix(top)
        via = sq.as_via_a0
        descent = sq.as_descent
        for n in range(1, top + 1):
            v = vals[n]
            assert via(s, n) == v, (s, n)
            assert descent(s, n) == v, (s, n)
    vals0 = sq.table(0).prefix(top)
    fast0 = sq.a0_fast
    for n in range(top + 1):
        assert fast0(n) == vals0[n], n
    vals1 = sq.table(1).prefix(top)
    fast1 = sq.a1_fast
    for n in range(1, top + 1):
        assert fast1(n) == vals1[n], n
    assert time.monotonic() - started < 10.0
    record_criterion("criterion-3 all evaluators agree", started)


def test_criterion_4_generating_functions():
    started = time.monotonic()
    order = 4096
    for s in range(5):
        t = sq.table(s)
        t.extend_to(order)
        ds = series.gf_Ds_sum(s, order)
        aa = series.gf_A_from_D(s, order)
        pp = series.gf_Ps(s, order)
        for n in range(1, order + 1):
            assert ds.coefficient(n) == t.d(n), (s, n)
            assert aa.coefficient(n) == t.a(n), (s, n)
            assert pp.coefficient(n) == sq.p(s, n), (s, n)
        if s >= 1:
            assert series.gf_As(s, order) == aa, s
        assert series.gf_Ds_nested(s, 2048, 12) == series.gf_Ds_sum(s, 2048), s
    ruler_gf = series.gf_ruler(4096)
    for n in range(1, 4097):
        assert ruler_gf.coefficient(n) == sq.ruler(n), n
    assert time.monotonic() - started < 20.0
    record_criterion("criterion-4 generating functions", started)


def test_criterion_5_words():
    started = time.monotonic()
    bits = 1 << 14
    for s in range(5):
        t = sq.table(s)
        stream = words.dword_prefix(s, bits)
        for n in range(1, bits + 1):
            assert int(stream[n - 1]) == t.d(n), (s, n)
        rebuilt = words.ruler_factorization(s, t.a(bits))
        assert rebuilt[:bits] == stream, s
    long_bits = 1 << 16
    assert words.morphism_fixed_point(long_bits) == words.dword_prefix(0, long_bits)
    for n in range(17):
        assert words.word_E(n)[::-1] == words.word_D(n), n
    # ones count, in both indexings: 2**(h-1) ones within the first
    # 2**h - 1 stream bits, i.e. 2**h ones in word_E(h) of length 2**(h+1)-1
    for h in range(1, 17):
        assert words.word_E(h - 1).count("1") == 1 << (h - 1), h
        assert words.word_E(h).count("1") == 1 << h, h
    assert time.monotonic() - started < 10.0
    record_criterion("criterion-5 words and factorizations", started)


def test_criterion_6_compositions():
    started = time.monotonic()
    top = 2000
    for s in range(1, 5):
        counted = compositions.counts_up_to(s, top)
        vals = sq.table(s).prefix(top)
        assert counted[1:] == vals[1:], s
    for s in range(1, 4):
        for n in range(1, 31):
            found = compositions.enumerate_compositions(s, n)
            assert len(found) == compositions.count_compositions(s, n), (s, n)
    assert compositions.enumerate_compositions(2, 8) == [
        [1, 2, 5],
        [1, 3, 2, 2],
        [2, 2, 2, 2],
    ]
    assert time.monotonic() - started < 10.0
    record_criterion("criterion-6 composition counts and listings", started)


def test_criterion_7_codes():
    started = time.monotonic()
    for n in range(2, 15):
        for h in range(1, n):
            assert codes.M(n, h) == codes.M_oracle(n, h), (n, h)
    for n in range(2, 13):
        for h in range((n - 1).bit_length(), n):
            greedy = codes.level_counts(codes.greedy_tree(n, h))
            for other in codes.enumerate_codes(n, h):
                tau = codes.level_counts(other)
                for j in range(h):
                    assert sum(greedy[j:]) >= sum(tau[j:]), (n, h, j)
    for n in range(2, 4097):
        assert codes.a_max(n) == sq.a(1, n - 1), n
    for n in range(1, 4097):
        assert codes.b_seq(n) == sq.a(0, n), n
    for n in range(1, 201):
        h = 1
        while n + h > 1 << h:
            h += 1
        base = codes.M(n + h, h)
        for k in range(h, h + 5):
            assert codes.M(n + k, k) == base, (n, k)
    for n in range(2, 14):
        for h in range((n - 1).bit_length(), n):
            codes.validate_code(codes.greedy_tree(n, h))
    for n in range(2, 1025):
        codes.validate_code(codes.greedy_tree_unbounded(n))
    assert time.monotonic() - started < 60.0
    record_criterion("criterion-7 compact-code optimization", started)


def test_criterion_8_oeis_fixtures():
    started = time.monotonic()
    for seq_id, role in sorted(oeis.ROLE_MAP.items()):
        records = oeis.read_bfile(os.path.join(DATA, f"b{seq_id}.txt"))
        assert len(records) >= 1000, seq_id
        compared, mismatch = oeis.compare_records(records, role)
        assert mismatch is None, (seq_id, mismatch)
        assert compared >= 1000, seq_id
    plus_one = dict(oeis.read_bfile(os.path.join(DATA, "bA101925.txt")))
    base = dict(oeis.read_bfile(os.path.join(DATA, "bA005187.txt")))
    overlap = sorted(set(plus_one) & set(base))
    assert len(overlap) >= 1000
    for n in overlap:
        assert plus_one[n] == base[n] + 1, n
    assert time.monotonic() - started < 5.0
    record_criterion("criterion-8 OEIS fixtures", started)
