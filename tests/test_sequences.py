import random
import sys
import time

import pytest

from metafib import sequences as sq
from metafib import trees

from _rows import ROWS_A, ROWS_D, ROWS_P, RULER_PREFIX


@pytest.mark.parametrize("s", [0, 1, 2])
def test_first_twenty_values(s):
    assert [sq.a(s, n) for n in range(1, 21)] == ROWS_A[s]
    assert [sq.d(s, n) for n in range(1, 21)] == ROWS_D[s]
    assert [sq.p(s, n) for n in range(1, 21)] == ROWS_P[s]


def test_a_base_cases():
    for s in range(8):
        for n in range(s + 2):
            assert sq.a(s, n) == 1
        assert sq.a(s, s + 2) == 2


def test_a_examples():
    assert sq.a(0, 5) == 4
    assert sq.a(2, 8) == 3
    assert sq.a(7, 3) == 1


def test_d_examples():
    assert sq.d(1, 3) == 1
    assert sq.d(2, 13) == 0
    assert sq.d(0, 1) == 1


def test_p_examples():
    assert sq.p(2, 4) == 9
    assert sq.p(0, 17) == 32
    assert sq.p(5, 1) == 1


def test_ruler_values():
    assert [sq.ruler(n) for n in range(1, 16)] == RULER_PREFIX
    assert sq.ruler(1) == 1
    assert sq.ruler(8) == 4
    # 12 = 4 * 3, largest dividing power of two is 4
    assert sq.ruler(12) == 3
    assert sq.ruler(96) == 6


def test_ruler_against_regenerated_sequence():
    # R_1 = (1), R_{n+1} = R_n, n+1, R_n
    block = [1]
    for k in range(2, 13):
        block = block + [k] + block
    assert [sq.ruler(n) for n in range(1, len(block) + 1)] == block


def test_power_of_two_includes_one():
    assert sq.is_power_of_two(1)
    assert sq.is_power_of_two(2)
    assert not sq.is_power_of_two(0)
    assert not sq.is_power_of_two(6)
    # the p differences require the bonus at n = 1: p(2,2) - p(2,1) = 3
    assert sq.p(2, 2) - sq.p(2, 1) == sq.ruler(1) + 2


def test_a0_fast_examples():
    assert sq.a0_fast(7) == 4
    assert sq.a0_fast(0) == 1
    assert sq.a0_fast(20) == 12


def test_as_via_a0_examples():
    assert sq.as_via_a0(2, 8) == 3 == sq.a0_fast(4)
    assert sq.as_via_a0(2, 5) == 2
    assert sq.as_via_a0(3, 10) == 3 == sq.a(3, 10)


def test_a1_fast_examples():
    assert sq.a1_fast(6) == 3
    assert sq.a1_fast(1) == 1
    assert sq.a1_fast(16) == 8


def test_as_descent_examples():
    assert sq.as_descent(2, 9) == 4
    assert sq.as_descent(2, 7) == 2
    assert sq.as_descent(0, 19) == 11


def test_step_invariant_and_monotone():
    for s in range(5):
        vals = sq.table(s).prefix(4000)
        assert all(vals[n + 1] - vals[n] in (0, 1) for n in range(1, 4000))


def test_evaluators_agree_midrange():
    for s in range(5):
        vals = sq.table(s).prefix(4000)
        for n in range(1, 4001):
            assert sq.as_via_a0(s, n) == vals[n]
            assert sq.as_descent(s, n) == vals[n]
    vals0 = sq.table(0).prefix(4000)
    assert all(sq.a0_fast(n) == vals0[n] for n in range(4001))
    vals1 = sq.table(1).prefix(4000)
    assert all(sq.a1_fast(n) == vals1[n] for n in range(1, 4001))


def test_p_is_first_hit():
    for s in range(5):
        top = sq.a(s, 3000)
        for n in range(2, top + 1):
            pos = sq.p(s, n)
            assert sq.a(s, pos) == n
            assert sq.a(s, pos - 1) == n - 1


def test_p_difference_rule():
    for s in range(5):
        for n in range(1, 200):
            bonus = s if sq.is_power_of_two(n) else 0
            assert sq.p(s, n + 1) - sq.p(s, n) == sq.ruler(n) + bonus


def test_p_is_first_hit_at_huge_n():
    # p is a closed form: check it against as_via_a0 and the tree oracle
    started = time.monotonic()
    rng = random.Random(20)
    cases = [(s, n) for s in range(7) for n in (2, 3, 2**60, 2**60 + 1, 10**18)]
    cases += [(rng.randrange(7), rng.randrange(2, 10**18 + 1)) for _ in range(3000)]
    for s, n in cases:
        q = sq.p(s, n)
        assert sq.as_via_a0(s, q) == n, (s, n)
        assert sq.as_via_a0(s, q - 1) == n - 1, (s, n)
        assert trees.locate(s, q).is_leaf, (s, n)
    assert time.monotonic() - started < 1.0


def test_p_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sq.p(-1, 5)
    with pytest.raises(ValueError):
        sq.p(2, 0)


def test_a_counts_ones_of_d():
    for s in range(4):
        running = 0
        for n in range(1, 1500):
            running += sq.d(s, n)
            assert sq.a(s, n) == running


def test_doubling_identity_for_positive_k():
    # at k = 0 the identity would need a(0,0) = 0; the adopted base is 1
    for h in range(1, 15):
        block = 1 << h
        for k in range(1, block):
            assert sq.a(0, block - 1 + k) == block // 2 + sq.a(0, k)


def test_table_is_append_only():
    t = sq.SequenceTable(2)
    first = t.prefix(50)
    t.extend_to(500)
    assert t.prefix(50) == first


def test_shift_must_be_nonnegative():
    with pytest.raises(ValueError):
        sq.SequenceTable(-1)


def test_shared_table_is_thread_safe():
    import threading

    shared = sq.SequenceTable(3)
    spec = sq.GenericMetaFibSpec(0, 1, (1, 1))
    failures = []

    def worker(seed):
        for n in range(seed, 6000, 7):
            if shared.a(n) != sq.a(3, n):
                failures.append(n)

    def generic_worker(seed):
        for n in range(seed, 6000, 7):
            if sq.generic_metafib(spec, n) != sq.a(0, n):
                failures.append(("generic", n))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(1, 8)]
    threads += [threading.Thread(target=generic_worker, args=(k,)) for k in range(7)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    assert shared.prefix(6000) == sq.table(3).prefix(6000)


def test_generic_matches_shift_family():
    # against the tree oracle: a(s, 0) is the base value 1, then leaf counts
    for s in range(4):
        spec = sq.shift_family_spec(s)
        scan = trees.leaf_count_scan(s, 399)
        assert sq.generic_metafib(spec, 0) == 1
        for n in range(1, 400):
            assert sq.generic_metafib(spec, n) == scan[n]


def test_generic_death():
    spec = sq.GenericMetaFibSpec(1, 2, (1, 1))
    # index 2 asks for a(0 - a(0)) = a(-1): outside the defined range
    assert sq.generic_metafib(spec, 0) == 1
    assert sq.generic_metafib(spec, 1) == 1
    assert sq.generic_metafib(spec, 2) is sq.DEAD
    assert sq.generic_metafib(spec, 7) is sq.DEAD


def test_generic_most_well_behaved_instance():
    spec = sq.GenericMetaFibSpec(0, 1, (1, 1))
    for n in range(0, 200):
        assert sq.generic_metafib(spec, n) == sq.a(0, n)


def test_generic_rejects_bad_seeds():
    with pytest.raises(ValueError):
        sq.GenericMetaFibSpec(1, 2, ())
    with pytest.raises(ValueError):
        sq.GenericMetaFibSpec(1, 2, (1, 0))


def test_single_seed_dies_immediately():
    spec = sq.GenericMetaFibSpec(0, 1, (1,))
    assert sq.generic_metafib(spec, 1) is sq.DEAD
