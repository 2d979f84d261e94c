import time

import pytest

from metafib import sequences as sq
from metafib import series
from metafib.compositions import (
    count_compositions,
    counts_up_to,
    enumerate_compositions,
    part_choices,
)

from _rows import recurrence


def test_part_choices():
    assert part_choices(2, 0) == (1, 2)
    assert part_choices(2, 1) == (2, 3)
    assert part_choices(2, 2) == (2, 5)
    assert part_choices(1, 0) == (1,)
    assert part_choices(1, 3) == (1, 8)
    with pytest.raises(ValueError):
        part_choices(0, 0)


def test_part_choices_refuses_huge_positions_by_name():
    from metafib.limits import OUTPUT

    assert part_choices(1, OUTPUT)[1] == 1 << OUTPUT
    for i in (OUTPUT + 1, 10**18):  # 2**i is never built
        with pytest.raises(ValueError, match=rf"<= {OUTPUT} \(limits.OUTPUT\)"):
            part_choices(1, i)


def test_counts_are_guarded_before_allocating():
    from metafib.limits import COUNT

    assert len(counts_up_to(3, 5000)) == 5001
    named = rf"<= {COUNT} \(limits.COUNT\)"
    for limit in (COUNT + 1, 10**18):  # 10**18 slots could not be allocated
        with pytest.raises(ValueError, match=named):
            counts_up_to(2, limit)
        with pytest.raises(ValueError, match=named):
            count_compositions(2, limit)


def test_count_examples():
    assert count_compositions(2, 8) == 3
    assert count_compositions(1, 1) == 1
    assert count_compositions(3, 10) == 3 == sq.a(3, 10)


def test_enumerate_examples():
    assert enumerate_compositions(2, 8) == [
        [1, 2, 5],
        [1, 3, 2, 2],
        [2, 2, 2, 2],
    ]
    assert enumerate_compositions(1, 2) == [[1, 1]]
    assert enumerate_compositions(2, 1) == [[1]]


def test_enumerate_is_lexicographic_and_valid():
    for s in (1, 2, 3):
        for n in range(1, 25):
            found = enumerate_compositions(s, n)
            assert found == sorted(found)
            assert len(found) == len(set(map(tuple, found)))
            for parts in found:
                assert sum(parts) == n
                for i, x in enumerate(parts):
                    assert x in part_choices(s, i)
            assert len(found) == count_compositions(s, n)


def test_counts_match_recurrence():
    for s in range(1, 5):
        counted = counts_up_to(s, 400)
        vals = recurrence(s).values(0, 400)
        assert counted[1:] == vals[1:]


def test_counts_where_the_layers_give_way_to_the_fold():
    # the layered DP stops once the big part 2**i + s - 1 exceeds the limit
    for s in range(1, 7):
        limits = set(range(s + 2))
        for i in range(1, 12):
            big = (1 << i) + s - 1
            limits |= {big - 1, big, big + 1}
        for limit in sorted(limits):
            counted = counts_up_to(s, limit)
            assert len(counted) == limit + 1 and counted[0] == 0
            assert counted[1:] == recurrence(s).values(0, limit)[1:]
    start = time.perf_counter()
    counted = counts_up_to(1, 20000)
    assert time.perf_counter() - start < 2.0
    assert counted[1:] == recurrence(1).values(0, 20000)[1:]


def test_counts_match_product_generating_function():
    for s in range(1, 5):
        gf = series.gf_As(s, 512)
        counted = counts_up_to(s, 512)
        for n in range(1, 513):
            assert counted[n] == gf.coefficient(n)


def test_guards():
    with pytest.raises(ValueError):
        count_compositions(0, 5)
    with pytest.raises(ValueError):
        enumerate_compositions(0, 5)
    with pytest.raises(ValueError, match=r"<= 64 \(limits.ENUM_COMPOSITIONS\)"):
        enumerate_compositions(1, 65)
    # the first position would list s parts; later positions take two
    assert part_choices(10**18, 3) == (10**18, 10**18 + 7)
    for call in (lambda: part_choices(10**18, 0), lambda: enumerate_compositions(10**18, 5)):
        with pytest.raises(ValueError, match=r"<= 4194304 \(limits.OUTPUT\)"):
            call()
    with pytest.raises(ValueError):
        count_compositions(1, 0)
