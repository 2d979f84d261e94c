import time
from operator import add

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


def list_counts(s, limit):
    """counts_up_to as it was before its packed form, a list dynamic program
    kept verbatim as a reference: boxed-int layers mapped with add, and the
    tail folded by a strided running sum over every target."""
    total = [0] * (limit + 1)
    layer = [0] * (limit + 1)
    for x in range(1, min(s, limit) + 1):
        layer[x] = 1
    i = 1
    while (big := (1 << i) + s - 1) <= limit:
        total = list(map(add, total, layer))
        nxt = [0] * s + layer[: limit + 1 - s]
        nxt[big:] = map(add, nxt[big:], layer[: limit + 1 - big])
        layer = nxt
        i += 1
    for r in range(s, limit + 1):
        layer[r] += layer[r - s]
    return list(map(add, total, layer))


def test_packed_counts_equal_the_list_dynamic_program():
    # every limit up to 139, and the limits where the last big part
    # 2**k + s - 1 fits or just fails; shifts past the limit, where only the
    # first position counts; two large limits
    calls = [(s, limit) for s in range(1, 70) for limit in (*range(140), 1000, 4097)]
    calls += [(s, (1 << k) + s + e) for s in (1, 2, 3, 7) for k in range(2, 17)
              for e in (-2, -1, 0)]
    calls += [(s, limit) for s in (10**18, 1 << 22, (1 << 20) + 1) for limit in range(40)]
    calls += [(s, 3000) for s in (100, 5000, 1 << 20)]
    calls += [(3, 10**5), (1, 1 << 17)]
    for s, limit in calls:
        assert counts_up_to(s, limit) == list_counts(s, limit), (s, limit)


def test_counts_match_product_generating_function():
    # every order up to 70, and the orders around 2**n + s - 1, the last big
    # part gf_As multiplies in before it closes its tail
    for s in (*range(1, 10), 10**18):
        edges = {(1 << n) + s + e for n in range(1, 13) for e in (-2, -1, 0)}
        for order in sorted({*range(71), 512, *(o for o in edges if o <= 4096)}):
            assert series.gf_As(s, order).coeffs == tuple(counts_up_to(s, order)), (s, order)


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
