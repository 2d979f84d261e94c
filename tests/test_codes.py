import random
import time

import pytest

from metafib import sequences as sq
from metafib import trees
from metafib.codes import (
    M,
    _M_greedy,
    M_oracle,
    a_max,
    b_seq,
    counts_to_code,
    enumerate_codes,
    greedy_step_counts,
    greedy_tree,
    greedy_tree_unbounded,
    level_counts,
    max_ones_partition_brute,
    shrink,
    validate_code,
)


def test_validate_code():
    assert validate_code([3, 3, 3, 3, 1]) == (3, 3, 3, 3, 1)
    with pytest.raises(ValueError):
        validate_code([3, 3, 1])  # Kraft sum below 1
    with pytest.raises(ValueError):
        validate_code([2, 2, 2, 2, 2])  # above 1
    with pytest.raises(ValueError):
        validate_code([1, 2])  # not non-increasing
    with pytest.raises(ValueError):
        validate_code([1])


def test_validate_code_names_the_first_fault():
    # the checks run in this order, so each code fails at the first it breaks
    cases = [
        ([0], "at least 2 leaves"),
        ([0, 2, 1], "levels must be positive"),  # also increasing, Kraft off
        ([1, 2], "non-increasing"),  # also Kraft off
        ([3, 3, 1], "Kraft sum"),
        ([2, 2, 2, 2, 2], "Kraft sum"),
    ]
    for levels, message in cases:
        with pytest.raises(ValueError, match=message):
            validate_code(levels)
    code = greedy_tree_unbounded(1023)
    assert validate_code(iter(code)) == tuple(code)


def test_validate_code_refuses_a_code_taller_than_its_leaves_allow():
    # n leaves reach height n - 1 at most, so 2**h is never built for these
    for levels in ((10**18, 10**18), (3, 3, 3), (2**22, 1)):
        with pytest.raises(ValueError, match="Kraft sum"):
            validate_code(levels)
        with pytest.raises(ValueError, match="Kraft sum"):
            level_counts(levels)
    with pytest.raises(ValueError, match="Kraft sum"):
        shrink((10**18, 10**18, 10**18))
    assert validate_code((2, 2, 1)) == (2, 2, 1)  # h = n - 1 still passes


def test_level_counts_examples():
    assert level_counts((3, 3, 3, 3, 1)) == [1, 1, 2]
    assert level_counts((3, 3, 2, 2, 2)) == [1, 2, 1]
    assert level_counts((4, 4, 3, 2, 1)) == [1, 1, 1, 1]
    assert level_counts((1, 1)) == [1]


def test_counts_to_code_examples():
    assert counts_to_code([1, 2, 1]) == (3, 3, 2, 2, 2)
    assert counts_to_code([1]) == (1, 1)
    assert counts_to_code([1, 1, 2]) == (3, 3, 3, 3, 1)


def test_counts_roundtrip_small():
    def grow(tau, h):
        if sum(tau) + 1 > 14:
            return
        if len(tau) == h:
            assert level_counts(counts_to_code(tau)) == tau
            return
        for nxt in range(1, 2 * tau[-1] + 1):
            grow(tau + [nxt], h)

    for h in range(1, 9):
        grow([1], h)


def test_enumerate_codes_for_five_leaves():
    assert enumerate_codes(5) == [
        (3, 3, 2, 2, 2),
        (3, 3, 3, 3, 1),
        (4, 4, 3, 2, 1),
    ]
    assert enumerate_codes(2) == [(1, 1)]
    assert enumerate_codes(5, 3) == [(3, 3, 2, 2, 2), (3, 3, 3, 3, 1)]
    assert enumerate_codes(5, 2) == []


def test_enumerate_codes_guard():
    with pytest.raises(ValueError, match=r"<= 16 \(limits.ENUM_CODES\), asked for 17"):
        enumerate_codes(17)
    with pytest.raises(ValueError):
        enumerate_codes(1)


def test_enumeration_sizes_match_A002572():
    # compositions of 1 into powers of 1/2 (OEIS A002572), counted outside
    want = [1, 1, 2, 3, 5, 9, 16, 28, 50, 89, 159, 285, 510, 914, 1639]
    for n, size in zip(range(2, 17), want):
        assert len(enumerate_codes(n)) == size
        assert sum(len(enumerate_codes(n, h)) for h in range(1, n)) == size
    start = time.perf_counter()
    enumerate_codes(16)
    assert time.perf_counter() - start < 2.0


def test_every_enumerated_code_is_valid():
    # every list `codes enumerate` can print: valid codes, none twice
    for n in range(2, 17):
        found = enumerate_codes(n)
        assert len(set(found)) == len(found)
        for code in found:
            assert validate_code(code) == code
            assert len(code) == n


def test_enumeration_at_a_height_is_the_full_list_filtered():
    # a code's height is its first (largest) level; heights past n - 1 are empty
    for n in range(2, 17):
        found = enumerate_codes(n)
        for h in range(1, n + 2):
            assert enumerate_codes(n, h) == [code for code in found if code[0] == h]


def test_greedy_tree_examples():
    assert greedy_tree(4, 3) == (3, 3, 2, 1)
    assert greedy_tree(5, 3) == (3, 3, 3, 3, 1)
    assert greedy_tree(8, 3) == (3, 3, 3, 3, 3, 3, 3, 3)
    with pytest.raises(ValueError):
        greedy_tree(9, 3)
    with pytest.raises(ValueError):
        greedy_tree(3, 3)
    # more leaves than limits.OUTPUT are refused before 2**h is built
    for n, h in ((2**22 + 1, 23), (10**18, 10**17)):
        with pytest.raises(ValueError, match=r"<= 4194304 \(limits.OUTPUT\)"):
            greedy_tree(n, h)


def test_greedy_tree_appears_in_enumeration():
    for n in range(2, 13):
        for h in range(1, n):
            if h + 1 <= n <= 2**h:
                assert greedy_tree(n, h) in enumerate_codes(n, h)


def test_greedy_step_counts_examples():
    assert greedy_step_counts([1, 1, 2]) == [1, 2, 2]
    assert greedy_step_counts([1, 1]) == [1, 2]
    with pytest.raises(ValueError):
        greedy_step_counts([1, 2, 4])


def test_greedy_step_matches_code_step():
    # the step rule is the definition of greedy; the descent must replay it
    for h in range(1, 11):
        tau = [1] * h
        for n in range(h + 1, 2**h + 1):
            assert tau == level_counts(greedy_tree(n, h)), (n, h)
            if n < 2**h:
                tau = greedy_step_counts(tau)


def test_greedy_unbounded_examples():
    assert greedy_tree_unbounded(4) == (2, 2, 2, 2)
    assert greedy_tree_unbounded(5) == (3, 3, 3, 3, 1)
    assert greedy_tree_unbounded(6) == (3, 3, 3, 3, 2, 2)
    assert greedy_tree_unbounded(2) == (1, 1)


def test_greedy_unbounded_equals_min_height_greedy():
    for n in range(2, 300):
        h = (n - 1).bit_length()
        assert greedy_tree_unbounded(n) == greedy_tree(n, h)


def test_greedy_unbounded_random_access():
    assert greedy_tree_unbounded(100) == greedy_tree(100, 7)
    assert greedy_tree_unbounded(37) == greedy_tree(37, 6)  # going backwards


def test_shrink_examples():
    assert shrink((3, 3, 3, 3, 1)) == (3, 3, 2, 1)
    assert shrink((2, 2, 2, 2)) == (2, 2, 1)
    with pytest.raises(ValueError):
        shrink((1, 1))


def test_shrink_inverts_growth():
    for n in range(3, 1025):
        grown = greedy_tree_unbounded(n)
        small = shrink(grown)
        if sq.is_power_of_two(n - 1) and n - 1 > 2:
            # the height drops across these boundaries; regrow instead
            relist = list(small)
            relist_h = relist[0]
            idx = next(i for i, l in enumerate(relist) if l < relist_h)
            relist[idx : idx + 1] = [relist[idx] + 1] * 2
            assert tuple(relist) == grown
        else:
            assert small == greedy_tree_unbounded(n - 1)


def test_M_examples():
    assert M(5, 3) == 2
    assert M(8, 3) == 4
    assert M(5, 2) == 0
    assert M(2, 1) == 1
    assert M(4, 8) == 0  # n < h + 1


def test_M_oracle_examples():
    assert M_oracle(5, 3) == 2
    assert M_oracle(5, 4) == 1
    assert M_oracle(2, 1) == 1
    # bounded only by enumerate_codes, whose limit is 16 leaves
    assert M_oracle(16, 5) == M(16, 5)
    with pytest.raises(ValueError, match=r"<= 16 \(limits.ENUM_CODES\)"):
        M_oracle(17, 3)


def test_M_matches_oracle_everywhere_small():
    for n in range(2, 15):
        for h in range(1, n):
            assert M(n, h) == _M_greedy(n, h) == M_oracle(n, h), (n, h)


def test_served_M_matches_the_greedy_bottom_count_on_the_grid():
    # every feasible cell h + 1 <= n <= 2**h up to h = 12: 8112 cells
    cells = [(n, h) for h in range(1, 13) for n in range(h + 1, (1 << h) + 1)]
    assert len(cells) == 8112
    assert [M(n, h) for n, h in cells] == [_M_greedy(n, h) for n, h in cells]


def test_served_M_matches_the_tree_oracle_at_random_cells():
    # M(n, h) = a(0, n - h): the prefix leaf count of the shift-0 forest.
    # n is spread over its bit lengths, so the foot of each band is reached.
    rng = random.Random(18)
    for _ in range(20000):
        h = rng.randrange(1, 200)
        span = min(1 << h, 10**18) - h  # n runs over h + 1 .. h + span
        n = h + 1 + (rng.randrange(span) >> rng.randrange(span.bit_length()))
        assert M(n, h) == trees.leaves_in_prefix(0, n - h), (n, h)


def test_dominance_of_greedy_counts():
    for n in range(2, 13):
        for h in range((n - 1).bit_length(), n):
            greedy = level_counts(greedy_tree(n, h))
            for other in enumerate_codes(n, h):
                tau = level_counts(other)
                for j in range(h):
                    assert sum(greedy[j:]) >= sum(tau[j:])


def test_a_max_examples_and_bridge():
    assert a_max(5) == 2
    assert a_max(16) == 8
    assert a_max(2) == 1
    for n in range(2, 600):
        assert a_max(n) == sq.a(1, n - 1)


def test_b_seq_examples_and_bridge():
    assert b_seq(5) == 4
    assert b_seq(1) == 1
    assert b_seq(12) == 8
    for n in range(1, 600):
        assert b_seq(n) == sq.a(0, n)


def test_huge_n_is_bounded():
    started = time.monotonic()
    for top in (10**12, 10**18):
        for n in range(top - 3, top + 4):
            assert a_max(n) == trees.leaves_in_prefix(1, n - 1), n
            assert b_seq(n) == trees.leaves_in_prefix(0, n), n
    rng = random.Random(60)
    for _ in range(200):
        n = rng.randrange(61, 2**60 + 1)
        assert M(n, 60) == trees.leaves_in_prefix(0, n - 60), n
    assert M(2**60, 60) == 2**59
    assert time.monotonic() - started < 1.0


def test_M_answers_empty_cells_and_refuses_huge_heights_by_name():
    from metafib.limits import OUTPUT

    # empty cells answer 0 without building 2**h or h + 1 counts
    for route in (M, _M_greedy):
        assert route(5, 10**18) == 0  # n < h + 1
        assert route(10**18, 5) == 0  # n > 2**h
        assert route(2**60, 60) == 2**59 and route(2**60 + 1, 60) == 0
    # the served closed form builds nothing, so any feasible height answers;
    # the greedy route builds h + 1 counts and refuses past OUTPUT by name
    named = rf"<= {OUTPUT} \(limits.OUTPUT\)"
    for n, h in ((OUTPUT + 2, OUTPUT + 1), (10**18, 10**17)):
        assert M(n, h) == trees.leaves_in_prefix(0, n - h), (n, h)
        with pytest.raises(ValueError, match=named):
            _M_greedy(n, h)


def test_height_stability():
    for n in range(1, 80):
        h = 1
        while n + h > 2**h:
            h += 1
        base = _M_greedy(n + h, h)
        for k in range(h, h + 5):
            assert _M_greedy(n + k, k) == base


def test_partition_view():
    # the literal partition maximum counts leaves, exactly twice the pairs
    assert max_ones_partition_brute(5, 3) == 4
    assert max_ones_partition_brute(2, 1) == 2
    for h in range(1, 7):
        for n in range(2, min(2**h + 2, 15)):
            assert max_ones_partition_brute(n, h) == 2 * M(n, h)
    with pytest.raises(ValueError):
        max_ones_partition_brute(4, 7)
