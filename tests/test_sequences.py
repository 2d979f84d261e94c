import random
import sys
import time
from array import array

import pytest

from metafib import limits, trees
from metafib import sequences as sq

from _rows import ROWS_A, ROWS_D, ROWS_P, RULER_PREFIX
from _run import run_python


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
    for s, n in ((1, 0), (-1, 5), (-1, 10**18)):
        with pytest.raises(ValueError, match=r"d\(s, n\)"):
            sq.d(s, n)


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
        vals = sq.table(s).values(0, 4000)
        assert all(vals[n + 1] - vals[n] in (0, 1) for n in range(1, 4000))


def test_evaluators_agree_midrange():
    for s in range(5):
        vals = sq.table(s).values(0, 4000)
        for n in range(1, 4001):
            assert sq.as_via_a0(s, n) == vals[n]
            assert sq.as_descent(s, n) == vals[n]
    vals0 = sq.table(0).values(0, 4000)
    assert all(sq.a0_fast(n) == vals0[n] for n in range(4001))
    vals1 = sq.table(1).values(0, 4000)
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
    first = t.values(0, 50)
    t.extend_to(500)
    assert t.values(0, 50) == first


def test_shift_must_be_nonnegative():
    with pytest.raises(ValueError):
        sq.SequenceTable(-1)


def test_shared_table_is_thread_safe():
    import threading

    shared = sq.SequenceTable(3)
    shared0 = sq.SequenceTable(0)
    failures = []

    def worker(seed):
        for n in range(seed, 6000, 7):
            if shared.a(n) != sq.a(3, n):
                failures.append(n)

    def shift0_worker(seed):
        for n in range(seed, 6000, 7):
            if shared0.a(n) != sq.a0_fast(n):
                failures.append(("shift 0", n))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(1, 8)]
    threads += [threading.Thread(target=shift0_worker, args=(k,)) for k in range(7)]
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
    assert shared.values(0, 6000) == sq.table(3).values(0, 6000)
    assert shared0.values(0, 6000) == sq.table(0).values(0, 6000)


def test_shift_table_matches_the_tree_scan():
    # against the tree oracle: a(s, 0) is the base value 1, then leaf counts
    for s in range(7):
        scan = trees.leaf_count_scan(s, 399)
        assert sq.table(s).values(0, 399) == [1] + scan[1:]


def test_shift_table_seed_is_guarded(fresh_memos):
    # the shift-s table seeds s + 3 values, so a huge s is refused before seeding;
    # the public a answers the base values n <= s + 1 without a table
    named = rf"seed values s \+ 3 <= {limits.OUTPUT} \(limits.OUTPUT\)"
    for s in (limits.OUTPUT - 2, 10**18):
        for call in (sq.SequenceTable, sq.table):
            with pytest.raises(ValueError, match=named):
                call(s)
        assert sq.a(s, 5) == 1
    assert sq._tables == {}
    assert sq.d(10**18, 1) == 1 and sq.d(10**18, 2) == 0  # the leaf test needs no table


def test_values_and_d_values_match_per_value():
    for s in range(7):
        t = sq.SequenceTable(s)
        for lo, hi in [(0, 0), (0, 50), (1, 1), (1, 2), (2, 2), (31, 33), (100, 300),
                       (200, 199)]:
            assert t.values(lo, hi) == [sq.a(s, n) for n in range(lo, hi + 1)]
            if lo >= 1:
                assert t.d_values(lo, hi) == [trees.is_leaf_oracle(s, n)
                                              for n in range(lo, hi + 1)]
        assert t.d_values(1, 1) == [1]  # d(1) = 1, though a(1) - a(0) = 0


def test_values_reject_negative_start():
    t = sq.SequenceTable(1)
    with pytest.raises(ValueError):
        t.values(-1, 5)
    with pytest.raises(ValueError):
        t.d_values(0, 5)


def test_values_copy_is_safe_to_mutate():
    t = sq.SequenceTable(2)
    window = t.values(3, 9)
    window[0] = -1
    assert t.values(3, 9)[0] == sq.a(2, 3)


# The public a reads the shared tables through _MEMO_TOP and switches to the
# closed forms above it, while d reads no table at any n; an uncapped
# SequenceTable is the oracle either side.
TOP = sq._MEMO_TOP


@pytest.fixture
def fresh_memos(monkeypatch):
    monkeypatch.setattr(sq, "_tables", {})
    monkeypatch.setattr(sq, "_descent_memo", array("I", [0]) * (sq._DESCENT_MEMO_TOP + 1))


def _kept_starts(memo):
    """The shared descent memo decoded: start -> (shift, value)."""
    return {n: ((v >> 16) - 1, v & 0xFFFF) for n, v in enumerate(memo) if v}


def test_a_and_d_match_the_table_across_the_memo_bound():
    for s in range(7):
        oracle = sq.SequenceTable(s)
        window = range(TOP - 5000, TOP + 5001)
        assert [sq.a(s, n) for n in window] == oracle.values(TOP - 5000, TOP + 5000)
        assert [sq.d(s, n) for n in window] == oracle.d_values(TOP - 5000, TOP + 5000)


def test_a_and_d_at_huge_n_match_descent_and_tree():
    rng = random.Random(20261018)
    for _ in range(20000):
        s, n = rng.randrange(7), rng.randint(1, 10**18)
        assert sq.a(s, n) == sq.as_descent(s, n), (s, n)
        assert sq.d(s, n) == trees.is_leaf_oracle(s, n), (s, n)


def test_point_queries_keep_the_tables_bounded(fresh_memos):
    for s in range(7):
        sq.a(s, 10**6)
        sq.d(s, 10**6)
        assert len(sq.table(s)._a) <= TOP + 1


def test_a_answers_the_base_values_without_a_table(fresh_memos):
    assert sq.a(2**23, 5) == 1
    assert sq.a(10**18, 0) == 1
    for k in range(20):
        assert sq.a(4 * 10**6 + k, 1) == 1
    assert sq._tables == {}
    for s, n in ((-1, 0), (-1, 5), (-1, 10**18), (0, -1), (10**18, -1)):
        with pytest.raises(ValueError):
            sq.a(s, n)


def test_d_reads_no_table(fresh_memos):
    for s in range(7):
        for n in (1, 2, s + 2, 5000, TOP, TOP + 1, 10**18):
            sq.d(s, n)
    assert sq._tables == {}


def test_descent_memo_keeps_only_starts_up_to_the_bound(fresh_memos):
    top = sq._DESCENT_MEMO_TOP
    memo = sq._descent_memo
    for s in range(7):
        for n in (10**6, 10**12, 10**18, top + 1, top):
            assert sq.as_descent(s, n) == sq.as_via_a0(s, n)
    # the memo has one slot per start 0..top, so every kept start is <= top;
    # the starts above top wrote nothing, so the start top is the only slot,
    # held by the last shift that started there
    assert sq._descent_memo is memo and len(memo) == top + 1
    assert _kept_starts(memo) == {top: (6, sq.as_via_a0(6, top))}


def test_huge_descents_write_no_slot(fresh_memos):
    memo = sq._descent_memo
    for s in range(50):
        assert sq.as_descent(s, 10**18) == sq.as_via_a0(s, 10**18)
    assert sq._descent_memo is memo and not any(memo)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_descent_memo_stays_small_across_many_shifts():
    # one shared array, so a start <= 2^16 for each of 400 shifts costs no
    # more memory than one shift (one array per shift peaked at ~115 MB).
    # The child reports its own peak, VmHWM: its ru_maxrss would carry the
    # peak of this test process across fork and exec.
    code = ("from metafib import sequences as sq\n"
            "for s in range(400):\n    sq.as_descent(s, 2**16)\n"
            "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM:')))")
    result = run_python("-c", code, timeout=60)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.split()[1]) <= 20 << 10  # kB


def test_as_descent_sweep_rotating_shifts_matches_the_tables(fresh_memos):
    # the shift moves on at every start, so the nodes a descent reads hold
    # other shifts' starts and every read must check the tag
    top = sq._DESCENT_MEMO_TOP
    tables = [sq.SequenceTable(s).values(0, top) for s in range(7)]
    for n in range(1, top + 1):
        s = n % 7
        assert sq.as_descent(s, n) == tables[s][n], (s, n)


def test_shared_descent_memo_is_thread_safe(fresh_memos):
    # eight threads, two for each of four shifts, sweep the same starts and
    # so read and overwrite each other's slots
    import threading

    top = sq._DESCENT_MEMO_TOP
    failures = []

    def sweep(s):
        for n in range(top - 6000, top + 1):
            if sq.as_descent(s, n) != sq.as_via_a0(s, n):
                failures.append((s, n))

    threads = [threading.Thread(target=sweep, args=(k % 4,)) for k in range(8)]
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


def test_as_descent_at_the_edge_of_the_tag(fresh_memos):
    # the tag (s + 1) << 16 fills all 32 bits of a slot at s = 2^16 - 2 and
    # outgrows them above it; these shifts read a memo full of other shifts'
    # starts and must match the closed form
    top = sq._DESCENT_MEMO_TOP
    for s in range(7):
        for n in range(top - 300, top + 1):
            sq.as_descent(s, n)
    rng = random.Random(14)
    starts = [*range(top - 64, top + 65), *(rng.randint(top, 16 * top) for _ in range(300))]
    for s in (*range(top - 4, top + 2), 10**18):
        for n in starts:
            assert sq.as_descent(s, n) == sq.as_via_a0(s, n), (s, n)


def test_memos_hold_machine_integers(fresh_memos):
    # the table holds 8-byte items and the descent memo one 4-byte slot per
    # start 0.._DESCENT_MEMO_TOP for all shifts; readers still hand out ints
    # and fresh lists
    top = sq._DESCENT_MEMO_TOP
    memo = sq._descent_memo
    for s in range(7):
        for n in range(1, top + 1):
            sq.as_descent(s, n)
    assert sq._descent_memo is memo
    assert memo.typecode == "I" and memo.itemsize == 4 and len(memo) == top + 1
    kept = _kept_starts(memo)
    assert len(kept) > top // 2
    assert all(value == sq.as_via_a0(s, n) for n, (s, value) in kept.items())
    t = sq.table(5)
    assert type(t.a(5000)) is int and type(sq.a(0, 5000)) is int
    assert t._a.itemsize == 8
    assert type(t.values(0, 10)) is list and type(t.d_values(1, 10)) is list


# The step-by-step algorithms the fast evaluators replaced, kept as their
# references: a0 one doubling block per peel, the block index by two
# correcting loops, and the descent re-reading the memo and the block at
# every step.

def _a0_per_peel(n):
    if n == 0:
        return 1
    total = 0
    while n > 1:
        h = (n + 1).bit_length() - 1
        total += 1 << (h - 1)
        n -= (1 << h) - 1
    return total + n


def _block_two_loops(s, n):
    h = max(1, n.bit_length() - 1)
    while (1 << h) + (s - 1) * h - s + 1 > n:
        h -= 1
    while (1 << (h + 1)) + (s - 1) * h - 1 < n:
        h += 1
    return h


def _as_via_a0_per_peel(s, n):
    if n <= s + 1:
        return 1
    h = _block_two_loops(s, n)
    if n <= (1 << h) + (s - 1) * h:
        return 1 << (h - 1)
    return _a0_per_peel(n - s * h)


def _descent_per_step(s, n, memo):
    # memo: one dict start -> (shift, value) for every shift; an entry
    # counts only for its own shift, and a start overwrites any other's
    start, total = n, 0
    while True:
        owner, known = memo.get(n, (None, None))
        if owner == s:
            value = total + known
            break
        if n <= s + 1:
            value = total + 1
            break
        if n == s + 2:
            value = total + 2
            break
        h = _block_two_loops(s, n)
        root = (1 << h) + (s - 1) * h + 1
        if n <= root:
            value = total + (1 << (h - 1))
            break
        if n < root + (1 << (h - 1)):
            total += 1 << (h - 2)
            n -= (1 << (h - 1)) + s
        else:
            total += 1 << (h - 1)
            n -= (1 << h) + s - 1
    if n < start <= sq._DESCENT_MEMO_TOP:  # each step lowers n: a start that took one
        memo[start] = (s, value)
    return value


def _band_edges(rng, count):
    """n whose x = n + 1 has low + popcount(high) within 2 of the band bound
    256 of a0_fast, on both sides, so the band and the fallback both run."""
    out = []
    while len(out) < count:
        high = rng.randrange(1, 1 << 54) << 8
        low = 256 - high.bit_count() + rng.randrange(-2, 3)
        if 0 <= low <= 255:
            out.append((high | low) - 1)
    return out


def test_a0_fast_matches_the_per_peel_loop():
    # every n < 2**20: the per-peel loop run one peel per entry, each peel
    # n = 2**h - 1 + k reading the entry of k; the terminal k = 0 adds 0
    peeled = [0, 1]
    for n in range(2, 1 << 20):
        h = (n + 1).bit_length() - 1
        peeled.append((1 << (h - 1)) + peeled[n + 1 - (1 << h)])
    assert list(map(sq.a0_fast, range(1 << 20))) == [1] + peeled[1:]
    assert list(map(_a0_per_peel, range(1 << 12))) == [1] + peeled[1 : 1 << 12]
    rng = random.Random(20261018)
    huge = [rng.randrange(1 << 62) for _ in range(200000)]
    assert list(map(sq.a0_fast, huge)) == list(map(_a0_per_peel, huge))
    edges = _band_edges(rng, 20000)
    over = [n for n in edges if ((n + 1) & 255) + ((n + 1) >> 8).bit_count() > 256]
    assert len(over) > 1000  # the fallback peel runs, not just the band
    assert list(map(sq.a0_fast, edges)) == list(map(_a0_per_peel, edges))


def test_block_and_as_via_a0_match_the_step_by_step_routes():
    for s in (*range(7), 50, 1000):
        labels = range(s + 2, 1 << 14)
        assert [sq._block(s, n) for n in labels] == [_block_two_loops(s, n) for n in labels]
    rng = random.Random(7)
    for _ in range(50000):
        s, n = rng.randrange(7), rng.randint(1, 10**18)
        if n >= s + 2:
            assert sq._block(s, n) == _block_two_loops(s, n), (s, n)
        assert sq.as_via_a0(s, n) == _as_via_a0_per_peel(s, n), (s, n)


def test_as_descent_matches_the_per_step_descent_and_its_memo(fresh_memos):
    # verify's ascending sweep, then random huge starts: same values, and
    # the memo ends with the same entries as the per-step descent's
    reference = {}
    labels = range(1, 100001)
    for s in range(7):
        assert ([sq.as_descent(s, n) for n in labels]
                == [_descent_per_step(s, n, reference) for n in labels])
    rng = random.Random(11)
    for _ in range(5000):
        s, n = rng.randrange(7), rng.randint(1, 10**18)
        assert sq.as_descent(s, n) == _descent_per_step(s, n, reference), (s, n)
    assert _kept_starts(sq._descent_memo) == reference
    assert max(reference) <= sq._DESCENT_MEMO_TOP


def test_as_descent_in_random_order_keeps_only_its_starts(fresh_memos):
    # no ascending sweep first, so the memo is sparse and every huge descent
    # that passes a node <= top finds it unknown unless that node was a start
    top = sq._DESCENT_MEMO_TOP
    reference = {}
    rng = random.Random(12)
    for _ in range(20000):
        s = rng.randrange(7)
        n = rng.randint(1, 2 * top) if rng.random() < 0.5 else rng.randint(1, 10**18)
        assert sq.as_descent(s, n) == _descent_per_step(s, n, reference), (s, n)
    assert _kept_starts(sq._descent_memo) == reference
    assert max(reference) <= top
