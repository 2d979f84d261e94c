import random
import sys
import time
from array import array
from functools import partial
from itertools import accumulate

import pytest

from metafib import limits, trees
from metafib import sequences as sq

from _rows import ROWS_A, ROWS_D, ROWS_P, RULER_PREFIX, recurrence
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
        vals = recurrence(s).values(0, 4000)
        assert all(vals[n + 1] - vals[n] in (0, 1) for n in range(1, 4000))


def test_evaluators_agree_midrange():
    for s in range(5):
        vals = recurrence(s).values(0, 4000)
        for n in range(1, 4001):
            assert sq.as_via_a0(s, n) == vals[n]
            assert sq.as_descent(s, n) == vals[n]
    vals0 = recurrence(0).values(0, 4000)
    assert all(sq.a0_fast(n) == vals0[n] for n in range(4001))
    vals1 = recurrence(1).values(0, 4000)
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


def _textbook_recurrence(s, n):
    """a(s, 0..n) by the two-index recurrence as written, in a list."""
    a = [1] * (s + 2) + [2]
    for m in range(s + 3, n + 1):
        a.append(a[m - s - a[m - 1]] + a[m - s - 1 - a[m - 2]])
    return a


@pytest.mark.parametrize("s", [0, 1, 2, 5, 50])
def test_table_matches_the_textbook_recurrence(s):
    # uneven calls, so the value carried from one step's first index to the
    # next step's second index starts fresh inside the seed and at call
    # boundaries on either side of 2^12 and 2^16
    top = 1 << 17
    t = sq.SequenceTable(s)
    for n in (s + 2, s + 3, s + 4, s + 4, 4097, 4098, 5000, (1 << 16) + 1, top - 1, top):
        t.extend_to(n)
    assert t.values(0, top) == _textbook_recurrence(s, top)


@pytest.mark.parametrize("s", [0, 3])
@pytest.mark.parametrize("back", [1, 2], ids=["first-index", "carried-index"])
def test_planted_index_out_of_range_is_named(s, back):
    # back = 1 corrupts a(m - 1), which sets step m's first index; back = 2
    # corrupts a(m - 2), which sets its second index, the one a call reads
    # ahead of its first step.  Each value sends the index below 0 or to m.
    for value in (10**6, -s - 1):
        t = sq.SequenceTable(s)
        t.extend_to(100)
        t._a[-back] = value
        with pytest.raises(RuntimeError, match=rf"shift={s} n=101\b"):
            t.extend_to(200)
        assert len(t._a) == 101


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
        assert recurrence(s).values(0, 399) == [1] + scan[1:]


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


def _d_from_table(t, lo, hi):
    """d(lo..hi) off the recurrence: differences of a(lo - 1..hi), with 0
    leaves before label 1 (a(0) = 1 is a base value, not a leaf count)."""
    window = t.values(lo - 1, hi)
    if lo == 1:
        window[0] = 0
    return [y - x for x, y in zip(window, window[1:])]


def test_values_and_d_values_match_per_value():
    for s in range(7):
        t = sq.SequenceTable(s)
        for lo, hi in [(0, 0), (0, 50), (1, 1), (1, 2), (2, 2), (31, 33), (100, 300),
                       (200, 199)]:
            assert t.values(lo, hi) == [sq.a(s, n) for n in range(lo, hi + 1)]
            if lo >= 1:
                assert _d_from_table(t, lo, hi) == [trees.is_leaf_oracle(s, n)
                                                    for n in range(lo, hi + 1)]
        assert list(accumulate(trees.is_leaf_oracle(s, n) for n in range(1, 301))) \
            == t.values(1, 300)


def test_values_reject_negative_start():
    t = sq.SequenceTable(1)
    with pytest.raises(ValueError):
        t.values(-1, 5)


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
        assert [sq.d(s, n) for n in window] == _d_from_table(oracle, TOP - 5000, TOP + 5000)


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
    # the table holds 4-byte C ints, refusing a value past them rather than
    # wrapping it, and the descent memo one 4-byte slot per start
    # 0.._DESCENT_MEMO_TOP for all shifts; readers still hand out ints and
    # fresh lists
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
    assert t._a.typecode == "i" and t._a.itemsize == 4
    with pytest.raises(OverflowError):
        array(t._a.typecode).append(2**31)
    assert type(t.values(0, 10)) is list


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


def _subtree_edges(s, h):
    """Labels at each branch of the offset descent in block h: the path run
    before subtree h (all of it, or its ends when s is large), the root, the
    label after it, the last label of the left half, the first of the right
    half and the subtree's last label."""
    root = (1 << h) + (s - 1) * h + 1
    half = 1 << (h - 1)
    path = range(root - s, root) if s <= 8 else (root - s, root - 1)
    edges = {*path, root, root + 1, root + half - 1, root + half, root + (1 << h) - 2}
    # subtree 1 is the root alone, and the label s + 1 ends the base values
    return sorted(n for n in edges if n >= max(2, s + 2) and n <= root + (1 << h) - 2)


@pytest.mark.parametrize("s", [*range(7), 50, 2**16 - 2, 2**16, 10**18])
def test_as_descent_at_the_edges_of_each_subtree(fresh_memos, s):
    # each subtree's edges, small h first so later descents pass nodes the
    # earlier starts left in the memo; then the same labels again, read back
    reference = {}
    labels = [n for h in range(1, 61) for n in _subtree_edges(s, h)]
    for _ in range(2):
        for n in labels:
            assert sq.as_descent(s, n) == _descent_per_step(s, n, reference), (s, n)
    assert _kept_starts(sq._descent_memo) == reference


# The window kernels.  p_window's runs break where k = n - 1 changes its bit
# length; d_flags' walk (and so a_window, its running sum) starts from the
# count before its window, which a block start (the first label of a path
# run) or the base values can upset.
WINDOW_SHIFTS = [*range(7), 2**23, 10**18]


def _bit_length_edges(top_j):
    """Windows whose lo - 1 or hi - 1 is 2**j - 1 or 2**j, the last and first
    k of a bit length, and one-label windows there."""
    for j in range(top_j + 1):
        for n in (2**j, 2**j + 1):
            yield n, n + 37
            yield max(1, n - 37), n
            yield n, n


def _block_starts(s, lo, hi):
    """First labels of blocks 1, 2, ... (each a path run of s labels, then a
    subtree root) between lo and hi."""
    h = 1
    while (start := (1 << h) + (s - 1) * h - s + 1) <= hi:
        if start >= lo:
            yield start
        h += 1


def test_p_window_matches_point_p():
    for s in WINDOW_SHIFTS:
        windows = [(1, 1), (1, 2), (1, 300), *_bit_length_edges(62),
                   (10**18 - 50, 10**18 + 50), (10**18, 10**18)]
        for lo, hi in windows:
            assert sq.p_window(s, lo, hi) == [sq.p(s, n) for n in range(lo, hi + 1)], \
                (s, lo, hi)


def test_a_window_matches_the_table():
    for s in range(7):
        t = recurrence(s)
        windows = [(1, 1), (1, 2), (1, 5000), (4000, 9000)]
        windows += [(lo, hi) for lo in range(1, s + 3) for hi in (lo, s + 2, s + 3, s + 40)]
        for start in _block_starts(s, 2, 9000):
            windows += [(start - 1, start), (start, start), (start, start + s),
                        (max(1, start - 5), start + s + 5), (start + s, start + s + 1)]
        for edge in (1 << 12, 1 << 13):  # dump chunk and verify window edges
            windows += [(edge - 3, edge + 3), (edge, edge), (edge + 1, edge + (1 << 12))]
        windows += [(n, n) for n in range(1, 300)]
        for lo, hi in windows:
            assert sq.a_window(s, lo, hi) == t.values(lo, hi), (s, lo, hi)
            assert list(sq.d_flags(s, lo, hi)) == _d_from_table(t, lo, hi), (s, lo, hi)


def test_a_window_at_huge_n_matches_the_descent():
    rng = random.Random(21)
    for s in (0, 1, 6, 2**23, 10**17, 10**18):
        starts = [10**17, 10**18 - 200, rng.randrange(10**17, 10**18)]
        starts += [start - 3 for start in _block_starts(s, 10**17, 10**18 + 10)]
        for lo in starts:
            window = range(lo, lo + 201)
            assert (sq.a_window(s, lo, window[-1])
                    == [sq.as_descent(s, n) for n in window]), (s, lo)
            assert (list(sq.d_flags(s, lo, window[-1]))
                    == [trees.is_leaf_oracle(s, n) for n in window]), (s, lo)


# p_window packs a run (one bit length, one k >> 12) into 64-bit cells when
# its offset p(s, n) at t = k mod 2^12 = 0 is at most 2^64 - 2^13, and takes
# the per-value form past it; d_flags gives a leaf at a multiple of 2^12
# or at a power of two a piece of its own.
PACK_TOP = 2**64 - 2**13


def _run_with_offset(offset):
    """(s, lo) where lo - 1 is a multiple of 2^12 of bit length 20..40, so
    lo starts a whole run of 2^12 values, and p(s, lo) is offset."""
    for b in range(20, 41):
        for high in range(1 << (b - 13), 1 << (b - 12)):
            rest = offset - 1 - (high << 13) + high.bit_count()
            if rest % b == 0:
                return rest // b, (high << 12) + 1
    raise AssertionError(offset)


def _p_per_value(s, lo, hi):
    return [sq.p(s, n) for n in range(lo, hi + 1)]


@pytest.mark.parametrize("offset", [PACK_TOP - 1, PACK_TOP, PACK_TOP + 1,
                                    2**64 - 8178, 2**64 - 1, 2**64])
def test_p_window_on_both_sides_of_the_packing_switch(offset):
    # at offset 2**64 - 8178 the run's last value, t = 2^12 - 1, is 2**64
    s, lo = _run_with_offset(offset)
    assert sq.p(s, lo) == offset
    for first, last in ((lo - 20, lo + 4096 + 20), (lo, lo + 4095), (lo + 4000, lo + 4095),
                        (lo + 4080, lo + 4095), (lo + 4095, lo + 4095)):
        assert sq.p_window(s, first, last) == _p_per_value(s, first, last), (s, first, last)


def test_p_window_where_values_pass_64_bits():
    # s = 10^18: k of 18 bits packs (values below 1.9·10^19), of 19 bits
    # not; near n = 2^63 the last runs of 63 bits pack only for s = 0
    windows = [(10**18, 2**18 - 4200, 2**18 + 4200), (10**18, 2**17 - 40, 2**17 + 4200)]
    windows += [(s, 2**63 - 5000, 2**63 + 5000) for s in (0, 1, 3)]
    for s, lo, hi in windows:
        assert sq.p_window(s, lo, hi) == _p_per_value(s, lo, hi), (s, lo, hi)
    # the offset of the last 63-bit run, k = 2^63 - 2^12, is 2^64 - 8242 + 63s
    assert sq.p(0, 2**63 - 4095) <= PACK_TOP < sq.p(1, 2**63 - 4095)


def test_p_window_runs_across_multiples_of_2_12():
    for s in (0, 1, 5, 10**18):
        for m in (1, 2, 3, 7, 2**20, 2**40 + 3, 10**12):
            n = m * 4096 + 1  # k = n - 1 starts a run
            for lo, hi in ((n - 1, n), (n - 40, n + 40), (n - 3000, n + 3000),
                           (n - 4096, n + 4095), (n, n + 15)):
                assert sq.p_window(s, lo, hi) == _p_per_value(s, lo, hi), (s, lo, hi)


def test_p_window_block_cells_match_the_formula():
    # read off the gap table at import; checked here by the formula alone
    cells = sq._TWICE_LESS_ONES
    assert len(cells) == 8 * 4096
    assert [int.from_bytes(cells[8 * t : 8 * t + 8], "little") for t in range(4096)] \
        == [2 * t - t.bit_count() for t in range(4096)]
    ones = sq._ONES.to_bytes(8 * 4096, "little")
    assert [int.from_bytes(ones[8 * t : 8 * t + 8], "little") for t in range(4096)] \
        == [1] * 4096


def _own_piece_windows(s, leaves):
    """Windows about the labels of the given leaves: a leaf at a multiple of
    2^12 or a power of two takes its own piece, ruler(k) (+ s) labels."""
    for k in leaves:
        label, gap = sq.p(s, k), sq.p(s, k + 1) - sq.p(s, k)
        yield from ((max(1, label - 1), label), (label, label), (max(1, label - 30), label + 40),
                    (label, label + gap), (label + gap - 1, label + gap + 5),
                    (label + 1, label + gap - 1))


def test_d_and_a_windows_about_own_pieces_match_the_table():
    leaves = [*(1 << j for j in range(14)), 4096, 8192, 3 * 4096, 5 * 4096]
    for s in (0, 1, 2, 3, 50):
        t = recurrence(s)
        windows = [*_own_piece_windows(s, leaves)]
        windows += [(max(1, sq.p(s, k) - 5000), sq.p(s, k) + 5000) for k in (4096, 3 * 4096)]
        for lo, hi in windows:
            assert list(sq.d_flags(s, lo, hi)) == _d_from_table(t, lo, hi), (s, lo, hi)
            assert sq.a_window(s, lo, hi) == t.values(lo, hi), (s, lo, hi)


def test_d_and_a_windows_about_own_pieces_at_huge_n():
    leaves = [2**40, 2**40 + 4096, 2**52 - 4096, 10**12 * 4096, 2**58]
    for s in (0, 1, 7, 10**18):
        for lo, hi in _own_piece_windows(s, leaves):
            hi = min(hi, lo + 80)  # the oracles answer one label a call
            assert list(sq.d_flags(s, lo, hi)) == [trees.is_leaf_oracle(s, n)
                                                   for n in range(lo, hi + 1)], (s, lo, hi)
            assert sq.a_window(s, lo, hi) == [sq.as_descent(s, n)
                                              for n in range(lo, hi + 1)], (s, lo, hi)


def test_short_windows_at_1e17():
    for s in (0, 1, 2, 7, 10**18):
        starts = [10**17, 10**17 + 1, 10**17 + 4095, sq.p(s, 2**44), sq.p(s, 2**44) - 15]
        for lo in starts:
            for hi in (lo, lo + 15):
                labels = range(lo, hi + 1)
                assert sq.p_window(s, lo, hi) == _p_per_value(s, lo, hi), (s, lo, hi)
                assert list(sq.d_flags(s, lo, hi)) == [trees.is_leaf_oracle(s, n)
                                                       for n in labels], (s, lo, hi)
                assert sq.a_window(s, lo, hi) == [sq.as_descent(s, n)
                                                  for n in labels], (s, lo, hi)


def test_windows_reject_bad_arguments():
    for kernel in (sq.p_window, sq.a_window, sq.d_flags):
        for s, lo in ((-1, 5), (2, 0), (2, -3)):
            with pytest.raises(ValueError):
                kernel(s, lo, lo + 3)
        with pytest.raises(ValueError, match=r"\(limits\.OUTPUT\)"):
            kernel(0, 1, limits.OUTPUT + 1)


def test_windows_are_empty_below_their_start():
    # every window reader returns [] (d_flags b"") for hi < lo, a negative hi
    # included; a grown table must not read a negative hi as counted from its end
    t = sq.SequenceTable(3)
    t.extend_to(500)
    readers = [t.values, *(partial(kernel, 3) for kernel in (sq.p_window, sq.a_window))]
    for lo in (1, 2, 50, 101, 10**18):
        for hi in (lo - 1, lo - 2, lo - 100):
            for read in readers:
                assert read(lo, hi) == [], (read, lo, hi)
            assert sq.d_flags(3, lo, hi) == b"", (lo, hi)
