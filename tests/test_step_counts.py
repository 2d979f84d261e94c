"""Polylog cost as a host-independent count: the Python lines one call runs.

``sys.settrace`` reports a "line" event each time the interpreter starts a
source line, in the traced call and in every Python function it calls, so
the count of one call is exact and repeatable on any host.  Line events do
not see work done in C, such as big-int arithmetic or building a list, so
these counts bound Python steps, not time; the wall-clock budgets of the
other tests stay.  Each bound is c·bitlen(n) + c0 with the constants stated
beside it, held by the worst of 200 random n per bit length, plus a term
per 2^12-value chunk for the window kernels and the 0/1 CLI dumps.  Some
bounds are on memory instead: tracemalloc's peak, also exact on one Python
version.
"""

import gc
import hashlib
import random
import sys
import tracemalloc
from array import array

import pytest

from metafib import cli, codes, compositions, sequences as sq, series, trees, words


def line_events(fn, *args) -> int:
    """Line events of one call fn(*args); the tracer installed before, if
    any, is back in place afterwards, even when the call raises.  The cyclic
    collector is paused meanwhile: the finalizers it may run in the middle
    of the call are other objects' Python lines."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return tracer

    collecting = gc.isenabled()
    gc.disable()
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return count


# (function, c, c0, whether it takes a shift s < 7 first): at 60 bits
# as_descent reads 545, as_via_a0 228 (235 at 59 bits), locate 365, d 226,
# leaves_in_prefix 361, is_leaf_oracle 362, b_seq 216 and a_max 197.  The
# per-step descent before the offset form read 628 at 60 bits, past
# as_descent's 8·60 + 80 = 560.
POINT_BOUNDS = [
    (sq.as_descent, 8, 80, True),
    (sq.as_via_a0, 4, 20, True),
    (trees.locate, 6, 40, True),
    (sq.d, 4, 40, True),
    (trees.leaves_in_prefix, 6, 40, True),
    (trees.is_leaf_oracle, 6, 40, True),
    (codes.b_seq, 4, 40, False),
    (codes.a_max, 4, 40, False),
]


@pytest.mark.parametrize("fn, c, c0, shifted", POINT_BOUNDS,
                         ids=[f"{fn.__name__}-{c}-{c0}" for fn, c, c0, _ in POINT_BOUNDS])
def test_point_queries_take_linear_in_bit_length_steps(monkeypatch, fn, c, c0, shifted):
    # a cold descent memo, so as_descent's count reads no earlier test's
    # starts; every n here is past the memo bound, so it stays empty
    monkeypatch.setattr(sq, "_descent_memo", array("I", [0]) * (sq._DESCENT_MEMO_TOP + 1))
    rng = random.Random(29)
    over = {}
    for b in range(18, 61):
        worst = max(line_events(fn, *[rng.randrange(7)] * shifted,
                                rng.randrange(1 << (b - 1), 1 << b))
                    for _ in range(200))
        if worst > c * b + c0:
            over[b] = worst
    assert not over, over


def test_greedy_tree_unbounded_takes_linear_in_bit_length_steps():
    # 8·bitlen(n) + 20: greedy_tree_unbounded(2**16) reads 143 of 156; the
    # list of n levels is built in C, so the count follows the height only
    rng = random.Random(29)
    ns = [*range(2, 1 << 10), *(rng.randint(1 << 10, 1 << 16) for _ in range(1000)),
          *(1 << k for k in range(10, 17)), *((1 << k) + 1 for k in range(10, 16))]
    over = {n: w for n in ns
            if (w := line_events(codes.greedy_tree_unbounded, n)) > 8 * n.bit_length() + 20}
    assert not over, over


# (builder, c, c0, the shifts or word indices it is built for): at order
# 2**16 gf_ruler reads 105, gf_D0 73, gf_Dn 74, gf_Ds_sum 135, gf_Ds_nested
# 91, gf_A_from_D 140, gf_Ps 154 and gf_As 174.  The list builders before
# the packed form read 262,208 (gf_ruler), 628 (gf_As), 619 (gf_Ds_nested)
# and 185 (gf_Ds_sum); gf_ruler's loop over the order's cells is the one
# that is not polylog.
SHIFTS = (0, 1, 3, 9, 50, 10**18)
SERIES_BOUNDS = [
    (series.gf_ruler, 6, 30, None),
    (series.gf_D0, 4, 30, None),
    (series.gf_Dn, 4, 30, (0, 1, 5, 22, 10**18)),
    (series.gf_Ds_sum, 8, 30, SHIFTS),
    (series.gf_Ds_nested, 4, 40, SHIFTS),
    (series.gf_A_from_D, 8, 40, SHIFTS),
    (series.gf_Ps, 8, 40, SHIFTS),
    (series.gf_As, 8, 50, SHIFTS[1:]),
]


@pytest.mark.parametrize("build, c, c0, firsts", SERIES_BOUNDS,
                         ids=[build.__name__ for build, *_ in SERIES_BOUNDS])
def test_series_builders_take_linear_in_bit_length_steps(build, c, c0, firsts):
    # the shifts and products are big-int steps in C, so the count follows
    # the order's bit length only
    orders = [*range(300), *((1 << k) + d for k in range(9, 17) for d in (-1, 0, 1))]
    calls = [(order,) if firsts is None else (first, order)
             for order in orders for first in (firsts or [None])]
    over = {args: w for args in calls
            if (w := line_events(build, *args)) > c * args[-1].bit_length() + c0}
    assert not over, over


def test_ruler_factorization_takes_linear_in_bit_length_steps():
    # 4·bitlen(terms) + 20: it reads 3·bitlen(terms) + 11 at every terms
    # and shift, 62 at 2**16, one doubling step a bit; the per-term piece
    # list it replaced, built in C, read 64 there.  A loop over the terms
    # in Python would read past 2**16.
    terms = [*range(1, 300), *((1 << k) + d for k in range(9, 21) for d in (-1, 0, 1))]
    over = {(s, t): w for s in (0, 1, 3, 9, 50) for t in terms
            if (w := line_events(words.ruler_factorization, s, t)) > 4 * t.bit_length() + 20}
    assert not over, over


def test_counts_up_to_takes_linear_in_bit_length_steps():
    # 8·bitlen(limit) + 20: counts_up_to(1, 2**16) reads 112, four lines a
    # layer and two a tail factor, as the layer steps and the tail product
    # are big-int steps in C.  The list dynamic program it replaced, whose
    # tail was a Python loop over the targets, read 131182 there.
    limits = [*range(300), *((1 << k) + d for k in range(9, 20) for d in (-1, 0, 1))]
    over = {(s, n): w for s in (1, 2, 3, 7, 50, 10**18) for n in limits
            if (w := line_events(compositions.counts_up_to, s, n)) > 8 * n.bit_length() + 20}
    assert not over, over


def test_counts_up_to_peak_memory_per_target():
    # the returned list, the tuple struct.unpack decodes into and the ints in
    # them, 8 + 8 + 28 bytes a target, beside the packed layer, total and
    # mask at 4 bytes each: 56.7 bytes a target at s = 1, 54.6 at s = 3.
    # The list dynamic program it replaced read 89.5.
    limit = 2**18
    for s in (1, 3):
        tracemalloc.start()
        try:
            compositions.counts_up_to(s, limit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * limit, (s, peak / limit)


# (kernel, c, c0): a window kernel's count is c·(⌈window/2^12⌉ + bitlen(hi))
# + c0, one loop pass a run or piece of 2^12 leaves and a few for each
# power of two below 2^12.  The worst over the grid below, at lo = 1 and
# 2^14 values, any s for p_window and 0 for the walk: p_window 248 (233
# when runs under 16 values took the per-value form), d_flags 204 and
# a_window 207, of a bound of 8·19 + 100 = 252.  The walk
# that marked each leaf label in a Python loop read 16541 there (d's
# window) and 4150-4220 for 2^12 labels at s = 1.  a_window(1, 10^6,
# 10^6 + 4095), one chunk of codes amax, reads 45; it read 62 when it found
# the count ahead of its window twice, once for the flags and once for
# their sum.
WINDOW_BOUNDS = [(sq.p_window, 8, 100), (sq.d_flags, 8, 100), (sq.a_window, 8, 100)]


@pytest.mark.parametrize("kernel, c, c0", WINDOW_BOUNDS,
                         ids=[kernel.__name__ for kernel, *_ in WINDOW_BOUNDS])
def test_window_kernels_take_linear_in_chunks_and_bit_length_steps(kernel, c, c0):
    over = {}
    for s in (0, 1, 3, 50, 10**18):
        for lo in (1, 10**6, 10**12, 10**18):
            for width in (1, 1 << 12, 1 << 14):
                hi = lo + width - 1
                count = line_events(kernel, s, lo, hi)
                if count > c * (-(-width // 4096) + hi.bit_length()) + c0:
                    over[s, lo, width] = count
    assert not over, over


class _HashSink:
    """A stdout that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())


def _dump(argv):
    """cli.main(argv) with stdout sent to a hashing sink; it must exit 0."""
    stdout, sys.stdout = sys.stdout, _HashSink()
    try:
        assert cli.main(argv) == 0
    finally:
        sys.stdout = stdout


def flag_dumps(widths, orders):
    """(argv, window length, hi) of every 0/1 dump: seq d in each format at
    windows of the given widths from 1, across 10**6 and 10**18 and at 10**12,
    and gf D in each format at the given orders."""
    for s in (0, 3, 10**18):
        for lo in (1, 10**6 - 2050, 10**12, 10**18 - 4100):
            for width in widths:
                for fmt in ("plain", "tsv", "bfile"):
                    yield (["seq", "d", "--s", str(s), "--from", str(lo),
                            "--to", str(lo + width - 1), "--format", fmt], width, lo + width - 1)
    for s in (0, 1, 3, 10**18):
        for order in orders:
            for fmt in ("bfile", "tsv"):
                yield ["gf", "D", "--s", str(s), "--order", str(order), "--format", fmt], order + 1, order


def test_flag_dumps_take_linear_in_chunks_and_digits_steps():
    # 24·⌈window/2^12⌉·(digits of hi) + 16·bitlen(hi) + 100, counted in
    # cli.main less argparse's own lines on the same argv (the standard
    # library's, which differ between Python versions).  The writer runs a
    # few dozen lines a piece of a chunk, a chunk having one piece or two
    # (five below 10**4), and the window kernel and the series builder add
    # theirs; the worst, seq d --from 1 --to 65536 as tsv, reads 1884, 18.9
    # a chunk and digit over 16·17 + 100 (1808 when the writer ran its own
    # chunk loop).  A per-line Python loop adds 2^12 a chunk.
    parser = cli._parser()
    over = {}
    for argv, width, hi in flag_dumps((1, 1 << 12, (1 << 12) + 1, 1 << 14, 1 << 16),
                                      (0, 1, 9, 10, 99, 100, 4095, 4096, 16384, 65536)):
        parser.parse_args(argv)  # argparse's first call runs lines the later ones skip
        count = line_events(_dump, argv) - line_events(parser.parse_args, argv)
        if count > 24 * -(-width // 4096) * len(str(hi)) + 16 * hi.bit_length() + 100:
            over[" ".join(argv)] = count
    assert not over, over


def _peak(fn, *args) -> int:
    """tracemalloc's peak over one call fn(*args)."""
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _series_as_read(s, order):
    """What gf D holds before it writes: the series and its tuple copy."""
    built = series.gf_Ds_sum(s, order)
    return built, built.coeffs


def test_flag_dumps_peak_memory_is_one_chunk():
    # 80·2^12 + 2^15 bytes over what the dump holds outside the writer:
    # nothing for seq d, whose window kernel builds one chunk at a time, and
    # for gf D the series as it is read (its builder's peak, with the list
    # and the tuple copy held).  A chunk's lines are held three times, as the
    # bytearray, its decoded str and the sink's encoded bytes, 22 bytes a line
    # at 19 index digits: the worst, seq d tsv across 10**18, peaks at 68.2
    # bytes a value, and gf D at 68 KB over the series.  Lines for the whole
    # window of 2^16 values would take 20 times a chunk's.
    cli._parser()  # built once per process, before anything is traced
    over = {}
    for argv, _, order in flag_dumps((1 << 12, 1 << 16), (4095, 4096, 16384, 65536)):
        _dump(argv)  # the digit periods are cached on the first call
        held = _peak(_series_as_read, int(argv[3]), order) if argv[0] == "gf" else 0
        if (peak := _peak(_dump, argv)) - held > 80 * (1 << 12) + (1 << 15):
            over[" ".join(argv)] = (peak, held)
    assert not over, over


def test_line_events_restores_the_tracer_and_the_collector():
    def outer(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(outer)
    try:
        assert line_events(sq.as_via_a0, 3, 10**18) > 0
        with pytest.raises(ValueError):
            line_events(sq.as_descent, -1, 5)
        assert sys.gettrace() is outer and gc.isenabled()
    finally:
        sys.settrace(previous)
    assert sys.gettrace() is previous
