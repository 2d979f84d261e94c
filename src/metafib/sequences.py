"""Self-referential leaf-count sequences and their fast evaluators.

The forest with delay ``s`` strings together complete binary trees of sizes
1, 1, 3, 7, ..., 2**h - 1, ... along a path whose nodes each absorb ``s``
preorder labels.  Three sequences describe it:

* ``a(s, n)``  leaves among the first ``n`` preorder labels,
* ``d(s, n)``  1 if label ``n`` is a leaf, else 0,
* ``p(s, n)``  label of the n-th leaf.

``a`` satisfies a nested recurrence (its own values feed back into its
indices).  One engine, ``SequenceTable``, grows it for each shift s;
``p`` has a closed form, and ``d`` is 1 exactly at its labels.  The shared
tables of ``table()`` have two readers: the CLI's ``seq a`` dump, and the
public ``a`` for s + 1 < n <= ``_MEMO_TOP`` only; elsewhere ``a`` answers
in closed form, by ``a0_fast``'s peels.  The public ``d`` is the leaf test
p(s, a(s, n)) == n at every n and reads no table.  ``SequenceTable``
itself is uncapped and stays the oracle; ``verify`` builds its own per run.
Everything else in this module is a faster or structurally different route
to the same numbers so that they can be cross-checked.

The ``seq d|p`` and ``codes`` range dumps read window kernels instead of
one call per value, each taking O(window / 2^12 + log hi) Python steps:
``p_window`` adds one offset to a slice of 2t - popcount(t), t < 2^12,
read at import off the gap table, a run of equal bit lengths and equal
k >> 12 at a time, in one packed int; ``d_flags`` joins those gaps of p,
one bytes piece a leaf, from the first leaf of its window; and
``a_window`` sums those flags.

Both memos hold machine integers from the stdlib ``array`` module, not
boxed ints: a table takes 4 bytes a value, and the ``as_descent`` memo is
one fixed array of _DESCENT_MEMO_TOP + 1 slots shared by every shift,
allocated once at import.
"""

from __future__ import annotations

import operator
import struct
import sys
import threading
from array import array
from itertools import accumulate, compress

from . import limits

# The public a reads the shared tables only for s + 1 < n <= _MEMO_TOP; at
# the s + 1 base values and above the bound it uses the O(log n) closed
# forms, which cost less than growing a table.  The public d reads no table
# at any n: its leaf test costs less than a table read (200k calls at
# n <= 2^13: ~0.2 s against ~0.5 s, 2-core host).  The smallest power of two
# that keeps a(2, 5000) on the table path, which the perfbench tracer test
# follows.  On perfbench point-queries (2-core host) the median wall_s was
# 0.23 s here, 0.30 s at 2^15 and 0.55 s at 2^17.
_MEMO_TOP = 1 << 13

# Largest start the descent memo keeps.  The smallest power of two at which
# verify full's ascending 7 x 100000 as_descent sweep takes as few descent
# steps as an unbounded memo (within 0.02%; 2^15 takes 17% more), with a
# third fewer entries than 2^17.  The memo is one array("I") of
# _DESCENT_MEMO_TOP + 1 slots for every shift together, 256 KiB where a C
# unsigned int is 4 bytes, so its size does not grow with the shifts seen.
_DESCENT_MEMO_TOP = 1 << 16


def ruler(n: int) -> int:
    """One plus the exponent of the largest power of 2 dividing n."""
    if n < 1:
        raise ValueError("ruler(n) needs n >= 1")
    return (n & -n).bit_length()


def is_power_of_two(n: int) -> bool:
    """True for 1, 2, 4, 8, ...  (1 counts as a power of two)."""
    return n >= 1 and n & (n - 1) == 0


class SequenceTable:
    """Append-only memo of the shift-s recurrence
    a(n) = a(n - s - a(n-1)) + a(n - s - 1 - a(n-2)), seeded with s + 2
    ones and a final 2.

    The values are held as C ints (``array("i")``, 4 bytes where a C int
    is): a(n) <= n, so every value fits below 2**31 labels, far past
    ``limits.OUTPUT``, and one that did not would make ``append`` raise
    ``OverflowError``, never wrap.  Every reader hands out ints or fresh
    lists.

    Each step reads one array item.  The second index of step m,
    m - s - 1 - a(m - 2), is the first index of step m - 1,
    (m - 1) - s - a(m - 2), so a(that index) rides in a local from one step
    to the next; a call reads it once at its start.  Its indices provably
    never escape the values already defined; if one does, that is a bug
    and ``RuntimeError`` is raised.  Both indices are checked: the first
    one at every step, and the second one as the first index of the step
    before, or, for a call's first step, when the call reads it.
    Values already handed out never change; growth is serialized by an
    internal lock so a table may be shared across threads.
    """

    def __init__(self, shift: int):
        if shift < 0:
            raise ValueError("shift must be >= 0")
        limits.check("shift table seed values s + 3", shift + 3, "OUTPUT")
        self.shift = shift
        self._a = array("i", [1]) * (shift + 2)
        self._a.append(2)
        self._lock = threading.Lock()

    def extend_to(self, n: int) -> None:
        """Grow the memo through index n."""
        with self._lock:
            vals = self._a
            s = self.shift
            m = len(vals)
            if m > n:
                return
            append = vals.append
            last = vals[m - 1]
            # the first index of step m - 1, which is step m's second index
            i = m - 1 - s - vals[m - 2]
            if not 0 <= i < m - 1:
                # Cannot happen if the recurrence is implemented correctly.
                raise RuntimeError(
                    f"recurrence argument out of range at shift={s} n={m}: {i}"
                )
            carried = vals[i]
            for m in range(m, n + 1):
                i = m - s - last
                if not 0 <= i < m:
                    raise RuntimeError(
                        f"recurrence argument out of range at shift={s} n={m}: {i}"
                    )
                first = vals[i]
                last = first + carried
                append(last)
                carried = first

    def a(self, n: int) -> int:
        if n < 0:
            raise ValueError("a(s, n) needs n >= 0")
        self.extend_to(n)
        return self._a[n]

    def values(self, lo: int, hi: int) -> list:
        """Values a(lo..hi) as a list (a copy; safe to mutate); [] if hi < lo."""
        if lo < 0:
            raise ValueError("a(s, n) needs n >= 0")
        if hi < lo:
            return []
        self.extend_to(hi)
        return self._a[lo : hi + 1].tolist()


# One shared table per shift s.
_tables: dict = {}
_tables_lock = threading.Lock()


def table(s: int) -> SequenceTable:
    """Shared memo table for shift s; only ``a`` and ``seq a`` read it."""
    with _tables_lock:
        t = _tables.get(s)
        if t is None:
            t = _tables[s] = SequenceTable(s)
        return t


def a(s: int, n: int) -> int:
    """a(s, n): a shared table for s + 1 < n <= _MEMO_TOP, a closed form elsewhere."""
    if s + 1 < n <= _MEMO_TOP:
        return table(s).a(n)
    return as_via_a0(s, n)


def d(s: int, n: int) -> int:
    """d(s, n): label n is a leaf exactly when it is the label of the
    a(s, n)-th leaf.  O(log n) at every n, no table."""
    if s < 0 or n < 1:
        raise ValueError("d(s, n) needs s >= 0, n >= 1")
    return 1 if p(s, as_via_a0(s, n)) == n else 0


def p(s: int, n: int) -> int:
    """Label of the n-th leaf, in closed form: with k = n - 1,

        p(s, n) = 1 + 2k - popcount(k) + s * bitlen(k).

    The gaps p(s, m+1) - p(s, m) are ruler(m), plus s when m is a power of
    two; summing them over m < n gives the formula.  O(1) bit arithmetic,
    no memo.  ``verify`` checks it against the recurrence (first hits),
    the leaf stream and the generating function.
    """
    if s < 0 or n < 1:
        raise ValueError("p(s, n) needs s >= 0, n >= 1")
    k = n - 1
    return 1 + 2 * k - k.bit_count() + s * k.bit_length()


# p_window and d_flags work in blocks of 2^12 leaves.  With k = n - 1 =
# high·2^12 + t, p(s, n) is an offset set by high and k's bit length plus
# 2t - popcount(t); and leaf k = high·2^12 + t, 0 < t < 2^12, is followed
# by ruler(t) - 1 labels that are no leaves, s more if k is a power of two.
_BLOCK_BITS = 12
_BLOCK = 1 << _BLOCK_BITS

# A run whose offset passes _PACK_TOP takes the per-value form, since
# offset + 2t - popcount(t) < offset + 2^13 must fit a 64-bit cell.
_PACK_TOP = (1 << 64) - 2 * _BLOCK


def _block_gaps() -> bytes:
    """Leaves 1 .. 2^12 - 1 as d's pieces: 1, then ruler(k) - 1 zeros; the
    piece of leaf t starts at byte 2(t - 1) - popcount(t - 1).  By doubling:
    leaves 2^j + 1 .. 2^(j+1) - 1 repeat the pieces of 1 .. 2^j - 1."""
    plain = b""
    for j in range(_BLOCK_BITS):
        plain += b"\1" + bytes(j) + plain
    return plain


_GAPS = _block_gaps()
# p_window's block, read off the gaps: cell t is where leaf t + 1's piece
# starts, 2t - popcount(t) for t < 2^12 (cell 2^12 - 1 is the gaps' end),
# as 64-bit little-endian cells; and an int with a 1 in each of those cells
_TWICE_LESS_ONES = struct.pack(f"<{_BLOCK}Q", *compress(range(len(_GAPS) + 1), _GAPS + b"\1"))
_ONES = int.from_bytes((b"\1" + bytes(7)) * _BLOCK, "little")


def p_window(s: int, lo: int, hi: int) -> list:
    """Values p(s, lo..hi) as a list, one run of k = n - 1 at a time, where
    a run has one bit length b and one value of high = k >> 12.  With
    k = high·2^12 + t,

        p(s, n) = (1 + s·b + 2^13·high - popcount(high)) + (2t - popcount(t)),

    one offset for the run plus a slice of ``_TWICE_LESS_ONES``, the piece
    starts of ``_GAPS``: a run whose offset is at most ``_PACK_TOP`` is
    added in one packed int of 64-bit cells and decoded once.  A run past
    it takes the per-value form: a stepped range of 1 + s·b + 2k less
    map(int.bit_count) over its k.  Python steps: O(window / 2^12 + log hi).
    """
    if s < 0 or lo < 1:
        raise ValueError("p(s, n) needs s >= 0, n >= 1")
    limits.check("p_window values", hi - lo + 1, "OUTPUT")
    out = []
    k = lo - 1
    while k < hi:
        b = k.bit_length()
        stop = min(hi, 1 << b, (k | (_BLOCK - 1)) + 1)
        n = stop - k
        high = k >> _BLOCK_BITS
        base = 1 + s * b + 2 * _BLOCK * high - high.bit_count()
        if base > _PACK_TOP:
            first = 1 + s * b + 2 * k
            out += map(operator.sub, range(first, first + 2 * n, 2),
                       map(int.bit_count, range(k, stop)))
        else:
            t = 8 * (k & (_BLOCK - 1))
            # a right shift costs the cells it keeps: here the top n
            packed = (int.from_bytes(_TWICE_LESS_ONES[t : t + 8 * n], "little")
                      + base * (_ONES >> 64 * (_BLOCK - n)))
            cells = array("Q", packed.to_bytes(8 * n, "little"))
            if sys.byteorder == "big":
                cells.byteswap()
            out += cells.tolist()
        k = stop
    return out


def d_flags(s: int, lo: int, hi: int) -> bytes:
    """Values d(s, lo..hi) as bytes, one a label, from the gaps of p: leaf
    k's label is followed by ruler(k) - 1 labels that are no leaves, and by
    s more when k is a power of two.  The flags join one bytes piece a
    leaf, 1 and then those zeros, from leaf a(s, lo - 1) + 1 (leaf 1 at
    lo = 1, since the base value a(s, 0) = 1 is no leaf count) on; ``p``
    is read for that leaf's label only.  Leaves 1 .. 2^12 - 1 of every
    block of 2^12 have the same pieces, so a run of them up to the block's
    end or the next power of two is one slice of ``_GAPS``.  A leaf at a
    multiple of 2^12 or at a power of two gets its own piece, cut at hi.
    Labels before lo are trimmed, never an error.  Empty when hi < lo.
    O(window + log hi) bytes, O(window / 2^12 + log hi) Python steps;
    reads no table.
    """
    return _leaf_flags(s, lo, hi)[0]


def _leaf_flags(s: int, lo: int, hi: int) -> tuple:
    """``d_flags``' bytes, and the leaves before lo: a(s, lo - 1),
    or 0 at lo = 1 (and when hi < lo)."""
    if s < 0 or lo < 1:
        raise ValueError("d_flags needs s >= 0, lo >= 1")
    limits.check("d_flags values", hi - lo + 1, "OUTPUT")
    if hi < lo:
        return b"", 0
    before = as_via_a0(s, lo - 1) if lo > 1 else 0
    k = before + 1
    label = start = p(s, k)
    pieces = [bytes(min(label, hi + 1) - lo)] if label > lo else []
    while label <= hi:
        if k & (_BLOCK - 1) and k & (k - 1):
            # each leaf takes a label at least, so leaf k + hi - label is the
            # last one the window can need
            stop = min(k | (_BLOCK - 1), (1 << k.bit_length()) - 1, k + hi - label)
            t, u = (k - 1) & (_BLOCK - 1), stop & (_BLOCK - 1)
            first, end = 2 * t - t.bit_count(), 2 * u - u.bit_count()
            pieces.append(_GAPS[first:end])
            label += end - first
            k = stop + 1
        else:
            gap = (k & -k).bit_length() + (0 if k & (k - 1) else s)
            pieces.append(b"\1" + bytes(min(gap, hi + 1 - label) - 1))
            label += gap
            k += 1
    skip = max(0, lo - start)
    return b"".join(pieces)[skip : skip + hi - lo + 1], before


def a_window(s: int, lo: int, hi: int) -> list:
    """Values a(s, lo..hi) as a list: the running sum of ``d_flags``'
    bytes from a(s, lo - 1), or from 0 at lo = 1.  ``_leaf_flags`` checks
    the arguments and finds that count once, for its first leaf and here."""
    flags, before = _leaf_flags(s, lo, hi)
    out = list(accumulate(flags, initial=before))
    del out[0]  # the count ahead of the window
    return out


def a0_fast(n: int) -> int:
    """Shift-0 values in O(log n) by peeling doubling blocks.

    Each peel writes n = 2**h - 1 + k with 0 <= k < 2**h, collects 2**(h-1)
    and goes on with k; in terms of x = n + 1 it maps x to
    x - top_bit(x) + 1.  The peels stop at x <= 2, which adds x - 1: the
    terminal k = 0 contributes nothing, and only the top-level call maps
    n = 0 to the base value 1.  Below x = 256 the remaining peels are read
    from a table built by the same peel.

    Band invariant: split x = high + low with low = x & 255.  While high is
    nonzero each peel takes the top bit of high and adds 1 to low.  When
    low + popcount(high) <= 256, the j-th of those peels starts from
    low + j - 1 <= 255, so no +1 carries into high before high is used up
    (only the last one may reach bit 8); all popcount(high) peels together
    collect high // 2 and leave x = low + popcount(high).  The bound is
    tight: at 257 the carry can land on bit 8 of high.  Otherwise one
    ordinary peel is taken and the test repeats.
    """
    if n < 0:
        raise ValueError("a0_fast(n) needs n >= 0")
    return _a0_peel(n + 1) if n else 1


def _a0_peel(x: int) -> int:
    """The peels of a0_fast for x = n + 1 >= 1 (x = 1 gives the terminal 0)."""
    total = 0
    while x > 255:
        low = x & 255
        ones = (x >> 8).bit_count()
        if low + ones <= 256:
            total += (x - low) >> 1
            x = low + ones
        else:
            top = 1 << (x.bit_length() - 1)
            total += top >> 1
            x += 1 - top
    return total + _A0_PEELS[x]


def _small_peels() -> tuple:
    """_a0_peel(x) for 0 < x < 256 (entry 0 unused), one ordinary peel at a
    time: x > 2 peels to x - top_bit(x) + 1 < x, collecting top_bit(x) // 2."""
    out = [0, 0, 1]
    for x in range(3, 256):
        top = 1 << (x.bit_length() - 1)
        out.append((top >> 1) + out[x + 1 - top])
    return tuple(out)


_A0_PEELS = _small_peels()


def a1_fast(n: int) -> int:
    """Shift-1 values via a0_fast(n - floor(lg n))."""
    if n < 1:
        raise ValueError("a1_fast(n) needs n >= 1")
    return a0_fast(n - n.bit_length() + 1)


def _block(s: int, n: int) -> int:
    """Index h >= 1 of the block (path nodes + subtree h) holding label n >= 2.

    Block h covers labels 2**h + (s-1)h - s + 1 .. 2**(h+1) + (s-1)h - 1;
    consecutive blocks tile everything from label 2 on.  The guess
    h = bitlen(n) - 1 errs one way only: for s >= 1 its block ends at or
    after 2**(h+1) - 1 >= n, so h can only be too large; for s = 0 its
    block starts at or before 2**h <= n, so h can only be too small, and
    by one at most.
    """
    h = n.bit_length() - 1
    if s:
        while (1 << h) + (s - 1) * h - s + 1 > n:
            h -= 1
    elif (1 << (h + 1)) - h - 1 < n:
        h += 1
    return h


def as_via_a0(s: int, n: int) -> int:
    """a(s, n) by translating subtree labels back to the shift-0 forest.

    Inside subtree h the label exceeds its shift-0 twin by s*h; on the
    path between subtrees h-1 and h the answer is 2**(h-1) outright.
    """
    if s < 0 or n < 0:
        raise ValueError("as_via_a0 needs s >= 0, n >= 0")
    if n <= s + 1:
        return 1
    h = _block(s, n)
    if n <= (1 << h) + (s - 1) * h:
        return 1 << (h - 1)
    return _a0_peel(n - s * h + 1)  # a0_fast(n - s*h); that argument is >= 1


# Slot n holds (s + 1) << 16 | a(s, n) for the last shift s whose descent
# started at n; 0 means empty.  Both halves fit in 16 bits: a start n <= 2^16
# takes a step only when n > s + 2, and a(s, n) <= 32769 there.  One item
# store writes a slot, so no reader sees one shift's tag with another's value.
_descent_memo = array("I", [0]) * (_DESCENT_MEMO_TOP + 1)


def as_descent(s: int, n: int) -> int:
    """a(s, n) by descending into the left or right half of the subtree.

    The query rides as its offset o from the root of subtree h: o <= 0 is
    a path node or the root itself.  Both halves of subtree h start where
    subtree h - 1 starts, so each step keeps o's place in subtree h - 1:
    going left (o < 2**(h-1)) lowers o by 1 and skips 2**(h-2) leaves,
    going right lowers o by 2**(h-1) and skips that many.  The descent
    stops at o = 0, a subtree root, or at subtree 1, the single leaf s + 2.
    A descent memoizes its own start, and only a start up to
    _DESCENT_MEMO_TOP, so ascending sweeps cost O(1) a call while huge-n
    descents write nothing.  The memo is read at the start and after each
    step at the label the offset stands for, once the subtree is small
    enough for that label to reach the bound; a slot counts only when its
    tag is this shift's, so every shift shares the one array.
    """
    if s < 0 or n < 1:
        raise ValueError("as_descent needs s >= 0, n >= 1")
    top = _DESCENT_MEMO_TOP
    memo = _descent_memo
    # a slot XOR the tag is its value when the tags match, else >= 2^16;
    # a tag past 32 bits (s >= 2^16 - 1) matches no slot
    tag = (s + 1) << 16
    if n <= top:
        known = memo[n] ^ tag
        if known < 1 << 16:
            return known
    if n <= s + 2:
        return 1 if n <= s + 1 else 2
    h = _block(s, n)
    o = n - (1 << h) - (s - 1) * h - 1
    if o <= 0:
        # a path node, or the subtree root itself (internal for h >= 2)
        return 1 << (h - 1)
    total = 0
    while True:
        h -= 1
        half = 1 << h
        if o < half:
            total += half >> 1
            o -= 1
        else:
            total += half
            o -= half
        # while 2**h > top even the lowest root, s = 0's 2**h - h + 1, is past top
        if half <= top:
            label = half + (s - 1) * h + 1 + o
            if label <= top:
                known = memo[label] ^ tag
                if known < 1 << 16:
                    break
        if not o:  # the root of subtree h; subtree 1 is the single leaf s + 2
            known = half >> 1 if h > 1 else 2
            break
    value = total + known
    if n <= top:
        memo[n] = tag | value
    return value
